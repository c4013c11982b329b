// Indexed priority structures for the buffered router.
//
// The buffered router used to re-sort its whole queue every slot
// (O(Q log Q) per slot); the structures here bring a slot down to
// O((arrivals + served + dropped) · log Q):
//
//   * IndexedDaryHeap — a position-indexed d-ary heap over small integer
//     entry ids.  The position index is what turns the classic heap into a
//     mutable one: erase-by-id is O(d·log_d n) instead of O(n).
//     Keys live outside the heap (structure-of-arrays), so sift moves are
//     4-byte id shuffles.
//
//   * PacketQueue — the router's double-ended queue of waiting packets,
//     built from two IndexedDaryHeaps over one slot pool: a serve heap
//     ordered (rank desc, seq asc) — who gets the link next — and an evict
//     heap ordered (rank asc, seq desc) — who is pushed out when the
//     buffer overflows.  Killing a frame is O(1): packets of dead frames
//     are deleted lazily, i.e. counted out of live_size() immediately but
//     physically discarded only when a pop meets them, so a frame death
//     never walks the heap.  All storage is reused across reset() calls,
//     making repeated router trials allocation-free in steady state.
//
// The (live, rank, seq) key of the router's service order is represented
// as rank/seq in the heaps plus the lazy dead marking: a dead packet is
// by definition below every live packet, and the lazy skip realizes
// exactly that order without re-keying.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.hpp"
#include "util/require.hpp"

namespace osp {

/// Position-indexed d-ary heap over dense entry ids.
///
/// `Higher(a, b)` returns true when entry `a` must sit nearer the top than
/// entry `b`; it must induce a strict weak (in router use: total) order.
/// Entry ids are expected to be small and dense — the position index is a
/// direct-mapped vector.
template <class Higher, unsigned D = 4>
class IndexedDaryHeap {
  static_assert(D >= 2, "a d-ary heap needs d >= 2");

 public:
  explicit IndexedDaryHeap(Higher higher = Higher())
      : higher_(higher) {}

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    pos_.reserve(n);
  }

  /// Forgets every entry (O(size)); keeps allocated storage.
  void clear() {
    for (std::uint32_t id : heap_) pos_[id] = kAbsent;
    heap_.clear();
  }

  bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] != kAbsent;
  }

  /// The entry currently at the top; heap must be non-empty.
  std::uint32_t top() const {
    OSP_REQUIRE(!heap_.empty());
    return heap_[0];
  }

  /// Inserts an id not currently in the heap.  O(log_d n).
  void push(std::uint32_t id) {
    if (id >= pos_.size()) pos_.resize(id + 1, kAbsent);
    OSP_REQUIRE_MSG(pos_[id] == kAbsent, "duplicate heap entry " << id);
    heap_.push_back(id);
    pos_[id] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the top entry.  O(d·log_d n).
  std::uint32_t pop() {
    std::uint32_t id = top();
    remove_at(0);
    return id;
  }

  /// Removes an arbitrary entry by id.  O(d·log_d n).
  void erase(std::uint32_t id) {
    OSP_REQUIRE_MSG(contains(id), "erasing absent heap entry " << id);
    remove_at(pos_[id]);
  }

 private:
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  void place(std::size_t i, std::uint32_t id) {
    heap_[i] = id;
    pos_[id] = i;
  }

  /// Moves heap_[i] up while it beats its parent; true if it moved.
  bool sift_up(std::size_t i) {
    const std::uint32_t id = heap_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!higher_(id, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
      moved = true;
    }
    if (moved) place(i, id);
    return moved;
  }

  void sift_down(std::size_t i) {
    const std::uint32_t id = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * D + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + D, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (higher_(heap_[c], heap_[best])) best = c;
      if (!higher_(heap_[best], id)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, id);
  }

  void remove_at(std::size_t i) {
    pos_[heap_[i]] = kAbsent;
    const std::uint32_t tail = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // removed the physical tail
    place(i, tail);
    if (!sift_up(i)) sift_down(pos_[tail]);
  }

  Higher higher_;
  std::vector<std::uint32_t> heap_;  // entry ids in heap order
  std::vector<std::size_t> pos_;     // entry id -> index in heap_
};

/// The buffered router's queue of waiting packets; see the file comment.
///
/// Not copyable/movable: the two heaps' comparators point back into the
/// queue's key arrays.
class PacketQueue {
 public:
  PacketQueue();
  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  /// Empties the queue and re-arms it for `num_frames` frames, reusing all
  /// allocated storage.
  void reset(std::size_t num_frames);

  /// Pre-sizes internal storage for an expected peak packet population.
  void reserve(std::size_t packets);

  /// Packets whose frame is still live (dead packets awaiting lazy
  /// deletion are already counted out).
  std::size_t live_size() const { return serve_.size() - stale_; }

  /// Live packets of one frame currently queued.
  std::size_t live_of(SetId frame) const { return live_count_[frame]; }

  bool is_dead(SetId frame) const { return dead_[frame] != 0; }

  /// Enqueues a packet; returns its handle (stable until the packet is
  /// popped or lazily discarded).  O(log Q).
  std::uint32_t push(SetId frame, double rank, std::uint64_t seq);

  /// Pops the highest-priority live packet — (rank desc, seq asc) — into
  /// *frame/*seq; false when no live packet remains.  Dead packets met on
  /// the way are discarded without being reported (their drop was already
  /// accounted when their frame died).  Amortized O(log Q).
  bool pop_best(SetId* frame, std::uint64_t* seq = nullptr);

  /// Pops the lowest-priority live packet — (rank asc, seq desc).
  bool pop_worst(SetId* frame, std::uint64_t* seq = nullptr);

  /// Marks a frame dead; its queued packets become lazily deleted.
  /// Returns how many queued packets were newly written off.  O(1).
  std::size_t kill_frame(SetId frame);

 private:
  // Comparators index the queue's key arrays, so heaps stay id-only.
  struct ServeOrder {
    const PacketQueue* q;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      if (q->rank_[a] != q->rank_[b]) return q->rank_[a] > q->rank_[b];
      return q->seq_[a] < q->seq_[b];
    }
  };
  struct EvictOrder {
    const PacketQueue* q;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      if (q->rank_[a] != q->rank_[b]) return q->rank_[a] < q->rank_[b];
      return q->seq_[a] > q->seq_[b];
    }
  };

  // Pops from `primary`, erases from `secondary`, skipping stale entries.
  template <class Primary, class Secondary>
  bool pop_from(Primary& primary, Secondary& secondary, SetId* frame,
                std::uint64_t* seq);

  void release(std::uint32_t id) { free_.push_back(id); }

  // Packet slot pool, structure-of-arrays; indexed by handle.
  std::vector<SetId> frame_;
  std::vector<double> rank_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint32_t> free_;  // recycled handles

  IndexedDaryHeap<ServeOrder> serve_;
  IndexedDaryHeap<EvictOrder> evict_;

  std::vector<std::uint8_t> dead_;         // per frame
  std::vector<std::uint32_t> live_count_;  // per frame: queued live packets
  std::size_t stale_ = 0;  // queued packets of dead frames (lazy deletes)
};

}  // namespace osp
