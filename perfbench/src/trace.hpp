// Span recorder and layer decorators for the benchmark's traced run.
//
// Tracing lives in the benchmark, not in src/: the traced run wraps the
// policy (OnlineAlgorithm) and the frame ranker (FrameRanker) in
// forwarding decorators and records a span around each layer call they
// see.  Spans go to a per-thread Lane (no locking on the record path),
// stay in memory, and are written out once when the run ends.  Every
// operation's spans are folded into its OpLedger; only the first
// kKeptOps operations' spans are kept for the file, which bounds memory
// and the file's size on long runs.
//
// Trial spans: the batch runner does not expose trial boundaries, so a
// trial is taken to start when its policy is built or reseeded (exactly
// one of the two opens every run_grid trial) and to end when its last
// decide_batch call returns.  The final block's validate-and-score pass
// after that call is therefore not inside any trial span.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "net/router_sim.hpp"

namespace perfbench {

std::int64_t now_ns();

enum class SpanKind : std::uint8_t {
  kOp,           // one timed benchmark operation (caller thread)
  kTrial,        // one run_grid trial on a runner worker
  kStart,        // OnlineAlgorithm::start (the priority build)
  kDecideBatch,  // OnlineAlgorithm::decide_batch (the block kernel)
  kRankerStart,  // FrameRanker::start (randPr priorities per frame)
};

const char* span_name(SpanKind kind);

struct Span {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t op = 0;      // operation the span belongs to
  std::uint64_t parent = 0;  // enclosing span id (0 = none)
  std::uint64_t id = 0;
  std::uint32_t lane = 0;    // recording thread, in order of first use
  SpanKind kind = SpanKind::kOp;
};

/// Per-thread span buffer and counters.  Only its own thread writes it
/// while an operation runs; the caller reads it after the operation's
/// worker threads have joined.
struct Lane {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::size_t scanned = 0;  // spans already folded into an OpLedger
  std::size_t kept = 0;     // spans of the kept operations
  // Open trial, closed by the next trial on this lane or at op end.
  bool trial_open = false;
  std::uint64_t trial_id = 0;
  std::int64_t trial_t0 = 0;
  std::int64_t trial_last_end = 0;
  // Counters at the decorated boundaries.
  std::uint64_t decisions = 0;
  std::uint64_t blocks = 0;
  std::uint64_t rank_calls = 0;
};

/// Layer totals of one traced operation, built from its spans.
struct OpLedger {
  std::int64_t wall_ns = 0;
  std::int64_t trial_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t decide_ns = 0;
  std::int64_t ranker_start_ns = 0;
  std::int64_t max_lane_busy_ns = 0;  // busiest worker's trial time
  std::uint64_t trials = 0;
  std::uint64_t decisions = 0;
  std::uint64_t blocks = 0;
  std::uint64_t rank_calls = 0;
};

/// Process-wide recorder.  Not copyable; lanes live until the process ends.
class Tracer {
 public:
  static Tracer& get();

  /// The calling thread's lane (registered on first use).
  Lane& lane();

  void begin_op();
  /// Closes the operation's open trials and folds its spans into a ledger.
  OpLedger end_op();

  /// Opens a trial span on the calling thread's lane (closing the
  /// previous one there).
  void begin_trial();
  std::uint64_t next_id();
  std::uint64_t current_op() const { return op_; }
  std::uint64_t current_op_span() const { return op_id_; }

  /// Writes the kept spans as tab-separated text.
  void write(std::ostream& out) const;

  static constexpr std::uint64_t kKeptOps = 64;

 private:
  Tracer() = default;
  void close_trial(Lane& lane);

  mutable std::mutex mutex_;  // guards lanes_ (registration, end-of-op scans)
  std::deque<Lane> lanes_;    // deque: lane addresses stay valid
  std::atomic<std::uint64_t> next_id_{1};  // span ids, drawn by any lane
  std::uint64_t op_ = 0;
  std::uint64_t op_id_ = 0;
  std::int64_t op_t0_ = 0;
  OpLedger totals_;  // counter totals at the previous end_op
};

/// Records a span of `kind` on the calling thread's lane for its scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane& lane_;
  Span span_;
};

/// Forwarding OnlineAlgorithm decorator: spans around start() and
/// decide_batch(), decision and block counts.  reseed()/reseedable() are
/// forwarded, so run_grid's cached-policy trial path is unchanged.
class TracedPolicy final : public osp::OnlineAlgorithm {
 public:
  explicit TracedPolicy(std::unique_ptr<osp::OnlineAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void start(const std::vector<osp::SetMeta>& sets) override;
  void reseed(osp::Rng rng) override;
  bool reseedable() const override { return inner_->reseedable(); }
  std::size_t decide(osp::ElementId u, osp::Capacity capacity,
                     const osp::SetId* candidates, std::size_t num_candidates,
                     osp::SetId* out) override {
    return inner_->decide(u, capacity, candidates, num_candidates, out);
  }
  void decide_batch(const osp::ArrivalBlock& block, osp::BlockScratch& scratch,
                    osp::BlockChoices& out) override;

 private:
  std::unique_ptr<osp::OnlineAlgorithm> inner_;
};

/// Forwarding FrameRanker decorator: a span around start(), a per-thread
/// count of rank() calls (rank() runs concurrently on serving workers).
/// Does not own the ranker it wraps.
class TracedRanker final : public osp::FrameRanker {
 public:
  explicit TracedRanker(osp::FrameRanker& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void start(const std::vector<osp::SetMeta>& frames) override;
  double rank(osp::SetId frame) const override;
  void reseed(osp::Rng rng) override { inner_.reseed(rng); }

 private:
  osp::FrameRanker& inner_;
};

}  // namespace perfbench
