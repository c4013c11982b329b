#include "net/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "core/csr.hpp"
#include "util/require.hpp"

namespace osp {

namespace {

// ---------------------------------------------------------------------------
// Serial precompute: everything that consumes randomness or assigns global
// identifiers happens here, before any worker exists, so the parallel phase
// is a pure function of this structure.

struct PacketArrival {
  SetId frame = 0;
  std::uint64_t seq = 0;  // global arrival index, canonical order
};

struct Prepared {
  std::vector<SetMeta> metas;
  std::vector<std::size_t> stream_of;       // frame -> stream (resolved)
  std::vector<std::size_t> link_of_frame;   // frame -> link
  std::vector<CsrArray<PacketArrival>> arrivals;  // per link, one row per slot
  std::vector<std::uint32_t> arrival_slot;  // seq -> slot
  std::vector<double> window_offered;       // per window
  std::size_t num_streams = 0;
  std::size_t num_windows = 0;
};

Prepared prepare(const FrameSchedule& schedule,
                 const std::vector<std::size_t>& stream_of,
                 const ServeSpec& spec) {
  OSP_REQUIRE(spec.links >= 1);
  OSP_REQUIRE(spec.service_rate >= 1);
  OSP_REQUIRE(spec.workers >= 1);
  OSP_REQUIRE(spec.window >= 1);
  schedule.validate();
  const std::size_t num_frames = schedule.frames.size();
  OSP_REQUIRE_MSG(stream_of.empty() || stream_of.size() == num_frames,
                  "stream_of must be empty or map every frame");

  Prepared prep;
  prep.metas.reserve(num_frames);
  for (const Frame& f : schedule.frames) {
    OSP_REQUIRE_MSG(!f.packet_slots.empty(),
                    "sustained serving requires every frame to carry a packet");
    prep.metas.push_back(SetMeta{f.weight, f.packet_slots.size()});
  }

  // Resolve streams (identity when unspecified) and the static
  // stream -> link partition.
  prep.stream_of.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f) {
    const std::size_t s = stream_of.empty() ? f : stream_of[f];
    OSP_REQUIRE_MSG(s < num_frames, "stream id " << s << " out of range");
    prep.stream_of[f] = s;
    prep.num_streams = std::max(prep.num_streams, s + 1);
  }
  prep.link_of_frame.resize(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f)
    prep.link_of_frame[f] = prep.stream_of[f] % spec.links;

  // Global canonical arrival order: slot-major, frame id ascending within
  // a slot — the same pack_slot_frames order the single-link buffered
  // router assigns seqs in, so a links=1 run is packet-for-packet the
  // same process.
  const std::size_t horizon = schedule.horizon;
  CsrArray<SetId> slot_frames;
  {
    std::vector<std::size_t> sizes, fill;
    pack_slot_frames(schedule, slot_frames, sizes, fill);
  }

  // Scatter the canonical stream into per-link arrival CSRs, tagging each
  // packet with its global seq and remembering its arrival slot.
  prep.arrivals.resize(spec.links);
  {
    std::vector<std::vector<std::size_t>> sizes(
        spec.links, std::vector<std::size_t>(horizon, 0));
    for (std::size_t fi = 0; fi < num_frames; ++fi)
      for (std::size_t slot : schedule.frames[fi].packet_slots)
        ++sizes[prep.link_of_frame[fi]][slot];
    for (std::size_t l = 0; l < spec.links; ++l)
      prep.arrivals[l].assign_sizes(sizes[l].data(), sizes[l].size());
    std::vector<std::vector<std::size_t>> fill(
        spec.links, std::vector<std::size_t>(horizon, 0));
    prep.arrival_slot.resize(schedule.total_packets());
    std::uint64_t seq = 0;
    for (std::size_t slot = 0; slot < horizon; ++slot)
      for (SetId f : slot_frames.row(slot)) {
        const std::size_t l = prep.link_of_frame[f];
        prep.arrivals[l].mutable_row(slot)[fill[l][slot]++] =
            PacketArrival{f, seq};
        prep.arrival_slot[seq] = static_cast<std::uint32_t>(slot);
        ++seq;
      }
  }

  // Offered value per window: a frame is offered in the window its last
  // packet arrives in (the earliest slot it could complete).
  prep.num_windows = (horizon + spec.window - 1) / spec.window;
  prep.window_offered.assign(prep.num_windows, 0.0);
  for (std::size_t fi = 0; fi < num_frames; ++fi)
    prep.window_offered[schedule.frames[fi].packet_slots.back() /
                        spec.window] += schedule.frames[fi].weight;
  return prep;
}

// ---------------------------------------------------------------------------
// Per-link accumulators, merged link-ascending at the end so floating-point
// sums are added in the same order for every worker count (and for the
// reference).

struct LinkTally {
  std::size_t arrived = 0;
  std::size_t served = 0;
  std::size_t dropped = 0;
  std::size_t refused_dead = 0;
  std::size_t evictions = 0;
  std::size_t cascade_drops = 0;
  std::size_t leftover = 0;
  LatencyHistogram serve_latency;
  LatencyHistogram drop_latency;
  std::vector<double> window_delivered;      // per window
  std::vector<ServeTrace::Served> trace;     // tracing only
  std::vector<std::size_t> slot_backlog;     // tracing only, per slot
  std::vector<std::size_t> slot_served;      // tracing only, per slot
};

// The deterministic work-conserving allocator: a pure function of the
// per-link live backlogs.  Base grant = min(rate, backlog); spare
// capacity is then lent one packet at a time in round-robin link-id
// order to links that still have unserved backlog, so
// sum(alloc) == min(links * rate, sum(backlog)) and alloc[l] <= backlog[l].
void compute_alloc(const ServeSpec& spec,
                   const std::vector<std::size_t>& backlog,
                   std::vector<std::size_t>& alloc) {
  const std::size_t rate = spec.service_rate;
  std::size_t spare = 0;
  for (std::size_t l = 0; l < spec.links; ++l) {
    alloc[l] = std::min<std::size_t>(rate, backlog[l]);
    spare += rate - alloc[l];
  }
  if (!spec.work_conserving) return;
  bool granted = true;
  while (spare > 0 && granted) {
    granted = false;
    for (std::size_t l = 0; l < spec.links && spare > 0; ++l)
      if (alloc[l] < backlog[l]) {
        ++alloc[l];
        --spare;
        granted = true;
      }
  }
}

void tally_frames(const FrameSchedule& schedule,
                  const std::vector<std::size_t>& served_per_frame,
                  RouterStats& stats) {
  stats.frames_total = schedule.frames.size();
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi) {
    stats.value_total += schedule.frames[fi].weight;
    if (served_per_frame[fi] == schedule.frames[fi].packet_slots.size()) {
      ++stats.frames_delivered;
      stats.value_delivered += schedule.frames[fi].weight;
    }
  }
}

// Merges the per-link tallies in link order into the run's stats and
// (when tracing) the canonical trace — shared by the runtime and the
// reference so the accumulation order is identical.
SustainedStats finalize(const FrameSchedule& schedule, const Prepared& prep,
                        const std::vector<std::size_t>& served_per_frame,
                        std::vector<LinkTally>& tallies,
                        std::vector<std::uint64_t>&& starved,
                        ServeTrace* trace) {
  SustainedStats out;
  out.window_offered = prep.window_offered;
  out.window_delivered.assign(prep.num_windows, 0.0);
  out.starved_slots = std::move(starved);
  for (std::size_t l = 0; l < tallies.size(); ++l) {
    const LinkTally& t = tallies[l];
    out.router.packets_arrived += t.arrived;
    out.router.packets_served += t.served;
    out.router.packets_dropped += t.dropped;
    out.refused_dead += t.refused_dead;
    out.evictions += t.evictions;
    out.cascade_drops += t.cascade_drops;
    out.leftover += t.leftover;
    out.serve_latency.merge(t.serve_latency);
    out.drop_latency.merge(t.drop_latency);
    for (std::size_t w = 0; w < prep.num_windows; ++w)
      out.window_delivered[w] += t.window_delivered[w];
  }
  tally_frames(schedule, served_per_frame, out.router);

  if (trace != nullptr) {
    trace->served.clear();
    trace->slot_backlog.assign(schedule.horizon, 0);
    trace->slot_served.assign(schedule.horizon, 0);
    for (const LinkTally& t : tallies) {
      trace->served.insert(trace->served.end(), t.trace.begin(),
                           t.trace.end());
      for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
        trace->slot_backlog[slot] += t.slot_backlog[slot];
        trace->slot_served[slot] += t.slot_served[slot];
      }
    }
    // Per-link traces are slot-ordered with within-slot service order;
    // a stable sort on (slot, link) therefore yields the canonical
    // (slot, link, service order) sequence the reference emits directly.
    std::stable_sort(trace->served.begin(), trace->served.end(),
                     [](const ServeTrace::Served& a,
                        const ServeTrace::Served& b) {
                       if (a.slot != b.slot) return a.slot < b.slot;
                       return a.link < b.link;
                     });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-slot barrier: a classic generation-counted cyclic barrier, plus
// retire() so a worker that dies on an internal error releases the rest
// instead of deadlocking them (the error is rethrown after the join).

class SlotBarrier {
 public:
  explicit SlotBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t gen = gen_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return gen_ != gen; });
  }

  void retire() {
    std::unique_lock<std::mutex> lock(mutex_);
    --parties_;
    if (parties_ > 0 && waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t gen_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------

std::size_t SustainedStats::streams_starved() const {
  std::size_t n = 0;
  for (std::uint64_t s : starved_slots) n += s > 0 ? 1 : 0;
  return n;
}

std::uint64_t SustainedStats::starved_slots_max() const {
  std::uint64_t best = 0;
  for (std::uint64_t s : starved_slots) best = std::max(best, s);
  return best;
}

double SustainedStats::window_goodput_mean() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t w = 0; w < window_offered.size(); ++w)
    if (window_offered[w] > 0) {
      sum += window_delivered[w] / window_offered[w];
      ++n;
    }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double SustainedStats::window_goodput_min() const {
  double best = 0.0;
  bool any = false;
  for (std::size_t w = 0; w < window_offered.size(); ++w)
    if (window_offered[w] > 0) {
      const double g = window_delivered[w] / window_offered[w];
      if (!any || g < best) best = g;
      any = true;
    }
  return any ? best : 0.0;
}

bool operator==(const SustainedStats& a, const SustainedStats& b) {
  return a.router.packets_arrived == b.router.packets_arrived &&
         a.router.packets_served == b.router.packets_served &&
         a.router.packets_dropped == b.router.packets_dropped &&
         a.router.frames_total == b.router.frames_total &&
         a.router.frames_delivered == b.router.frames_delivered &&
         a.router.value_total == b.router.value_total &&
         a.router.value_delivered == b.router.value_delivered &&
         a.refused_dead == b.refused_dead && a.evictions == b.evictions &&
         a.cascade_drops == b.cascade_drops && a.leftover == b.leftover &&
         a.serve_latency == b.serve_latency &&
         a.drop_latency == b.drop_latency &&
         a.starved_slots == b.starved_slots &&
         a.window_offered == b.window_offered &&
         a.window_delivered == b.window_delivered;
}

SustainedStats serve_sustained(const FrameSchedule& schedule,
                               const std::vector<std::size_t>& stream_of,
                               FrameRanker& ranker, const ServeSpec& spec,
                               ServeTrace* trace) {
  const Prepared prep = prepare(schedule, stream_of, spec);
  ranker.start(prep.metas);

  const std::size_t K = spec.links;
  const std::size_t horizon = schedule.horizon;
  const bool tracing = trace != nullptr;

  // Shared state.  Each element is written by exactly one worker: queues
  // and tallies are per link, the per-frame and per-stream arrays are
  // only touched through the owning link, and backlog[l] is written in
  // the ingest phase and read (by everyone) only after the barrier.
  std::vector<PacketQueue> queues(K);
  std::vector<LinkTally> tallies(K);
  std::vector<std::size_t> backlog(K, 0);
  std::vector<std::size_t> served_per_frame(schedule.frames.size(), 0);
  std::vector<std::size_t> stream_live(prep.num_streams, 0);
  std::vector<std::size_t> last_served_slot(
      prep.num_streams, std::numeric_limits<std::size_t>::max());
  std::vector<std::uint64_t> starved(prep.num_streams, 0);
  // Per link, the streams with a queued packet (stream_live > 0), so the
  // starvation tally walks only those and not every stream of the link;
  // live_pos[s] is s's index in its link's list while it is live.
  std::vector<std::vector<std::size_t>> live_streams(K);
  std::vector<std::size_t> live_pos(prep.num_streams, 0);
  for (std::size_t l = 0; l < K; ++l) {
    queues[l].reset(schedule.frames.size());
    tallies[l].window_delivered.assign(prep.num_windows, 0.0);
    if (tracing) {
      tallies[l].slot_backlog.assign(horizon, 0);
      tallies[l].slot_served.assign(horizon, 0);
    }
  }

  const std::size_t W = std::min(spec.workers, std::max<std::size_t>(K, 1));

  auto stream_gained = [&](std::size_t l, std::size_t s) {
    if (stream_live[s]++ > 0) return;
    live_pos[s] = live_streams[l].size();
    live_streams[l].push_back(s);
  };
  auto stream_lost = [&](std::size_t l, std::size_t s, std::size_t packets) {
    stream_live[s] -= packets;
    if (stream_live[s] > 0) return;
    std::vector<std::size_t>& live = live_streams[l];
    live_pos[live.back()] = live_pos[s];
    live[live_pos[s]] = live.back();
    live.pop_back();
  };

  auto ingest = [&](std::size_t l, std::size_t slot) {
    PacketQueue& q = queues[l];
    LinkTally& t = tallies[l];
    for (const PacketArrival& a : prep.arrivals[l].row(slot)) {
      ++t.arrived;
      if (spec.drop_dead_frames && q.is_dead(a.frame)) {
        ++t.dropped;
        ++t.refused_dead;
        continue;
      }
      q.push(a.frame, ranker.rank(a.frame), a.seq);
      stream_gained(l, prep.stream_of[a.frame]);
    }
    backlog[l] = q.live_size();
    if (tracing) t.slot_backlog[slot] = backlog[l];
  };

  auto serve_and_trim = [&](std::size_t l, std::size_t slot,
                            std::size_t grant) {
    PacketQueue& q = queues[l];
    LinkTally& t = tallies[l];
    for (std::size_t i = 0; i < grant; ++i) {
      SetId f;
      std::uint64_t seq;
      const bool ok = q.pop_best(&f, &seq);
      OSP_REQUIRE_MSG(ok, "allocation exceeded live backlog");
      ++served_per_frame[f];
      ++t.served;
      t.serve_latency.add(slot - prep.arrival_slot[seq]);
      const std::size_t s = prep.stream_of[f];
      stream_lost(l, s, 1);
      last_served_slot[s] = slot;
      if (served_per_frame[f] == prep.metas[f].size)
        t.window_delivered[slot / spec.window] += prep.metas[f].weight;
      if (tracing)
        t.trace.push_back(ServeTrace::Served{slot, l, f, seq});
    }
    if (tracing) t.slot_served[slot] = grant;

    while (q.live_size() > spec.buffer) {
      SetId f;
      std::uint64_t seq;
      q.pop_worst(&f, &seq);
      ++t.dropped;
      ++t.evictions;
      t.drop_latency.add(slot - prep.arrival_slot[seq]);
      std::size_t lost = 1;
      if (spec.drop_dead_frames) {
        const std::size_t killed = q.kill_frame(f);
        t.dropped += killed;
        t.cascade_drops += killed;
        lost += killed;
      }
      stream_lost(l, prep.stream_of[f], lost);
    }

    for (std::size_t s : live_streams[l])
      if (last_served_slot[s] != slot) ++starved[s];
  };

  auto run_worker = [&](std::size_t w, SlotBarrier* barrier) {
    const std::size_t lo = w * K / W;
    const std::size_t hi = (w + 1) * K / W;
    std::vector<std::size_t> alloc(K, 0);  // worker-local, redundant compute
    for (std::size_t slot = 0; slot < horizon; ++slot) {
      for (std::size_t l = lo; l < hi; ++l) ingest(l, slot);
      if (barrier != nullptr) barrier->arrive_and_wait();
      compute_alloc(spec, backlog, alloc);
      for (std::size_t l = lo; l < hi; ++l) serve_and_trim(l, slot, alloc[l]);
      if (barrier != nullptr) barrier->arrive_and_wait();
    }
    for (std::size_t l = lo; l < hi; ++l) {
      tallies[l].leftover = queues[l].live_size();
      tallies[l].dropped += tallies[l].leftover;
    }
  };

  if (W <= 1) {
    run_worker(0, nullptr);
  } else {
    SlotBarrier barrier(W);
    std::vector<std::exception_ptr> errors(W);
    auto guarded = [&](std::size_t w) {
      try {
        run_worker(w, &barrier);
      } catch (...) {
        errors[w] = std::current_exception();
        barrier.retire();
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(W - 1);
    for (std::size_t w = 1; w < W; ++w)
      threads.emplace_back(guarded, w);
    guarded(0);
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }

  return finalize(schedule, prep, served_per_frame, tallies,
                  std::move(starved), trace);
}

SustainedStats serve_sustained_reference(
    const FrameSchedule& schedule, const std::vector<std::size_t>& stream_of,
    FrameRanker& ranker, const ServeSpec& spec, ServeTrace* trace) {
  const Prepared prep = prepare(schedule, stream_of, spec);
  ranker.start(prep.metas);

  const std::size_t K = spec.links;
  const bool tracing = trace != nullptr;

  struct QueuedPacket {
    SetId frame;
    double rank;
    std::uint64_t seq;
  };

  std::vector<std::vector<QueuedPacket>> queues(K);
  std::vector<LinkTally> tallies(K);
  std::vector<std::size_t> backlog(K, 0);
  std::vector<std::size_t> alloc(K, 0);
  std::vector<std::size_t> served_per_frame(schedule.frames.size(), 0);
  std::vector<bool> dead(schedule.frames.size(), false);
  std::vector<std::size_t> stream_live(prep.num_streams, 0);
  std::vector<std::size_t> last_served_slot(
      prep.num_streams, std::numeric_limits<std::size_t>::max());
  std::vector<std::uint64_t> starved(prep.num_streams, 0);
  // The plain starvation scan visits every stream of a link every slot.
  std::vector<std::vector<std::size_t>> link_streams(K);
  for (std::size_t s = 0; s < prep.num_streams; ++s)
    link_streams[s % K].push_back(s);
  for (std::size_t l = 0; l < K; ++l) {
    tallies[l].window_delivered.assign(prep.num_windows, 0.0);
    if (tracing) {
      tallies[l].slot_backlog.assign(schedule.horizon, 0);
      tallies[l].slot_served.assign(schedule.horizon, 0);
    }
  }

  for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
    // Ingest every link, then allocate, then serve — the same phase
    // structure as the runtime, realized serially.  The vector queue
    // never holds a dead packet (arrivals refused, cascades removed
    // eagerly), so queue.size() is the live backlog.
    for (std::size_t l = 0; l < K; ++l) {
      LinkTally& t = tallies[l];
      for (const PacketArrival& a : prep.arrivals[l].row(slot)) {
        ++t.arrived;
        if (spec.drop_dead_frames && dead[a.frame]) {
          ++t.dropped;
          ++t.refused_dead;
          continue;
        }
        queues[l].push_back(
            QueuedPacket{a.frame, ranker.rank(a.frame), a.seq});
        ++stream_live[prep.stream_of[a.frame]];
      }
      backlog[l] = queues[l].size();
      if (tracing) t.slot_backlog[slot] = backlog[l];
    }

    compute_alloc(spec, backlog, alloc);

    for (std::size_t l = 0; l < K; ++l) {
      std::vector<QueuedPacket>& q = queues[l];
      LinkTally& t = tallies[l];
      // (rank desc, seq asc) — seqs are unique, so this is a total order
      // and the front `alloc[l]` packets are exactly what the heap's
      // pop_best sequence serves.
      std::sort(q.begin(), q.end(),
                [](const QueuedPacket& a, const QueuedPacket& b) {
                  if (a.rank != b.rank) return a.rank > b.rank;
                  return a.seq < b.seq;
                });
      OSP_REQUIRE(alloc[l] <= q.size());
      for (std::size_t i = 0; i < alloc[l]; ++i) {
        const QueuedPacket& p = q[i];
        ++served_per_frame[p.frame];
        ++t.served;
        t.serve_latency.add(slot - prep.arrival_slot[p.seq]);
        const std::size_t s = prep.stream_of[p.frame];
        --stream_live[s];
        last_served_slot[s] = slot;
        if (served_per_frame[p.frame] == prep.metas[p.frame].size)
          t.window_delivered[slot / spec.window] +=
              prep.metas[p.frame].weight;
        if (tracing)
          t.trace.push_back(ServeTrace::Served{slot, l, p.frame, p.seq});
      }
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(alloc[l]));
      if (tracing) t.slot_served[slot] = alloc[l];

      // Trim from the tail — (rank asc, seq desc), the evict-heap order.
      while (q.size() > spec.buffer) {
        const QueuedPacket worst = q.back();
        q.pop_back();
        ++t.dropped;
        ++t.evictions;
        t.drop_latency.add(slot - prep.arrival_slot[worst.seq]);
        --stream_live[prep.stream_of[worst.frame]];
        if (!spec.drop_dead_frames) continue;
        dead[worst.frame] = true;
        auto doomed = std::remove_if(q.begin(), q.end(),
                                     [&](const QueuedPacket& p) {
                                       return p.frame == worst.frame;
                                     });
        const std::size_t killed =
            static_cast<std::size_t>(q.end() - doomed);
        t.dropped += killed;
        t.cascade_drops += killed;
        stream_live[prep.stream_of[worst.frame]] -= killed;
        q.erase(doomed, q.end());
      }

      for (std::size_t s : link_streams[l])
        if (stream_live[s] > 0 && last_served_slot[s] != slot) ++starved[s];
    }
  }

  for (std::size_t l = 0; l < K; ++l) {
    tallies[l].leftover = queues[l].size();
    tallies[l].dropped += tallies[l].leftover;
  }

  return finalize(schedule, prep, served_per_frame, tallies,
                  std::move(starved), trace);
}

}  // namespace osp
