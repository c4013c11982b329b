#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kTrial: return "engine.trial";
    case SpanKind::kStart: return "core.start";
    case SpanKind::kDecideBatch: return "core.decide_batch";
    case SpanKind::kRankerStart: return "net.ranker_start";
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Lane& Tracer::lane() {
  thread_local Lane* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    Lane& fresh = lanes_.emplace_back();
    fresh.index = static_cast<std::uint32_t>(lanes_.size() - 1);
    mine = &fresh;
  }
  return *mine;
}

std::uint64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::begin_op() {
  ++op_;
  op_id_ = next_id();
  op_t0_ = now_ns();
}

void Tracer::close_trial(Lane& lane) {
  if (!lane.trial_open) return;
  lane.trial_open = false;
  // A trial whose policy never decided (empty instance) ends where it began.
  const std::int64_t t1 = std::max(lane.trial_t0, lane.trial_last_end);
  lane.spans.push_back(Span{lane.trial_t0, t1, op_, op_id_, lane.trial_id,
                            lane.index, SpanKind::kTrial});
}

OpLedger Tracer::end_op() {
  const std::int64_t t1 = now_ns();
  Lane& own = lane();
  own.spans.push_back(
      Span{op_t0_, t1, op_, 0, op_id_, own.index, SpanKind::kOp});

  OpLedger ledger;
  ledger.wall_ns = t1 - op_t0_;
  OpLedger totals;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Lane& l : lanes_) {
    close_trial(l);
    std::int64_t busy = 0;
    for (; l.scanned < l.spans.size(); ++l.scanned) {
      const Span& s = l.spans[l.scanned];
      const std::int64_t d = s.t1_ns - s.t0_ns;
      switch (s.kind) {
        case SpanKind::kTrial:
          busy += d;
          ++ledger.trials;
          break;
        case SpanKind::kStart: ledger.start_ns += d; break;
        case SpanKind::kDecideBatch: ledger.decide_ns += d; break;
        case SpanKind::kRankerStart: ledger.ranker_start_ns += d; break;
        case SpanKind::kOp: break;
      }
    }
    ledger.trial_ns += busy;
    ledger.max_lane_busy_ns = std::max(ledger.max_lane_busy_ns, busy);
    if (op_ <= kKeptOps) {
      l.kept = l.spans.size();
    } else {
      l.spans.resize(l.kept);
      l.scanned = l.kept;
    }
    totals.decisions += l.decisions;
    totals.blocks += l.blocks;
    totals.rank_calls += l.rank_calls;
  }
  ledger.decisions = totals.decisions - totals_.decisions;
  ledger.blocks = totals.blocks - totals_.blocks;
  ledger.rank_calls = totals.rank_calls - totals_.rank_calls;
  totals_ = totals;
  return ledger;
}

void Tracer::begin_trial() {
  Lane& l = lane();
  close_trial(l);
  l.trial_open = true;
  l.trial_id = next_id();
  l.trial_t0 = now_ns();
  l.trial_last_end = l.trial_t0;
}

void Tracer::write(std::ostream& out) const {
  out << "# span\tid\tparent\top\tlane\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans)
      out << span_name(s.kind) << '\t' << s.id << '\t' << s.parent << '\t'
          << s.op << '\t' << s.lane << '\t' << s.t0_ns << '\t' << s.t1_ns
          << '\n';
}

ScopedSpan::ScopedSpan(SpanKind kind) : lane_(Tracer::get().lane()) {
  Tracer& tracer = Tracer::get();
  span_.kind = kind;
  span_.lane = lane_.index;
  span_.op = tracer.current_op();
  span_.id = tracer.next_id();
  span_.t0_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.t1_ns = now_ns();
  // Parent: the lane's open trial, else the operation itself.
  span_.parent =
      lane_.trial_open ? lane_.trial_id : Tracer::get().current_op_span();
  lane_.trial_last_end = span_.t1_ns;
  lane_.spans.push_back(span_);
}

void TracedPolicy::start(const std::vector<osp::SetMeta>& sets) {
  ScopedSpan span(SpanKind::kStart);
  inner_->start(sets);
}

void TracedPolicy::reseed(osp::Rng rng) {
  Tracer::get().begin_trial();
  inner_->reseed(rng);
}

void TracedPolicy::decide_batch(const osp::ArrivalBlock& block,
                                osp::BlockScratch& scratch,
                                osp::BlockChoices& out) {
  {
    ScopedSpan span(SpanKind::kDecideBatch);
    inner_->decide_batch(block, scratch, out);
  }
  Lane& l = Tracer::get().lane();
  l.decisions += out.offsets[block.count];
  ++l.blocks;
}

void TracedRanker::start(const std::vector<osp::SetMeta>& frames) {
  ScopedSpan span(SpanKind::kRankerStart);
  inner_.start(frames);
}

double TracedRanker::rank(osp::SetId frame) const {
  ++Tracer::get().lane().rank_calls;
  return inner_.rank(frame);
}

}  // namespace perfbench
