// osp_perfbench — the repository benchmark binary (perfbench/run.py builds
// and runs it; see perfbench/NOTES.md for the workloads and metrics).
//
//   osp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE] [--corrupt-reference]
//
// One process runs one workload closed-loop: one client, each operation
// starting when the previous one returns.  The run is split into rounds;
// every round sets the workload up from scratch (timed as setup_s) and
// then runs operations for seconds/rounds.  Every operation's output is
// compared with a reference computed once, untimed, by the library's
// independent reference path; a mismatch counts as a failed operation.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics: traced operations (policy/ranker decorators, spans) alternate
// with untraced ones, whose median gives the tracing overhead.  The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/policy_registry.hpp"
#include "api/ranker_registry.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "core/game.hpp"
#include "engine/batch_runner.hpp"
#include "engine/trial.hpp"
#include "host.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace api = osp::api;

// Threads an operation runs on: every runner and the serving runtime get
// one worker, so every operation runs on the calling thread.  At 2 threads,
// serve-steady's per-slot barrier made whole runs bimodal (1.2 s vs 3.1 s
// per op), beyond any bound the benchmark may set; pack-overload's one
// trial per op never starts a second runner thread anyway (see NOTES.md).
constexpr std::size_t kWorkers = 1;
// The gated timings come from the fast tail.  On a shared host, contention
// from outside the process only ever adds time to an operation, and it
// comes in stretches that cover a varying share of a run, so the median
// flips between a fast and a slow mode from run to run.  The fastest tenth
// of the operations, and of the throughput windows, tracks the program's
// own cost with the least outside delay.  The summary line still prints
// the op median and p90.
constexpr double kFastTailPercent = 10.0;
// items_per_s is taken over windows of consecutive operations holding at
// least this much operation time.
constexpr double kWindowSeconds = 1.0;

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// What one set-up round generated.
struct GenStats {
  double build_instance_s = 0.0;
  double build_video_s = 0.0;
  std::uint64_t incidences = 0;
  std::uint64_t packets = 0;
};

/// Router-layer outputs of one operation (net workloads).
struct NetCounts {
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  double goodput = 0.0;
};

struct OpOutcome {
  bool ok = false;
  double items = 0.0;  // elements (pack) or packets (net) the op processed
  NetCounts net;
};

/// One benchmark workload.  prepare() and a warm-up run() are set-up;
/// compute_reference() is untimed and runs once per process.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* item() const = 0;
  virtual GenStats prepare(std::uint64_t seed) = 0;
  virtual void compute_reference() = 0;
  /// Makes every expected output wrong: the output check's self-test.
  virtual void corrupt_reference() = 0;
  /// Number of distinct operations; operation j runs entry j % pool().
  virtual std::size_t pool() const = 0;
  virtual OpOutcome run(std::size_t entry, bool traced) = 0;
  /// Frees the inputs before the next round's set-up.
  virtual void release() = 0;
};

// ------------------------------------------------------------------ pack

/// Expected aggregates of one grid cell.
struct CellDigest {
  std::uint64_t trials = 0;
  double benefit_sum = 0.0;
  double decisions_sum = 0.0;
  std::uint64_t elements = 0;

  bool operator==(const CellDigest& o) const {
    return trials == o.trials && benefit_sum == o.benefit_sum &&
           decisions_sum == o.decisions_sum && elements == o.elements;
  }
};

/// Packing workloads: Session::run_grid on a one-worker BatchRunner over
/// instances of one engine-ladder shape.  Operation e runs every policy
/// for `trials` trials on draw e % draws under master seed seeds[e].
class PackWorkload final : public Workload {
 public:
  PackWorkload(std::string shape, std::vector<std::string> policy_names,
               int trials, std::size_t draws, std::size_t pool)
      : shape_(std::move(shape)),
        policy_names_(std::move(policy_names)),
        trials_(trials),
        draws_(draws),
        pool_(pool) {}

  const char* item() const override { return "element"; }
  std::size_t pool() const override { return pool_; }

  GenStats prepare(std::uint64_t seed) override {
    GenStats gen;
    const api::ScenarioSpec spec = ladder_cell(shape_);
    osp::Rng master(seed);
    for (std::size_t d = 0; d < draws_; ++d) {
      osp::Rng rng = master.split(d);
      const std::int64_t t0 = now_ns();
      instances_.push_back(api::build_instance(spec, rng));
      gen.build_instance_s += seconds_between(t0, now_ns());
      for (std::size_t u = 0; u < instances_.back().num_elements(); ++u)
        gen.incidences += instances_.back().load(u);
    }
    seeds_.clear();
    for (std::size_t e = 0; e < pool_; ++e)
      seeds_.push_back(master.split(1000 + e)());

    runner_ = std::make_unique<osp::engine::BatchRunner>(
        osp::engine::BatchOptions{kWorkers});
    session_ = std::make_unique<api::Session>(*runner_);
    columns_.clear();
    traced_columns_.clear();
    for (const std::string& name : policy_names_) {
      const api::PolicyInfo& info = api::policies().at(name);
      columns_.push_back(api::grid_column(info));
      api::PolicyFactory inner = info.make;
      traced_columns_.push_back(osp::engine::AlgSpec{
          info.name, [inner](osp::Rng rng) {
            Tracer::get().begin_trial();
            return std::unique_ptr<osp::OnlineAlgorithm>(
                std::make_unique<TracedPolicy>(inner(rng)));
          }});
    }
    return gen;
  }

  void compute_reference() override {
    // The flat per-element engine (play_flat), with the same per-trial
    // seeds run_grid derives, aggregated in the same trial order.
    reference_.assign(pool_, {});
    osp::PlayScratch scratch;
    for (std::size_t e = 0; e < pool_; ++e) {
      const osp::Instance& inst = instances_[e % draws_];
      for (std::size_t a = 0; a < columns_.size(); ++a) {
        osp::RunningStat benefit, decisions;
        for (int t = 0; t < trials_; ++t) {
          auto policy = columns_[a].make(osp::Rng(osp::engine::trial_seed(
              seeds_[e], 0, a, static_cast<std::uint64_t>(t))));
          const osp::Outcome out = osp::play_flat(inst, *policy, scratch);
          // Unit weights: the benefit digest also pins the completed count.
          if (out.benefit != static_cast<double>(out.completed.size()))
            throw std::runtime_error("reference: benefit != completed on a "
                                     "unit-weight instance");
          benefit.add(out.benefit);
          decisions.add(static_cast<double>(out.decisions));
        }
        reference_[e].push_back(CellDigest{
            benefit.count(), benefit.sum(), decisions.sum(),
            inst.num_elements() * static_cast<std::uint64_t>(trials_)});
      }
    }
  }

  void corrupt_reference() override {
    for (auto& cells : reference_)
      for (CellDigest& c : cells) c.benefit_sum += 1.0;
  }

  OpOutcome run(std::size_t entry, bool traced) override {
    osp::engine::GridSpec spec;
    spec.instances = {&instances_[entry % draws_]};
    spec.algorithms = traced ? traced_columns_ : columns_;
    spec.trials = trials_;
    spec.master_seed = seeds_[entry];
    const std::vector<osp::engine::CellStats> cells =
        session_->run_grid(spec);
    OpOutcome out;
    out.ok = cells.size() == reference_[entry].size();
    for (std::size_t c = 0; c < cells.size() && out.ok; ++c) {
      const CellDigest got{cells[c].benefit.count(), cells[c].benefit.sum(),
                           cells[c].decisions.sum(), cells[c].elements};
      out.ok = got == reference_[entry][c];
    }
    for (const auto& cell : cells)
      out.items += static_cast<double>(cell.elements);
    return out;
  }

  void release() override {
    session_.reset();
    runner_.reset();
    instances_.clear();
    instances_.shrink_to_fit();
  }

 private:
  static api::ScenarioSpec ladder_cell(const std::string& label) {
    for (const api::ScenarioSpec& cell :
         api::expand(api::scenarios().at("engine/ladder")))
      if (cell.display_label() == label) return cell;
    throw std::runtime_error("engine/ladder has no cell '" + label + "'");
  }

  std::string shape_;
  std::vector<std::string> policy_names_;
  int trials_;
  std::size_t draws_;
  std::size_t pool_;

  std::vector<osp::Instance> instances_;
  std::vector<std::uint64_t> seeds_;
  std::unique_ptr<osp::engine::BatchRunner> runner_;
  std::unique_ptr<api::Session> session_;
  std::vector<osp::engine::AlgSpec> columns_;
  std::vector<osp::engine::AlgSpec> traced_columns_;
  std::vector<std::vector<CellDigest>> reference_;
};

// ------------------------------------------------------------------- net

bool same_stats(const osp::RouterStats& a, const osp::RouterStats& b) {
  return a.packets_arrived == b.packets_arrived &&
         a.packets_served == b.packets_served &&
         a.packets_dropped == b.packets_dropped &&
         a.frames_total == b.frames_total &&
         a.frames_delivered == b.frames_delivered &&
         a.value_total == b.value_total &&
         a.value_delivered == b.value_delivered;
}

NetCounts net_counts(const osp::RouterStats& st) {
  return NetCounts{st.packets_served, st.packets_dropped, st.goodput()};
}

/// Common part of the video workloads: one workload draw and a randPr
/// ranker reseeded to the same stream before every operation.
class VideoWorkloadBase : public Workload {
 public:
  const char* item() const override { return "packet"; }
  std::size_t pool() const override { return 1; }

  void release() override {
    video_ = osp::VideoWorkload{};
    ranker_.reset();
    traced_.reset();
  }

 protected:
  explicit VideoWorkloadBase(api::ScenarioSpec spec) : spec_(std::move(spec)) {}

  GenStats prepare_video(std::uint64_t seed) {
    GenStats gen;
    osp::Rng master(seed);
    osp::Rng wl = master.split(0);
    const std::int64_t t0 = now_ns();
    video_ = api::build_video(spec_, wl);
    gen.build_video_s = seconds_between(t0, now_ns());
    gen.packets = video_.schedule.total_packets();
    ranker_seed_ = master.split(1);
    ranker_ = api::rankers().make("randPr", ranker_seed_);
    traced_ = std::make_unique<TracedRanker>(*ranker_);
    return gen;
  }

  /// The ranker an operation uses, re-armed to the run's stream.
  osp::FrameRanker& armed_ranker(bool traced) {
    ranker_->reseed(ranker_seed_);
    return traced ? static_cast<osp::FrameRanker&>(*traced_) : *ranker_;
  }

  api::ScenarioSpec spec_;
  osp::VideoWorkload video_;
  osp::Rng ranker_seed_;
  std::unique_ptr<osp::FrameRanker> ranker_;
  std::unique_ptr<TracedRanker> traced_;
};

/// sustained/steady through serve_sustained, slot loop inline.
class ServeWorkload final : public VideoWorkloadBase {
 public:
  ServeWorkload() : VideoWorkloadBase(api::scenarios().at("sustained/steady")) {
    serve_.links = spec_.links;
    serve_.service_rate = spec_.service_rate;
    serve_.buffer = spec_.buffer;
    serve_.work_conserving = true;
    serve_.drop_dead_frames = true;
    serve_.workers = kWorkers;
    serve_.window = spec_.window;
  }

  GenStats prepare(std::uint64_t seed) override { return prepare_video(seed); }

  void compute_reference() override {
    reference_ = osp::serve_sustained_reference(
        video_.schedule, video_.stream_of, armed_ranker(false), serve_);
  }

  void corrupt_reference() override { ++reference_.router.packets_served; }

  OpOutcome run(std::size_t, bool traced) override {
    const osp::SustainedStats st = osp::serve_sustained(
        video_.schedule, video_.stream_of, armed_ranker(traced), serve_);
    return OpOutcome{st == reference_,
                     static_cast<double>(st.router.packets_arrived),
                     net_counts(st.router)};
  }

 private:
  osp::ServeSpec serve_;
  osp::SustainedStats reference_;
};

/// router/overload at buffer 1024 through the heap router, one thread.
class RouteWorkload final : public VideoWorkloadBase {
 public:
  RouteWorkload() : VideoWorkloadBase(overload_cell()) {
    params_.service_rate = spec_.service_rate;
    params_.buffer_size = spec_.buffer;
    params_.drop_dead_frames = true;
  }

  GenStats prepare(std::uint64_t seed) override {
    scratch_ = std::make_unique<osp::BufferedRouterScratch>();
    return prepare_video(seed);
  }

  void compute_reference() override {
    reference_ = osp::simulate_buffered_router_reference(
        video_.schedule, armed_ranker(false), params_);
  }

  void corrupt_reference() override { ++reference_.packets_served; }

  OpOutcome run(std::size_t, bool traced) override {
    const osp::RouterStats st = osp::simulate_buffered_router(
        video_.schedule, armed_ranker(traced), params_, scratch_.get());
    return OpOutcome{same_stats(st, reference_),
                     static_cast<double>(st.packets_arrived), net_counts(st)};
  }

  void release() override {
    VideoWorkloadBase::release();
    scratch_.reset();
  }

 private:
  static api::ScenarioSpec overload_cell() {
    for (const api::ScenarioSpec& cell :
         api::expand(api::scenarios().at("router/overload")))
      if (cell.buffer == 1024) return cell;
    throw std::runtime_error("router/overload has no buffer=1024 cell");
  }

  osp::BufferedRouterParams params_;
  std::unique_ptr<osp::BufferedRouterScratch> scratch_;
  osp::RouterStats reference_;
};

// -------------------------------------------------------------- run loop

/// The layer call one operation makes.
enum class OpLayer { kEngine, kServe, kRouter };

struct WorkloadInfo {
  const char* name;
  OpLayer layer;
  // Set-up rounds per run; setup_s is their median.  Workloads whose
  // set-up is cheap get more rounds, so their median is over more samples.
  int rounds;
  std::function<std::unique_ptr<Workload>()> make;
};

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> all = {
      {"pack-overload", OpLayer::kEngine, 3,
       [] {
         return std::make_unique<PackWorkload>(
             "overload/256k", std::vector<std::string>{"randpr"}, 1, 1, 8);
       }},
      {"serve-steady", OpLayer::kServe, 3,
       [] { return std::make_unique<ServeWorkload>(); }},
      {"route-overload", OpLayer::kRouter, 9,
       [] { return std::make_unique<RouteWorkload>(); }},
  };
  return all;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool corrupt = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "osp_perfbench: " << why
            << "\nusage: osp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--corrupt-reference]\n"
               "workloads:";
  for (const WorkloadInfo& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || errno != 0 || *end != '\0')
    usage("flag " + flag + " needs a non-negative integer, got '" + text +
          "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seconds = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return o;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run_benchmark(const Options& opt) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads())
    if (opt.workload == w.name) info = &w;
  if (info == nullptr) usage("unknown workload '" + opt.workload + "'");

  const HostSample host0 = sample_host();
  std::unique_ptr<Workload> wl = info->make();
  const std::size_t pool = wl->pool();

  std::vector<double> setup_s, gen_instance_s, gen_video_s;
  double reference_s = 0.0;
  GenStats gen0;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> window_rates;
  double window_items = 0.0, window_s = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<OpLedger> ledgers;  // one per traced op, in order
  NetCounts net;                  // router outputs of the first traced op
  std::size_t op_index = 0;
  // A traced run alternates untraced and traced operations on the same
  // entry; it must cover every pool entry at least once traced so the
  // per-operation counts are a full cycle.
  const std::size_t min_ops = opt.trace ? 2 * pool : 1;

  const int rounds = info->rounds;
  for (int round = 0; round < rounds; ++round) {
    wl->release();
    const std::int64_t t0 = now_ns();
    const GenStats gen = wl->prepare(opt.seed);
    const std::int64_t t1 = now_ns();
    if (round == 0) {
      gen0 = gen;
      wl->compute_reference();
      if (opt.corrupt) wl->corrupt_reference();
      reference_s = seconds_between(t1, now_ns());
    }
    const std::int64_t t2 = now_ns();
    wl->run(0, false);  // warm-up: caches, lazy allocation, page faults
    const std::int64_t t3 = now_ns();
    setup_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
    gen_instance_s.push_back(gen.build_instance_s);
    gen_video_s.push_back(gen.build_video_s);

    const std::int64_t deadline =
        t3 + static_cast<std::int64_t>(opt.seconds / rounds * 1e9);
    std::size_t round_ops = 0;
    for (;;) {
      const bool last = round == rounds - 1;
      if (round_ops > 0 && now_ns() >= deadline &&
          (!last || op_index >= min_ops))
        break;
      const std::size_t entry =
          (opt.trace ? op_index / 2 : op_index) % pool;
      const bool traced = opt.trace && op_index % 2 == 1;
      if (traced) Tracer::get().begin_op();
      const std::int64_t a = now_ns();
      const OpOutcome out = wl->run(entry, traced);
      const std::int64_t b = now_ns();
      if (traced) {
        if (ledgers.empty()) net = out.net;
        ledgers.push_back(Tracer::get().end_op());
      }
      ++attempted;
      if (!out.ok) ++failed;
      const double ms = static_cast<double>(b - a) * 1e-6;
      (traced ? traced_ms : untraced_ms).push_back(ms);
      if (!traced) {
        window_items += out.items;
        window_s += ms * 1e-3;
        if (window_s >= kWindowSeconds) {
          window_rates.push_back(window_items / window_s);
          window_items = window_s = 0.0;
        }
      }
      ++op_index;
      ++round_ops;
    }
  }
  const HostSample host1 = sample_host();

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_p10_ms", percentile(untraced_ms, kFastTailPercent), "ms"},
        {"items_per_s",
         percentile(window_rates.empty()
                        ? std::vector<double>{window_items / window_s}
                        : window_rates,
                    100.0 - kFastTailPercent),
         "item/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Means per traced operation; counts over the first full pool cycle,
    // which repeat exactly for a given seed.
    const double n = static_cast<double>(ledgers.size());
    OpLedger sum, cycle;
    double imbalance = 0.0;
    for (std::size_t i = 0; i < ledgers.size(); ++i) {
      const OpLedger& l = ledgers[i];
      sum.wall_ns += l.wall_ns;
      sum.trial_ns += l.trial_ns;
      sum.start_ns += l.start_ns;
      sum.decide_ns += l.decide_ns;
      sum.ranker_start_ns += l.ranker_start_ns;
      if (l.trial_ns > 0)
        imbalance += static_cast<double>(l.max_lane_busy_ns) *
                     static_cast<double>(kWorkers) /
                     static_cast<double>(l.trial_ns);
      if (i < pool) {
        cycle.trials += l.trials;
        cycle.decisions += l.decisions;
        cycle.blocks += l.blocks;
        cycle.rank_calls += l.rank_calls;
      }
    }
    const double p = static_cast<double>(pool);
    const double op_s = static_cast<double>(sum.wall_ns) * 1e-9 / n;
    const double self_s =
        op_s - static_cast<double>(sum.ranker_start_ns) * 1e-9 / n;
    metrics = {
        {"gen.build_instance_s", median(gen_instance_s), "s"},
        {"gen.incidences", static_cast<double>(gen0.incidences), "count"},
        {"gen.build_video_s", median(gen_video_s), "s"},
        {"gen.packets", static_cast<double>(gen0.packets), "count"},
        {"core.start_ms", static_cast<double>(sum.start_ns) * 1e-6 / n, "ms"},
        {"core.decide_batch_ms", static_cast<double>(sum.decide_ns) * 1e-6 / n,
         "ms"},
        {"core.play_other_ms",
         static_cast<double>(sum.trial_ns - sum.start_ns - sum.decide_ns) *
             1e-6 / n,
         "ms"},
        {"core.decisions", static_cast<double>(cycle.decisions) / p, "count"},
        {"core.blocks", static_cast<double>(cycle.blocks) / p, "count"},
        {"engine.trials", static_cast<double>(cycle.trials) / p, "count"},
        {"engine.busy_s", static_cast<double>(sum.trial_ns) * 1e-9 / n, "s"},
        {"engine.idle_share",
         info->layer == OpLayer::kEngine
             ? 1.0 - static_cast<double>(sum.trial_ns) /
                         (static_cast<double>(sum.wall_ns) *
                          static_cast<double>(kWorkers))
             : 0.0,
         "share"},
        {"engine.imbalance", imbalance / n, "ratio"},
        {"net.serve_s",
         info->layer == OpLayer::kServe ? self_s : 0.0, "s"},
        {"net.router_s",
         info->layer == OpLayer::kRouter ? self_s : 0.0, "s"},
        {"net.ranker_start_ms",
         static_cast<double>(sum.ranker_start_ns) * 1e-6 / n, "ms"},
        {"net.rank_calls", static_cast<double>(cycle.rank_calls) / p,
         "count"},
        {"net.served", static_cast<double>(net.served), "count"},
        {"net.dropped", static_cast<double>(net.dropped), "count"},
        {"net.goodput", net.goodput, "share"},
        {"trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0,
         "share"},
        {"host.steal_ticks",
         static_cast<double>(host1.steal_ticks - host0.steal_ticks), "count"},
        {"host.loadavg", host1.loadavg_1m, "load"},
    };
    if (!opt.spans_path.empty()) {
      std::ofstream out(opt.spans_path);
      Tracer::get().write(out);
      if (!out) throw std::runtime_error("cannot write " + opt.spans_path);
    }
  }

  const std::vector<double>& timed = opt.trace ? traced_ms : untraced_ms;
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  std::cout << "manifest {\"workload\": \"" << info->name
            << "\", \"seed\": " << opt.seed << ", \"seconds\": "
            << num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"item\": \"" << wl->item() << "\", \"workers\": "
            << kWorkers << ", \"rounds\": " << rounds
            << ", \"nproc\": " << online_cpus() << ", \"cpu_model\": \""
            << json_escape(cpu_model()) << "\", \"compiler\": \""
            << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"source\": \""
            << json_escape(source ? source : "unknown")
            << "\", \"steal_ticks\": "
            << host1.steal_ticks - host0.steal_ticks
            << ", \"loadavg_start\": " << num(host0.loadavg_1m)
            << ", \"loadavg_end\": " << num(host1.loadavg_1m) << "}\n";
  std::cout << "summary {\"ops\": " << timed.size()
            << ", \"op_p10_ms\": " << num(percentile(timed, 10))
            << ", \"op_p50_ms\": " << num(median(timed))
            << ", \"op_p90_ms\": " << num(percentile(timed, 90))
            << ", \"op_error_rate\": "
            << num(static_cast<double>(failed) / static_cast<double>(attempted))
            << ", \"reference_s\": " << num(reference_s)
            << ", \"setup_rounds_s\": [";
  for (std::size_t r = 0; r < setup_s.size(); ++r)
    std::cout << (r ? ", " : "") << num(setup_s[r]);
  std::cout << "]}\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_benchmark(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "osp_perfbench: " << e.what() << '\n';
    return 1;
  }
}
