// E9 — engineering throughput benchmarks for the flat engine.
//
// Not a paper exhibit: measures the elements/sec of the decision path and
// tracks the engine refactors' gains from PR 1 on.  Four modes per
// workload:
//   seed  — the seed repo's engine AND algorithm, replicated verbatim:
//           randPr's on_element() allocating a candidate-pool copy plus a
//           partial_sort working copy and returning a heap vector per
//           arrival, the engine validating with check_answer()'s copy +
//           sort, arrivals pre-materialized as vectors (the seed stored
//           them that way, so its loop did not pay for the conversion and
//           this one must not either);
//   flat  — play_flat(): CSR candidate spans, decide() into a reusable
//           buffer, allocation-free validation, single thread;
//   block — play_flat_blocks(): decide_batch() over whole CSR arrival
//           blocks (one virtual call per block, SoA selection kernel),
//           single thread;
//   batch — the same block-stepped trials fanned across the BatchRunner's
//           workers.
//
// The block mode runs on whatever ISA tier the runtime dispatcher picked
// (OSP_FORCE_ISA included) and every row records it in the "isa" field;
// a fifth measurement pins the dispatcher to the scalar tier so the
// per-row "simd_vs_scalar" factor isolates the vector kernel's gain from
// the batching gain.  `bench_perf --isa-sweep` instead measures the block
// mode once per AVAILABLE ISA over the same ladder and writes one row per
// shape x tier to BENCH_engine_isa.json, so the perf trajectory records
// scalar vs vector per shape rather than one aggregate number.
//
// Per-trial Rng streams are identical across modes and every trial's
// outcome is checksummed, so the modes (and the ISA tiers) are proven to
// compute the same thing.  Results go to stdout and BENCH_engine.json;
// the acceptance targets on the largest workload are batch >= 5x seed
// (the flat gain times the worker count — on a single-core container the
// second factor is 1x, which the JSON records via "threads") and block
// >= 1.3x flat single-thread (the decide_batch amortization gate,
// checked per row with per-workload floors by check_bench_json.py).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/cpu_features.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "engine/batch_runner.hpp"
#include "gen/random_instances.hpp"
#include "testing/seed_reference.hpp"
#include "util/require.hpp"

namespace osp {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ModeResult {
  double elements_per_sec = 0;
  double checksum = 0;  // summed benefit, to defeat dead-code elimination
};

struct WorkloadResult {
  std::string label;
  std::size_t m = 0;
  std::size_t n = 0;
  int trials = 0;
  ModeResult seed, flat, block, block_scalar, batch;
};

// Number of interleaved measurement passes per workload.  Each pass times
// every mode once and a mode's reported throughput is its best pass:
// peak-of-N is the standard estimator on shared/noisy hosts, and
// interleaving the modes means transient interference (another container
// on the box, a frequency dip) cannot systematically bias one mode's
// ratio against another's.
constexpr int kPasses = 3;

WorkloadResult measure_workload(const std::string& label, std::size_t m,
                                std::size_t n, std::size_t k) {
  WorkloadResult r;
  r.label = label;
  r.m = m;
  Rng gen(42);
  Instance inst = random_instance(m, n, k, WeightModel::unit(), gen);
  r.n = inst.num_elements();
  // Enough trials that the seed path runs a few hundred ms.
  r.trials = static_cast<int>(
      std::max<std::size_t>(6, 1'500'000 / std::max<std::size_t>(r.n, 1)));

  const std::vector<seedref::Arrival> arrivals =
      seedref::materialize_arrivals(inst);

  Rng master(1);
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(r.trials));
  for (int t = 0; t < r.trials; ++t)
    rngs.push_back(master.split(static_cast<std::uint64_t>(t)));

  const double total_elements =
      static_cast<double>(r.n) * static_cast<double>(r.trials);

  PlayScratch flat_scratch, block_scratch;
  for (int pass = 0; pass < kPasses; ++pass) {
    double seed_sum = 0, flat_sum = 0, block_sum = 0, batch_sum = 0;

    {  // seed mode: original algorithm + original engine
      auto t0 = Clock::now();
      for (int t = 0; t < r.trials; ++t) {
        seedref::SeedRandPr alg(rngs[static_cast<std::size_t>(t)]);
        seed_sum += seedref::seed_play(inst, alg, arrivals).benefit;
      }
      r.seed.elements_per_sec = std::max(r.seed.elements_per_sec,
                                         total_elements / seconds_since(t0));
    }

    {  // flat mode, single thread: decide() per element
      auto t0 = Clock::now();
      for (int t = 0; t < r.trials; ++t) {
        RandPr alg(rngs[static_cast<std::size_t>(t)]);
        flat_sum += play_flat(inst, alg, flat_scratch).benefit;
      }
      r.flat.elements_per_sec = std::max(r.flat.elements_per_sec,
                                         total_elements / seconds_since(t0));
    }

    {  // block mode, single thread: decide_batch() per arrival block,
       // on the ISA the runtime dispatcher selected
      auto t0 = Clock::now();
      for (int t = 0; t < r.trials; ++t) {
        RandPr alg(rngs[static_cast<std::size_t>(t)]);
        block_sum += play_flat_blocks(inst, alg, block_scratch).benefit;
      }
      r.block.elements_per_sec = std::max(r.block.elements_per_sec,
                                          total_elements / seconds_since(t0));
    }

    double block_scalar_sum = 0;
    {  // block mode pinned to the scalar tier: the simd_vs_scalar baseline
      simd::set_active_isa(simd::Isa::kScalar);
      auto t0 = Clock::now();
      for (int t = 0; t < r.trials; ++t) {
        RandPr alg(rngs[static_cast<std::size_t>(t)]);
        block_scalar_sum +=
            play_flat_blocks(inst, alg, block_scratch).benefit;
      }
      r.block_scalar.elements_per_sec =
          std::max(r.block_scalar.elements_per_sec,
                   total_elements / seconds_since(t0));
      simd::refresh_active_isa();  // restore auto/forced selection
    }

    {  // batch mode: block-stepped trials across all workers
      auto t0 = Clock::now();
      auto benefits = engine::shared_runner().map<Weight>(
          static_cast<std::size_t>(r.trials),
          [&](std::size_t t, engine::TrialContext& ctx) {
            RandPr alg(rngs[t]);
            return play_flat_blocks(inst, alg, ctx.scratch).benefit;
          });
      r.batch.elements_per_sec = std::max(r.batch.elements_per_sec,
                                          total_elements / seconds_since(t0));
      for (Weight b : benefits) batch_sum += b;
    }

    // All modes — the scalar-pinned tier included — must agree on every
    // trial's outcome, in every pass.
    OSP_REQUIRE(seed_sum == flat_sum);
    OSP_REQUIRE(seed_sum == block_sum);
    OSP_REQUIRE(seed_sum == block_scalar_sum);
    OSP_REQUIRE(seed_sum == batch_sum);
    r.seed.checksum = seed_sum;
    r.flat.checksum = flat_sum;
    r.block.checksum = block_sum;
    r.block_scalar.checksum = block_scalar_sum;
    r.batch.checksum = batch_sum;
  }
  return r;
}

std::string fmt_meps(double eps) { return fmt(eps / 1e6, 2) + "M"; }

/// --isa-sweep: block-mode throughput of every available ISA tier over
/// the same ladder, one BENCH_engine_isa.json row per shape x tier.
/// Checksums must match across tiers — the decision-equivalence contract,
/// re-proven on the bench workloads themselves.
int run_isa_sweep() {
  using namespace osp;
  bench::banner(
      "E9b / block kernel throughput per ISA tier",
      "Elements/sec of block-batched randPr trials with the dispatcher "
      "pinned to each ISA the CPU can run.  vs_scalar isolates the "
      "vector kernel's gain; checksums prove every tier decides "
      "identically.");

  const std::vector<simd::Isa> isas = simd::available_isas();
  Table table({"workload", "m", "n", "trials", "isa", "block el/s",
               "vs scalar"});
  api::JsonSink json("engine_isa", bench::session().threads());

  for (const api::ScenarioSpec& s : api::engine_shapes()) {
    Rng gen(42);
    Instance inst = random_instance(s.m, s.n, s.k, WeightModel::unit(), gen);
    const std::size_t n = inst.num_elements();
    const int trials = static_cast<int>(
        std::max<std::size_t>(6, 1'500'000 / std::max<std::size_t>(n, 1)));
    Rng master(1);
    std::vector<Rng> rngs;
    for (int t = 0; t < trials; ++t)
      rngs.push_back(master.split(static_cast<std::uint64_t>(t)));
    const double total_elements =
        static_cast<double>(n) * static_cast<double>(trials);

    PlayScratch scratch;
    double scalar_eps = 0;
    double ref_checksum = 0;
    for (simd::Isa isa : isas) {
      simd::set_active_isa(isa);
      double eps = 0;
      double checksum = 0;
      for (int pass = 0; pass < kPasses; ++pass) {
        checksum = 0;
        auto t0 = Clock::now();
        for (int t = 0; t < trials; ++t) {
          RandPr alg(rngs[static_cast<std::size_t>(t)]);
          checksum += play_flat_blocks(inst, alg, scratch).benefit;
        }
        eps = std::max(eps, total_elements / seconds_since(t0));
      }
      if (isa == simd::Isa::kScalar) {
        scalar_eps = eps;
        ref_checksum = checksum;
      }
      OSP_REQUIRE_MSG(checksum == ref_checksum,
                      "ISA " << simd::isa_name(isa)
                             << " diverged from the scalar tier");
      const double vs_scalar = eps / scalar_eps;
      table.row({s.display_label(), fmt(s.m), fmt(n), fmt(trials),
                 simd::isa_name(isa), fmt_meps(eps), fmt_ratio(vs_scalar)});
      json.write(api::Row{}
                     .add("workload", s.display_label())
                     .add("m", s.m)
                     .add("n", n)
                     .add("trials", trials)
                     .add("isa", simd::isa_name(isa))
                     .add("block_elements_per_sec", eps)
                     .add("vs_scalar", vs_scalar)
                     .add("cross_check", "pass"));
    }
    simd::refresh_active_isa();
  }
  table.print(std::cout);
  json.close();
  std::cerr << "wrote BENCH_engine_isa.json\n";
  return 0;
}

}  // namespace
}  // namespace osp

int main(int argc, char** argv) {
  using namespace osp;
  if (argc > 1 && std::strcmp(argv[1], "--isa-sweep") == 0)
    return run_isa_sweep();
  bench::banner(
      "E9 / engine throughput (flat + block engines vs seed engine)",
      "Elements/sec of randPr trials: seed on_element path vs the "
      "allocation-free CSR decide path vs the block-batched decide_batch "
      "path vs the multi-threaded batch runner.  Checksums verify all "
      "modes produce identical outcomes.");

  const std::size_t threads = engine::shared_runner().num_threads();
  std::cout << "batch runner threads: " << threads << "\n"
            << "block kernel isa: " << simd::isa_selection_note() << "\n\n";

  Table table({"workload", "m", "n", "trials", "seed el/s", "flat el/s",
               "block el/s", "batch el/s", "flat/seed", "block/flat",
               "simd/scalar", "batch/seed"});
  api::JsonSink json("engine", bench::session().threads());

  WorkloadResult largest;
  // The ladder is the expansion of the "engine/ladder" zipped sweep; the
  // cell labels key the BENCH_engine.json perf trajectory.
  for (const api::ScenarioSpec& s : api::engine_shapes()) {
    WorkloadResult r =
        measure_workload(s.display_label(), s.m, s.n, s.k);
    largest = r;
    double flat_speedup = r.flat.elements_per_sec / r.seed.elements_per_sec;
    double block_speedup =
        r.block.elements_per_sec / r.seed.elements_per_sec;
    double block_vs_flat =
        r.block.elements_per_sec / r.flat.elements_per_sec;
    double simd_vs_scalar =
        r.block.elements_per_sec / r.block_scalar.elements_per_sec;
    double batch_speedup = r.batch.elements_per_sec / r.seed.elements_per_sec;
    table.row({r.label, fmt(r.m), fmt(r.n), fmt(r.trials),
               fmt_meps(r.seed.elements_per_sec),
               fmt_meps(r.flat.elements_per_sec),
               fmt_meps(r.block.elements_per_sec),
               fmt_meps(r.batch.elements_per_sec),
               fmt_ratio(flat_speedup), fmt_ratio(block_vs_flat),
               fmt_ratio(simd_vs_scalar), fmt_ratio(batch_speedup)});
    json.write(api::Row{}
                   .add("workload", r.label)
                   .add("m", r.m)
                   .add("n", r.n)
                   .add("trials", r.trials)
                   .add("isa", simd::active_isa_name())
                   .add("seed_elements_per_sec", r.seed.elements_per_sec)
                   .add("flat_elements_per_sec", r.flat.elements_per_sec)
                   .add("block_elements_per_sec", r.block.elements_per_sec)
                   .add("block_scalar_elements_per_sec",
                        r.block_scalar.elements_per_sec)
                   .add("batch_elements_per_sec", r.batch.elements_per_sec)
                   .add("flat_speedup", flat_speedup)
                   .add("block_speedup", block_speedup)
                   .add("block_vs_flat", block_vs_flat)
                   .add("simd_vs_scalar", simd_vs_scalar)
                   .add("batch_speedup", batch_speedup));
  }
  table.print(std::cout);

  const double final_speedup =
      largest.batch.elements_per_sec / largest.seed.elements_per_sec;
  const double final_block_vs_flat =
      largest.block.elements_per_sec / largest.flat.elements_per_sec;
  const double final_simd_vs_scalar =
      largest.block.elements_per_sec / largest.block_scalar.elements_per_sec;
  std::cout << "\nlargest workload (" << largest.label
            << "): batch engine is " << fmt_ratio(final_speedup)
            << " the seed path ("
            << fmt_meps(largest.batch.elements_per_sec) << " vs "
            << fmt_meps(largest.seed.elements_per_sec)
            << " elements/sec) on " << threads
            << " worker(s); target >= 5x: "
            << (final_speedup >= 5.0 ? "MET" : "NOT MET") << "\n";
  std::cout << "largest workload block path: " << fmt_ratio(final_block_vs_flat)
            << " the flat path single-thread ("
            << fmt_meps(largest.block.elements_per_sec) << " vs "
            << fmt_meps(largest.flat.elements_per_sec)
            << " elements/sec); target >= 1.3x: "
            << (final_block_vs_flat >= 1.3 ? "MET" : "NOT MET") << "\n";
  std::cout << "largest workload " << simd::active_isa_name()
            << " kernel vs scalar tier: " << fmt_ratio(final_simd_vs_scalar)
            << " (" << fmt_meps(largest.block.elements_per_sec) << " vs "
            << fmt_meps(largest.block_scalar.elements_per_sec)
            << " elements/sec)\n";
  if (threads == 1 && final_speedup < 5.0)
    std::cout << "note: single hardware thread — the batch multiplier is "
                 "1x here; the flat/seed column is the per-core gain and "
                 "multiplies by the worker count on multi-core hosts.\n";

  json.write(
      api::Row{}
          .add("workload", "largest_summary")
          .add("label", largest.label)
          .add("m", largest.m)
          .add("n", largest.n)
          .add("threads", threads)
          .add("isa", simd::active_isa_name())
          .add("simd_vs_scalar", final_simd_vs_scalar)
          .add("flat_speedup_vs_seed",
               largest.flat.elements_per_sec / largest.seed.elements_per_sec)
          .add("block_speedup_vs_seed",
               largest.block.elements_per_sec / largest.seed.elements_per_sec)
          .add("block_vs_flat", final_block_vs_flat)
          .add("speedup_vs_seed", final_speedup)
          .add("target_5x_met", final_speedup >= 5.0)
          .add("block_target_1p3x_met", final_block_vs_flat >= 1.3));
  json.close();
  return 0;
}
