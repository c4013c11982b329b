// E2/E3/E8 — randPr's competitive ratio against the paper's bounds, and
// what each ingredient of randPr buys:
//   Theorem 1 + Corollary 6 (random instances):
//                                            ratio <= Thm1 <= kmax·sqrt(σmax)
//   Theorem 5   (uniform set size k):        ratio <= k·avg(σ²)/avg(σ)²
//   Theorem 6   (uniform load σ):            ratio <= k̄·sqrt(σ)
//   Corollary 7 (uniform size AND load):     ratio <= k  (σ-independent!)
//   Ablations: R_w vs uniform priorities, persistent vs fresh-per-element
//   priorities, filtering dead sets, and hashed priorities (Section 3.1)
//   against true randomness.
//
// The Corollary 7 table is the paper's headline special case: on
// bi-regular instances the measured ratio must stay near/below k and stay
// FLAT as σ grows, while the general bound kmax·sqrt(σmax) keeps rising.
// Every row lands in BENCH_uniform.json, and scripts/check_bench_json.py
// gates each sweep's claim (check_uniform).
#include <functional>
#include <iostream>

#include "algos/offline.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"

namespace osp {
namespace {

void corollary7_sweep(osp::api::JsonSink& json) {
  std::cout << "-- Corollary 7: bi-regular instances, k = 3 fixed, sigma "
               "rising --\n";
  Table table({"m", "k", "sigma", "opt", "E[alg]", "ratio", "Cor7 bound(k)",
               "Cor6 bound"});
  Rng master(31337);
  // The swept (m, sigma) cells live in the scenario catalog; the Rng
  // split keys below derive from the cell values, so the declarative
  // sweep reproduces the historical loop's streams bit for bit.
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/corollary7"))) {
    const int trials = cell.default_trials;
    const std::size_t k = cell.k;
    const std::size_t sigma = cell.sigma;
    const std::size_t m = cell.m;
    Rng gen = master.split(sigma);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);

    Rng runs = master.split(100 + sigma);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    table.row({fmt(m), fmt(k), fmt(sigma), fmt(opt.value, 1),
               bench::fmt_mean_ci(alg), fmt_ratio(ratio),
               fmt(corollary7_bound(st), 1), fmt(corollary6_bound(st), 2)});
    json.write(api::Row{}
                   .add("sweep", "corollary7")
                   .add("m", m)
                   .add("k", k)
                   .add("sigma", sigma)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("alg_ci95", alg.ci95_halfwidth())
                   .add("ratio", ratio)
                   .add("cor7_bound", corollary7_bound(st))
                   .add("cor6_bound", corollary6_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio column stays flat near or below k=3 "
               "while Cor6 grows like sqrt(sigma).\n\n";
}

void theorem5_sweep(osp::api::JsonSink& json) {
  std::cout << "-- Theorem 5: uniform size k, loads vary (random "
               "instances) --\n";
  Table table({"m", "n", "k", "avg(s^2)/avg(s)^2", "opt", "E[alg]", "ratio",
               "Thm5 bound"});
  Rng master(999);
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/theorem5"))) {
    const int trials = cell.default_trials;
    const std::size_t k = cell.k;
    Rng gen = master.split(k);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);
    Rng runs = master.split(100 + k);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    double dispersion = st.sigma_sq_avg / (st.sigma_avg * st.sigma_avg);
    table.row({fmt(cell.m), fmt(inst.num_elements()), fmt(k),
               fmt(dispersion, 3), fmt(opt.value, 1),
               bench::fmt_mean_ci(alg), fmt_ratio(ratio),
               fmt(theorem5_bound(st), 2)});
    json.write(api::Row{}
                   .add("sweep", "theorem5")
                   .add("m", cell.m)
                   .add("n", inst.num_elements())
                   .add("k", k)
                   .add("dispersion", dispersion)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("ratio", ratio)
                   .add("thm5_bound", theorem5_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio below the Thm5 bound; bound scales "
               "with k times the load dispersion.\n\n";
}

void theorem6_sweep(osp::api::JsonSink& json) {
  std::cout << "-- Theorem 6: uniform load sigma, sizes vary --\n";
  Table table({"m", "n", "sigma", "kbar", "opt", "E[alg]", "ratio",
               "Thm6 bound"});
  Rng master(4242);
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/theorem6"))) {
    const int trials = cell.default_trials;
    const std::size_t sigma = cell.sigma;
    Rng gen = master.split(sigma);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);
    Rng runs = master.split(100 + sigma);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    table.row({fmt(cell.m), fmt(inst.num_elements()), fmt(sigma),
               fmt(st.k_avg, 2), fmt(opt.value, 1),
               bench::fmt_mean_ci(alg), fmt_ratio(ratio),
               fmt(theorem6_bound(st), 2)});
    json.write(api::Row{}
                   .add("sweep", "theorem6")
                   .add("m", cell.m)
                   .add("n", inst.num_elements())
                   .add("sigma", sigma)
                   .add("k_avg", st.k_avg)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("ratio", ratio)
                   .add("thm6_bound", theorem6_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio below kbar*sqrt(sigma), growing "
               "roughly with sqrt(sigma).\n\n";
}

void theorem1_sweep(osp::api::JsonSink& json, bool weighted) {
  std::cout << "-- Theorem 1 + Corollary 6: random instances, "
            << (weighted ? "weights U[1,8]" : "unweighted") << " --\n";
  Table table({"m", "n", "k", "smax", "opt", "E[alg]", "L4+L5 floor",
               "ratio", "Thm1 bound", "Cor6 bound"});
  Rng master(weighted ? 777 : 555);
  // The Rng split keys derive from the cell values (m*100+k, 909+m).  The
  // weighted pass overrides the weight model in place; the generator
  // consumes the same stream either way.
  for (api::ScenarioSpec cell :
       api::expand(api::scenarios().at("random/theorem1"))) {
    if (weighted) cell.weights = WeightModel::uniform(1, 8);
    const int trials = cell.default_trials;
    Rng gen = master.split(cell.m * 100 + cell.k);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);

    Rng runs = master.split(909 + cell.m);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    // max of the Lemma 4 and Lemma 5 lower bounds on E[alg]: the
    // intermediate quantities of the Theorem 1 proof.
    double floor = theorem1_benefit_floor(st, opt.value);
    table.row({fmt(cell.m), fmt(inst.num_elements()), fmt(cell.k),
               fmt(st.sigma_max), fmt(opt.value, 2),
               bench::fmt_mean_ci(alg), fmt(floor, 2), fmt_ratio(ratio),
               fmt(theorem1_bound(st), 2), fmt(corollary6_bound(st), 2)});
    json.write(api::Row{}
                   .add("sweep", "theorem1")
                   .add("weighted", weighted)
                   .add("m", cell.m)
                   .add("n", inst.num_elements())
                   .add("k", cell.k)
                   .add("sigma_max", st.sigma_max)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("alg_ci95", alg.ci95_halfwidth())
                   .add("ratio", ratio)
                   .add("l45_floor", floor)
                   .add("thm1_bound", theorem1_bound(st))
                   .add("cor6_bound", corollary6_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio <= Thm1 <= Cor6 and E[alg] above the "
               "L4+L5 floor everywhere; larger k or smax => larger "
               "ratio.\n\n";
}

// (a,b,c): each variant replays the paper variant's per-trial Rng
// streams (common random numbers), so vs_paper compares like with like
// and the paper row reads exactly 1.
void ablation_sweep(osp::api::JsonSink& json) {
  std::cout << "-- Ablations (a,b,c): priority rules on weighted inputs "
               "--\n";
  Table table({"weights", "variant", "E[benefit]", "vs paper"});
  Rng master(808);
  const api::ScenarioSpec& spec = api::scenarios().at("ablation/weights");
  const std::vector<api::ScenarioSpec> cells = api::expand(spec);
  struct Variant {
    const char* name;
    RandPrOptions options;
  };
  const Variant variants[] = {
      {"randPr (paper)", {}},
      {"uniform priorities", {.ignore_weights = true}},
      {"fresh per element", {.fresh_priorities_per_element = true}},
      {"filter dead sets", {.filter_dead = true}},
  };
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const std::string& weights = spec.sweep[0].values[ci][0];
    Rng gen = master.split(100 + ci);
    Instance inst = api::build_instance(cells[ci], gen);
    const Rng runs = master.split(2);
    double paper = 0;
    for (const Variant& v : variants) {
      Rng vruns = runs;
      RunningStat stat = bench::measure_randpr(
          inst, vruns, cells[ci].default_trials, v.options);
      if (&v == &variants[0]) paper = stat.mean();
      const double vs_paper = stat.mean() / paper;
      table.row({weights, v.name, bench::fmt_mean_ci(stat),
                 fmt(vs_paper, 3) + "x"});
      json.write(api::Row{}
                     .add("sweep", "ablation")
                     .add("weights", weights)
                     .add("variant", v.name)
                     .add("alg_mean", stat.mean())
                     .add("alg_ci95", stat.ci95_halfwidth())
                     .add("vs_paper", vs_paper));
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: uniform priorities lose on weighted "
               "inputs; fresh-per-element collapses; filtering dead sets "
               "never loses.\n\n";
}

// (d): Section 3.1's claim that any off-the-shelf hash family may stand
// in for true randomness.
void hash_sweep(osp::api::JsonSink& json) {
  std::cout << "-- Ablation (d): hashed priorities vs true randomness --\n";
  Table table({"source", "E[benefit]", "vs true-random"});
  Rng master(909);
  Rng gen = master.split(1);
  // The shape m=30, n=24, k=3, weights U[1,6] as a catalog "random" copy.
  api::ScenarioSpec shape = api::scenarios().at("random");
  shape.set("m", "30").set("n", "24").set("k", "3");
  shape.weights = WeightModel::uniform(1, 6);
  Instance inst = api::build_instance(shape, gen);
  const int trials = 800;

  auto emit = [&](const std::string& source, const RunningStat& stat,
                  double truth) {
    table.row({source, bench::fmt_mean_ci(stat),
               fmt(stat.mean() / truth, 3) + "x"});
    json.write(api::Row{}
                   .add("sweep", "hash")
                   .add("source", source)
                   .add("alg_mean", stat.mean())
                   .add("alg_ci95", stat.ci95_halfwidth())
                   .add("vs_true", stat.mean() / truth));
  };
  Rng runs = master.split(2);
  RunningStat truth = bench::measure_randpr(inst, runs, trials);
  emit("true random", truth, truth.mean());

  struct Maker {
    const char* name;
    std::function<std::unique_ptr<OnlineAlgorithm>(Rng&)> make;
  };
  for (const Maker& mk : {
           Maker{"poly 2-indep",
                 [](Rng& r) { return HashedRandPr::with_polynomial(2, r); }},
           Maker{"poly 4-indep",
                 [](Rng& r) { return HashedRandPr::with_polynomial(4, r); }},
           Maker{"poly 8-indep",
                 [](Rng& r) { return HashedRandPr::with_polynomial(8, r); }},
           Maker{"tabulation",
                 [](Rng& r) { return HashedRandPr::with_tabulation(r); }},
           Maker{"multiply-shift",
                 [](Rng& r) {
                   return HashedRandPr::with_multiply_shift(r);
                 }},
       }) {
    Rng hruns = master.split(3);
    RunningStat stat = bench::session().measure_serial(
        inst,
        [&](std::uint64_t t) {
          Rng r = hruns.split(t);
          return mk.make(r);
        },
        trials);
    emit(mk.name, stat, truth.mean());
  }
  table.print(std::cout);
  std::cout << "Expected shape: every family within noise of true "
               "randomness.\n";
}

}  // namespace
}  // namespace osp

int main() {
  osp::bench::banner(
      "E2/E3/E8 / Theorems 1, 5, 6, Corollaries 6, 7 and the ablations",
      "Refined bounds under uniform structure; the key signature is the "
      "sigma-INDEPENDENCE of the ratio for uniform size+load (Cor 7).  "
      "Then Theorem 1 on random instances (opt is exact, branch & bound) "
      "and what each ingredient of randPr buys.");
  osp::api::JsonSink json("uniform", osp::bench::session().threads());
  osp::corollary7_sweep(json);
  osp::theorem5_sweep(json);
  osp::theorem6_sweep(json);
  osp::theorem1_sweep(json, false);
  osp::theorem1_sweep(json, true);
  osp::ablation_sweep(json);
  osp::hash_sweep(json);
  return 0;
}
