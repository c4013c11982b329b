#include "gen/random_instances.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/require.hpp"

namespace osp {

Weight draw_weight(const WeightModel& model, std::size_t rank, Rng& rng) {
  switch (model.kind) {
    case WeightModel::Kind::kUnit:
      return 1.0;
    case WeightModel::Kind::kUniform:
      return model.lo + (model.hi - model.lo) * rng.uniform();
    case WeightModel::Kind::kZipf:
      return std::pow(static_cast<double>(rank + 1), -model.zipf_s) *
             100.0;  // scaled so weights are not vanishingly small
    case WeightModel::Kind::kExponential:
      return 1.0 + rng.exponential(model.rate);
  }
  return 1.0;
}

namespace {

// Rejection sampler for distinct values of [0, n): draws rng.below(n)
// until k distinct values have been seen, reporting them in draw order.
// A value is seen in the current draw when its stamp equals the draw's
// epoch, so one stamp array serves every draw and is never cleared.  The
// generators draw once per set or element, both 32-bit ids, so the 32-bit
// epoch cannot wrap.
class DistinctSampler {
 public:
  explicit DistinctSampler(std::size_t n) : stamp_(n, 0) {}

  template <typename Emit>
  void draw(std::size_t k, Rng& rng, Emit emit) {
    OSP_REQUIRE(k <= stamp_.size());
    ++epoch_;
    for (std::size_t got = 0; got < k;) {
      const std::size_t v = rng.below(stamp_.size());
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      emit(v);
      ++got;
    }
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

// Common body for random_instance / random_capacity_instance.
Instance build_random(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t cap_max, const WeightModel& weights,
                      Rng& rng) {
  OSP_REQUIRE(m >= 1 && k >= 1 && k <= n);
  InstanceBuilder builder;

  // Each set picks k distinct slots; picks[s*k .. s*k+k) are set s's.
  // Dense shapes (3k >= n) shuffle a full index vector, sparse ones draw
  // by rejection.
  std::vector<ElementId> picks(m * k);
  std::vector<std::size_t> load(n, 0);
  {
    const bool dense = k * 3 >= n;
    std::vector<std::size_t> idx(dense ? n : 0);
    DistinctSampler sampler(dense ? 0 : n);
    ElementId* out = picks.data();
    auto take = [&](std::size_t slot) {
      *out++ = static_cast<ElementId>(slot);
      ++load[slot];
    };
    for (std::size_t s = 0; s < m; ++s) {
      builder.add_set(draw_weight(weights, s, rng));
      if (dense) {
        std::iota(idx.begin(), idx.end(), 0);
        std::shuffle(idx.begin(), idx.end(), rng.engine());
        for (std::size_t i = 0; i < k; ++i) take(idx[i]);
      } else {
        sampler.draw(k, rng, take);
      }
    }
  }

  // Counting sort of the picks by slot: memberships row `slot` lists the
  // sets containing that slot, in ascending set order.
  CsrArray<SetId> memberships = CsrArray<SetId>::from_sizes(load);
  {
    std::vector<std::size_t> fill(memberships.offsets().begin(),
                                  memberships.offsets().end() - 1);
    SetId* member = memberships.mutable_row(0);
    for (std::size_t i = 0; i < picks.size(); ++i)
      member[fill[picks[i]]++] = static_cast<SetId>(i / k);
  }

  // The instance's arrays are reserved while the temporaries are still
  // held.  Freeing a multi-megabyte block first raises glibc's dynamic
  // mmap threshold, so the candidate array would land on the brk heap
  // instead of its own mapping; the decide_batch kernel ran slower on that
  // layout in paired benchmark runs.
  const auto unused =
      static_cast<std::size_t>(std::count(load.begin(), load.end(), 0));
  builder.reserve(n - unused, m * k);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (memberships.row_size(slot) == 0) continue;  // unused slot: drop
    Capacity cap = cap_max <= 1
                       ? 1
                       : static_cast<Capacity>(rng.range(1, static_cast<std::int64_t>(cap_max)));
    builder.add_element(memberships.row(slot), cap);
  }
  picks = std::vector<ElementId>();
  load = std::vector<std::size_t>();
  memberships = CsrArray<SetId>();
  return builder.build();
}

}  // namespace

Instance random_instance(std::size_t m, std::size_t n, std::size_t k,
                         const WeightModel& weights, Rng& rng) {
  return build_random(m, n, k, 1, weights, rng);
}

Instance random_capacity_instance(std::size_t m, std::size_t n, std::size_t k,
                                  std::size_t cap_max,
                                  const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(cap_max >= 1);
  return build_random(m, n, k, cap_max, weights, rng);
}

Instance fixed_load_instance(std::size_t m, std::size_t n, std::size_t sigma,
                             const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(sigma >= 1 && sigma <= m);
  OSP_REQUIRE_MSG(n * sigma >= m, "not enough element slots to cover all sets");

  InstanceBuilder builder;
  builder.reserve(n, n * sigma);
  for (std::size_t s = 0; s < m; ++s)
    builder.add_set(draw_weight(weights, s, rng));

  // Covering prefix: element e takes sets e·σ .. e·σ+σ-1 (mod m), so after
  // ceil(m/σ) elements every set belongs to at least one element.  With
  // σ <= m the window wraps at most once onto distinct ids, so it always
  // holds exactly σ distinct sets.
  std::vector<SetId> parents;
  parents.reserve(sigma);
  std::size_t covered = 0;
  std::size_t e = 0;
  for (; covered < m; ++e) {
    OSP_ASSERT(e < n);
    parents.clear();
    for (std::size_t i = 0; i < sigma; ++i)
      parents.push_back(static_cast<SetId>((covered + i) % m));
    builder.add_element(parents, 1);
    covered += sigma;
  }
  DistinctSampler sampler(m);
  for (; e < n; ++e) {
    parents.clear();
    sampler.draw(sigma, rng,
                 [&](std::size_t s) { parents.push_back(static_cast<SetId>(s)); });
    builder.add_element(parents, 1);
  }
  return builder.build();
}

Instance regular_instance(std::size_t m, std::size_t k, std::size_t sigma,
                          const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(m >= 1 && k >= 1 && sigma >= 1);
  OSP_REQUIRE_MSG((m * k) % sigma == 0, "m*k must be divisible by sigma");
  const std::size_t n = m * k / sigma;
  OSP_REQUIRE_MSG(sigma <= m, "element load cannot exceed the number of sets");

  // Configuration model: m·k stubs (set s appears k times), shuffled and
  // cut into n groups of σ.  A group with a repeated set is invalid; repair
  // by swapping one offending stub with a random stub elsewhere.
  std::vector<SetId> stubs;
  stubs.reserve(m * k);
  for (std::size_t s = 0; s < m; ++s)
    for (std::size_t i = 0; i < k; ++i) stubs.push_back(static_cast<SetId>(s));
  std::shuffle(stubs.begin(), stubs.end(), rng.engine());

  auto group_of = [&](std::size_t pos) { return pos / sigma; };
  auto group_has = [&](std::size_t g, SetId s, std::size_t except) {
    for (std::size_t i = g * sigma; i < (g + 1) * sigma; ++i)
      if (i != except && stubs[i] == s) return true;
    return false;
  };

  const std::size_t max_passes = 200;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool clean = true;
    for (std::size_t pos = 0; pos < stubs.size(); ++pos) {
      std::size_t g = group_of(pos);
      if (!group_has(g, stubs[pos], pos)) continue;
      clean = false;
      // Swap with a random position whose group accepts our stub and whose
      // stub our group accepts.
      for (std::size_t attempt = 0; attempt < 100; ++attempt) {
        std::size_t other = rng.below(stubs.size());
        std::size_t og = group_of(other);
        if (og == g) continue;
        if (group_has(og, stubs[pos], other)) continue;
        if (group_has(g, stubs[other], pos)) continue;
        std::swap(stubs[pos], stubs[other]);
        break;
      }
    }
    if (clean) {
      InstanceBuilder builder;
      builder.reserve(n, stubs.size());
      for (std::size_t s = 0; s < m; ++s)
        builder.add_set(draw_weight(weights, s, rng));
      for (std::size_t g = 0; g < n; ++g)
        builder.add_element(Span<SetId>(stubs.data() + g * sigma, sigma), 1);
      return builder.build();
    }
  }
  OSP_REQUIRE_MSG(false, "regular_instance repair did not converge (m=" << m
                             << " k=" << k << " sigma=" << sigma << ")");
  return InstanceBuilder{}.build();  // unreachable
}

}  // namespace osp
