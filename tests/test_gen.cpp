// Tests for the workload generators: parameter conformance and the
// structural guarantees each family promises.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gen/multihop.hpp"
#include "gen/random_instances.hpp"
#include "gen/schedule.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(WeightModels, RangesRespected) {
  Rng rng(1);
  for (std::size_t r = 0; r < 200; ++r) {
    EXPECT_DOUBLE_EQ(draw_weight(WeightModel::unit(), r, rng), 1.0);
    double u = draw_weight(WeightModel::uniform(2, 5), r, rng);
    EXPECT_GE(u, 2.0);
    EXPECT_LE(u, 5.0);
    EXPECT_GE(draw_weight(WeightModel::exponential(1.0), r, rng), 1.0);
  }
}

TEST(WeightModels, ZipfDecreasesWithRank) {
  Rng rng(2);
  double w0 = draw_weight(WeightModel::zipf(1.2), 0, rng);
  double w9 = draw_weight(WeightModel::zipf(1.2), 9, rng);
  EXPECT_GT(w0, w9);
}

TEST(RandomInstance, UniformSizeK) {
  Rng rng(3);
  Instance inst = random_instance(30, 50, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_sets(), 30u);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_EQ(inst.set_size(s), 4u);
  EXPECT_LE(inst.num_elements(), 50u);
  EXPECT_TRUE(inst.stats().uniform_size);
}

TEST(RandomInstance, DropsEmptySlots) {
  Rng rng(4);
  // 2 sets of size 2 over 100 slots: at most 4 distinct elements remain.
  Instance inst = random_instance(2, 100, 2, WeightModel::unit(), rng);
  EXPECT_LE(inst.num_elements(), 4u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_GE(inst.load(u), 1u);
}

TEST(RandomInstance, RejectsKLargerThanN) {
  Rng rng(5);
  EXPECT_THROW(random_instance(3, 4, 5, WeightModel::unit(), rng),
               RequireError);
}

TEST(RandomCapacityInstance, CapacitiesInRange) {
  Rng rng(6);
  Instance inst =
      random_capacity_instance(20, 30, 3, 4, WeightModel::unit(), rng);
  bool saw_above_one = false;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    EXPECT_GE(inst.arrival(u).capacity, 1u);
    EXPECT_LE(inst.arrival(u).capacity, 4u);
    if (inst.arrival(u).capacity > 1) saw_above_one = true;
  }
  EXPECT_TRUE(saw_above_one);
}

TEST(FixedLoadInstance, UniformLoadAndFullCoverage) {
  Rng rng(7);
  Instance inst = fixed_load_instance(20, 40, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_elements(), 40u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_EQ(inst.load(u), 4u);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_GE(inst.set_size(s), 1u) << "set " << s << " uncovered";
  EXPECT_TRUE(inst.stats().uniform_load);
}

TEST(FixedLoadInstance, ParameterValidation) {
  Rng rng(8);
  EXPECT_THROW(fixed_load_instance(10, 40, 11, WeightModel::unit(), rng),
               RequireError);  // sigma > m
  EXPECT_THROW(fixed_load_instance(100, 3, 4, WeightModel::unit(), rng),
               RequireError);  // cannot cover
}

TEST(RegularInstance, BiRegular) {
  Rng rng(9);
  Instance inst = regular_instance(24, 3, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_sets(), 24u);
  EXPECT_EQ(inst.num_elements(), 24u * 3 / 4);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_EQ(inst.set_size(s), 3u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_EQ(inst.load(u), 4u);
  InstanceStats st = inst.stats();
  EXPECT_TRUE(st.uniform_size);
  EXPECT_TRUE(st.uniform_load);
}

TEST(RegularInstance, ManyParameterCombos) {
  Rng rng(10);
  for (auto [m, k, sigma] :
       {std::tuple{10, 2, 4}, {12, 3, 6}, {16, 4, 8}, {20, 5, 10},
        {8, 2, 2}, {30, 3, 5}}) {
    Instance inst = regular_instance(m, k, sigma, WeightModel::unit(), rng);
    InstanceStats st = inst.stats();
    EXPECT_TRUE(st.uniform_size && st.uniform_load)
        << "m=" << m << " k=" << k << " s=" << sigma;
  }
}

TEST(RegularInstance, DivisibilityEnforced) {
  Rng rng(11);
  EXPECT_THROW(regular_instance(10, 3, 4, WeightModel::unit(), rng),
               RequireError);
}

// ---- golden digests ------------------------------------------------------
//
// FNV-1a 64 over every byte an Instance exposes (shape, weight bit
// patterns, capacities, parent rows, member rows), plus the generator's
// next draw after the build.  The values were recorded from the
// vector-of-vectors generators that preceded the flat CSR build; any
// change to an instance's bytes or to the RNG draws a generator makes
// fails here.

class Fnv1a {
 public:
  void add(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_value(T v) {
    add(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t instance_digest(const Instance& inst) {
  Fnv1a h;
  h.add_value<std::uint64_t>(inst.num_sets());
  h.add_value<std::uint64_t>(inst.num_elements());
  for (SetId s = 0; s < inst.num_sets(); ++s) {
    h.add_value(inst.weight(s));
    Span<ElementId> members = inst.elements_of(s);
    h.add_value<std::uint64_t>(members.size());
    h.add(members.data(), members.size() * sizeof(ElementId));
  }
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const ArrivalView a = inst.arrival(u);
    h.add_value(a.capacity);
    h.add_value<std::uint64_t>(a.parents.size());
    h.add(a.parents.data(), a.parents.size() * sizeof(SetId));
  }
  return h.value();
}

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  std::uint64_t digest;     // instance_digest of the result
  std::uint64_t next_draw;  // the Rng's next 64-bit output after the build
};

WeightModel weight_model(char kind) {
  switch (kind) {
    case 'u': return WeightModel::uniform(1, 10);
    case 'e': return WeightModel::exponential(1.0);
    case 'z': return WeightModel::zipf(1.2);
    default: return WeightModel::unit();
  }
}

// Case names are "<family>/<shape>/<weights>"; weights is one of
// 1 (unit), u (uniform), e (exponential), z (zipf).
Instance build_golden(const std::string& name, Rng& rng) {
  const WeightModel w = weight_model(name.back());
  const std::string shape = name.substr(0, name.size() - 2);
  if (shape == "random/dense") return random_instance(40, 30, 12, w, rng);
  if (shape == "random/sparse") return random_instance(60, 200, 5, w, rng);
  if (shape == "random/overload256k")
    return random_instance(8192, 262144, 512, w, rng);
  if (shape == "capacity/dense")
    return random_capacity_instance(40, 30, 12, 4, w, rng);
  if (shape == "capacity/sparse")
    return random_capacity_instance(60, 200, 5, 3, w, rng);
  if (shape == "fixed/load4") return fixed_load_instance(50, 120, 4, w, rng);
  if (shape == "fixed/load7") return fixed_load_instance(12, 40, 7, w, rng);
  if (shape == "regular/24x3x4") return regular_instance(24, 3, 4, w, rng);
  if (shape == "regular/30x3x5") return regular_instance(30, 3, 5, w, rng);
  ADD_FAILURE() << "unknown golden case " << name;
  return InstanceBuilder{}.build();
}

const GoldenCase kGolden[] = {
    {"random/dense/1", 1, 0x2319674f3c84658fULL, 0xf4745aa46306f378ULL},
    {"random/dense/1", 2, 0x904b9a369f5547e5ULL, 0x6baae419b786a6b0ULL},
    {"random/dense/1", 3, 0x05065a4064e3321bULL, 0x089531bb91423640ULL},
    {"random/dense/u", 1, 0x5bfef96e213662a2ULL, 0x6ca3d138987bea91ULL},
    {"random/dense/u", 2, 0x8281782b4b64de29ULL, 0x8cbad9cb6b98c32fULL},
    {"random/dense/u", 3, 0x82a3716d1640c769ULL, 0xf8c33f439f183981ULL},
    {"random/dense/e", 1, 0xf613453c64a1546fULL, 0x6ca3d138987bea91ULL},
    {"random/dense/e", 2, 0x6a7c1b7ab3920e43ULL, 0x8cbad9cb6b98c32fULL},
    {"random/dense/e", 3, 0x0d84f96bc78eced9ULL, 0xf8c33f439f183981ULL},
    {"random/dense/z", 1, 0x9c8e6b16e3e9149bULL, 0xf4745aa46306f378ULL},
    {"random/dense/z", 2, 0x2867f15f793d7e99ULL, 0x6baae419b786a6b0ULL},
    {"random/dense/z", 3, 0x9ec2660c9b24919bULL, 0x089531bb91423640ULL},
    {"random/sparse/1", 1, 0xf3f5d3062811d57bULL, 0xb2771513cc6f3489ULL},
    {"random/sparse/1", 2, 0x67817f27bf8ef2baULL, 0x784842464feb43feULL},
    {"random/sparse/1", 3, 0x7d511d9f790d5840ULL, 0x7f9108f3a9530415ULL},
    {"random/sparse/u", 1, 0xd78b5c157b0cd9ebULL, 0xe117388d7cc7b80bULL},
    {"random/sparse/u", 2, 0xd17f4e043915bbb6ULL, 0x46e610ce53abcdd8ULL},
    {"random/sparse/u", 3, 0x97ea5d586e59904cULL, 0xb88d0fd0c9302296ULL},
    {"random/sparse/e", 1, 0xcb3836ead112e682ULL, 0xe117388d7cc7b80bULL},
    {"random/sparse/e", 2, 0x11ad5c1c5547ef9fULL, 0x46e610ce53abcdd8ULL},
    {"random/sparse/e", 3, 0xa30af6432e98cbb1ULL, 0xb88d0fd0c9302296ULL},
    {"random/sparse/z", 1, 0xcf6dc3d0a9e2ff8eULL, 0xb2771513cc6f3489ULL},
    {"random/sparse/z", 2, 0x79d24df74fbcad53ULL, 0x784842464feb43feULL},
    {"random/sparse/z", 3, 0x2fcfc2607cd77405ULL, 0x7f9108f3a9530415ULL},
    {"capacity/dense/1", 1, 0x3f84cce5f02e288aULL, 0x9cfeb4049d4aacf3ULL},
    {"capacity/dense/1", 2, 0xe6521a8cdbfb59f1ULL, 0x950d8b55b90505ccULL},
    {"capacity/dense/1", 3, 0x0f98409727fa1569ULL, 0x209dc8c2c354fc81ULL},
    {"capacity/dense/u", 1, 0x882bab169455b107ULL, 0x9335612ec691e9d1ULL},
    {"capacity/dense/u", 2, 0xb691dff435800719ULL, 0xfc2af1a705020624ULL},
    {"capacity/dense/u", 3, 0xb687d0371321a7ebULL, 0x509c4e798af6b3b0ULL},
    {"capacity/dense/e", 1, 0x6fc8ed87091c884aULL, 0x9335612ec691e9d1ULL},
    {"capacity/dense/e", 2, 0xd0785b55933cc973ULL, 0xfc2af1a705020624ULL},
    {"capacity/dense/e", 3, 0x771878a85ee9e79bULL, 0x509c4e798af6b3b0ULL},
    {"capacity/dense/z", 1, 0x50fb0182b161409eULL, 0x9cfeb4049d4aacf3ULL},
    {"capacity/dense/z", 2, 0x8d7a4226ddca87adULL, 0x950d8b55b90505ccULL},
    {"capacity/dense/z", 3, 0xa9544c635e3b74e9ULL, 0x209dc8c2c354fc81ULL},
    {"capacity/sparse/1", 1, 0x587fe7b71833a5c8ULL, 0xaaf6fa5c5931bbe3ULL},
    {"capacity/sparse/1", 2, 0x9e79654b2174f89aULL, 0x6695894c5ddf3d77ULL},
    {"capacity/sparse/1", 3, 0xc596ce596c912502ULL, 0x1fdc538619bf5503ULL},
    {"capacity/sparse/u", 1, 0xfd487a019d9ccc8bULL, 0x6eb86ca1570d3bd4ULL},
    {"capacity/sparse/u", 2, 0xc87fc707f0e197e4ULL, 0xc7d3c9b79b2f2c41ULL},
    {"capacity/sparse/u", 3, 0xa711eb693331b6afULL, 0x4116bbd013173498ULL},
    {"capacity/sparse/e", 1, 0x643d3b50be393ae2ULL, 0x6eb86ca1570d3bd4ULL},
    {"capacity/sparse/e", 2, 0xe1b7d97ee978b26dULL, 0xc7d3c9b79b2f2c41ULL},
    {"capacity/sparse/e", 3, 0x10685a9485e24392ULL, 0x4116bbd013173498ULL},
    {"capacity/sparse/z", 1, 0x98e4c5fa0c7738bdULL, 0xaaf6fa5c5931bbe3ULL},
    {"capacity/sparse/z", 2, 0x1cfef6af292f5f73ULL, 0x6695894c5ddf3d77ULL},
    {"capacity/sparse/z", 3, 0x3b80e085ded28487ULL, 0x1fdc538619bf5503ULL},
    {"fixed/load4/1", 1, 0x4fbf43b79d34640aULL, 0xa8539fc510eccc30ULL},
    {"fixed/load4/1", 2, 0xf55edbf20bef799aULL, 0xc585a24de6f25fffULL},
    {"fixed/load4/1", 3, 0xae90b5c4ef0ffaceULL, 0xcb064f999b4cb58eULL},
    {"fixed/load4/u", 1, 0x3c04812db5312b79ULL, 0xb0111a645ecb0d14ULL},
    {"fixed/load4/u", 2, 0x555934dee84a290cULL, 0xee8712cd20630cadULL},
    {"fixed/load4/u", 3, 0x85ab8ef6c91d4ed7ULL, 0x3ada5200f74365efULL},
    {"fixed/load4/e", 1, 0x04efbc3d3374ceb5ULL, 0xb0111a645ecb0d14ULL},
    {"fixed/load4/e", 2, 0x90c8174b5b0994c6ULL, 0xee8712cd20630cadULL},
    {"fixed/load4/e", 3, 0x7e39237e32b44de1ULL, 0x3ada5200f74365efULL},
    {"fixed/load4/z", 1, 0x54a1d9878ec05b09ULL, 0xa8539fc510eccc30ULL},
    {"fixed/load4/z", 2, 0x3c0181d334929fd1ULL, 0xc585a24de6f25fffULL},
    {"fixed/load4/z", 3, 0x1f4ecc1998154ea5ULL, 0xcb064f999b4cb58eULL},
    {"fixed/load7/1", 1, 0x43492ba918f40bd8ULL, 0x41f2ca21501b693aULL},
    {"fixed/load7/1", 2, 0x35fd0e40a310fa48ULL, 0x75e8dafc541ac4a2ULL},
    {"fixed/load7/1", 3, 0x456b88a6acd500f7ULL, 0xf75e46da6024388fULL},
    {"fixed/load7/u", 1, 0x8e5d5e39104ef9e5ULL, 0x8ea6cb22d1e43e07ULL},
    {"fixed/load7/u", 2, 0x3eec4bda4fa523dfULL, 0xf94b96ea8a954548ULL},
    {"fixed/load7/u", 3, 0x81f5490012c6b5f3ULL, 0xd514bfa8b56c1836ULL},
    {"fixed/load7/e", 1, 0x934abf49bd6fd537ULL, 0x8ea6cb22d1e43e07ULL},
    {"fixed/load7/e", 2, 0xa5770f73a1c03213ULL, 0xf94b96ea8a954548ULL},
    {"fixed/load7/e", 3, 0x4ff0bb0403a03f87ULL, 0xd514bfa8b56c1836ULL},
    {"fixed/load7/z", 1, 0x90835c9c92f4eb8bULL, 0x41f2ca21501b693aULL},
    {"fixed/load7/z", 2, 0x29074dfd51dccd23ULL, 0x75e8dafc541ac4a2ULL},
    {"fixed/load7/z", 3, 0xb7ccb71cf02fa5acULL, 0xf75e46da6024388fULL},
    {"regular/24x3x4/1", 1, 0x2b16d10306b73b57ULL, 0x1d8ada9392774675ULL},
    {"regular/24x3x4/1", 2, 0xf47a5323e15d4d0fULL, 0xaed0fad5d0974203ULL},
    {"regular/24x3x4/1", 3, 0x14f09272b2342d8fULL, 0xba6e3e950930e684ULL},
    {"regular/24x3x4/u", 1, 0x765405b68c3e832fULL, 0x5ce75128a64d7f06ULL},
    {"regular/24x3x4/u", 2, 0xafde90ac8039167cULL, 0x59921ff8403057afULL},
    {"regular/24x3x4/u", 3, 0x9f14f7db10b92a9dULL, 0xcb9c3100c7eb27dbULL},
    {"regular/24x3x4/e", 1, 0xc39084f405622239ULL, 0x5ce75128a64d7f06ULL},
    {"regular/24x3x4/e", 2, 0x532a5868aadd316cULL, 0x59921ff8403057afULL},
    {"regular/24x3x4/e", 3, 0x5dbef98b066411f1ULL, 0xcb9c3100c7eb27dbULL},
    {"regular/24x3x4/z", 1, 0x3437cf630e7e66edULL, 0x1d8ada9392774675ULL},
    {"regular/24x3x4/z", 2, 0x7d8f697cef22678dULL, 0xaed0fad5d0974203ULL},
    {"regular/24x3x4/z", 3, 0xe9f6e9221a3574c9ULL, 0xba6e3e950930e684ULL},
    {"regular/30x3x5/1", 1, 0x050d9eba160b96adULL, 0x7cfd4ed09b2433c7ULL},
    {"regular/30x3x5/1", 2, 0x36f3c34fae425d45ULL, 0xc4e6a416d4c6182aULL},
    {"regular/30x3x5/1", 3, 0x9f58c309331e8e09ULL, 0xa264761f4d8814bbULL},
    {"regular/30x3x5/u", 1, 0xf8e1b9123bfd468eULL, 0x1104be126db925d0ULL},
    {"regular/30x3x5/u", 2, 0x3c8ce6ffc303b615ULL, 0x65643127b6dc6410ULL},
    {"regular/30x3x5/u", 3, 0x26d807bc7f176ec4ULL, 0x7781c65d69615010ULL},
    {"regular/30x3x5/e", 1, 0xc4802c5ee95038f4ULL, 0x1104be126db925d0ULL},
    {"regular/30x3x5/e", 2, 0x785361cd8cab510eULL, 0x65643127b6dc6410ULL},
    {"regular/30x3x5/e", 3, 0x0d065bfbf54d725dULL, 0x7781c65d69615010ULL},
    {"regular/30x3x5/z", 1, 0xbe0db530d5cabbefULL, 0x7cfd4ed09b2433c7ULL},
    {"regular/30x3x5/z", 2, 0x80d59cbfb558415fULL, 0xc4e6a416d4c6182aULL},
    {"regular/30x3x5/z", 3, 0xb21ac9a0893e9acfULL, 0xa264761f4d8814bbULL},
    {"random/overload256k/1", 1, 0x00c4f77637b735ecULL, 0x43c835b92ae26862ULL},
    {"random/overload256k/1", 2, 0xdb67a0e32edb3f04ULL, 0x82885f320175ef79ULL},
    {"random/overload256k/1", 3, 0xcb0132e9fa0443f7ULL, 0xd1c8867675b5a149ULL},
};

TEST(GeneratorGolden, DigestsAndRngStateUnchanged) {
  for (const GoldenCase& c : kGolden) {
    Rng rng(c.seed);
    Instance inst = build_golden(c.name, rng);
    const std::uint64_t digest = instance_digest(inst);
    const std::uint64_t next_draw = rng();
    EXPECT_EQ(digest, c.digest) << c.name << " seed " << c.seed;
    EXPECT_EQ(next_draw, c.next_draw) << c.name << " seed " << c.seed;
  }
}

TEST(FrameSchedule, ReductionMatchesPaper) {
  FrameSchedule sched;
  sched.frames.push_back({2.0, {0, 1}});
  sched.frames.push_back({1.0, {1, 2}});
  sched.horizon = 4;  // slot 3 empty
  Instance inst = sched.to_instance(1);
  EXPECT_EQ(inst.num_sets(), 2u);
  EXPECT_EQ(inst.num_elements(), 3u);  // empty slot dropped
  EXPECT_EQ(inst.arrival(1).parents, (std::vector<SetId>{0, 1}));
  EXPECT_DOUBLE_EQ(inst.weight(0), 2.0);
}

TEST(FrameSchedule, BurstProfile) {
  FrameSchedule sched;
  sched.frames.push_back({1.0, {0, 1}});
  sched.frames.push_back({1.0, {1}});
  sched.horizon = 2;
  EXPECT_EQ(sched.burst_profile(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(sched.max_burst(), 2u);
  EXPECT_EQ(sched.total_packets(), 3u);
}

TEST(FrameSchedule, ValidateRejectsBadSlots) {
  FrameSchedule sched;
  sched.frames.push_back({1.0, {3, 1}});  // not sorted
  sched.horizon = 5;
  EXPECT_THROW(sched.validate(), RequireError);
  sched.frames[0].packet_slots = {1, 9};  // beyond horizon
  EXPECT_THROW(sched.validate(), RequireError);
}

TEST(Traffic, PoissonMeanRoughlyLambda) {
  Rng rng(12);
  PoissonBursts p(3.0);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(p.next(rng));
  EXPECT_NEAR(total / n, 3.0, 0.1);
}

TEST(Traffic, ConstantIsConstant) {
  Rng rng(13);
  ConstantBursts c(4);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c.next(rng), 4u);
}

TEST(Traffic, OnOffProducesBothRegimes) {
  Rng rng(14);
  OnOffBursts oo(0.1, 0.1, 6.0, 0.2);
  std::size_t zeros = 0, bigs = 0;
  for (int i = 0; i < 5000; ++i) {
    std::size_t b = oo.next(rng);
    if (b == 0) ++zeros;
    if (b >= 4) ++bigs;
  }
  EXPECT_GT(zeros, 100u);
  EXPECT_GT(bigs, 100u);
}

TEST(Traffic, BurstyScheduleShape) {
  Rng rng(15);
  PoissonBursts p(2.0);
  FrameSchedule sched = bursty_schedule(p, 50, 3, rng);
  EXPECT_EQ(sched.frames.size(), 50u);
  for (const Frame& f : sched.frames) {
    EXPECT_EQ(f.packet_slots.size(), 3u);
    // Packets on consecutive slots.
    EXPECT_EQ(f.packet_slots[2], f.packet_slots[0] + 2);
  }
  EXPECT_NO_THROW(sched.validate());
}

TEST(Video, WorkloadShape) {
  Rng rng(16);
  VideoParams params;
  VideoWorkload vw = make_video_workload(params, rng);
  EXPECT_EQ(vw.schedule.frames.size(),
            params.num_streams * params.frames_per_stream);
  EXPECT_EQ(vw.kinds.size(), vw.schedule.frames.size());
  // I frames have the declared packet count and weight.
  for (std::size_t f = 0; f < vw.schedule.frames.size(); ++f) {
    if (vw.kinds[f] == FrameKind::kIntra) {
      EXPECT_EQ(vw.schedule.frames[f].packet_slots.size(),
                params.i_frame_packets);
      EXPECT_DOUBLE_EQ(vw.schedule.frames[f].weight, params.i_frame_weight);
    } else {
      EXPECT_EQ(vw.schedule.frames[f].packet_slots.size(),
                params.p_frame_packets);
    }
  }
}

TEST(Video, GopStructure) {
  Rng rng(17);
  VideoParams params;
  params.num_streams = 1;
  params.frames_per_stream = 24;
  params.gop_length = 12;
  VideoWorkload vw = make_video_workload(params, rng);
  int intras = 0;
  for (auto kind : vw.kinds)
    if (kind == FrameKind::kIntra) ++intras;
  EXPECT_EQ(intras, 2);  // frames 0 and 12
  EXPECT_EQ(vw.kinds[0], FrameKind::kIntra);
  EXPECT_EQ(vw.kinds[12], FrameKind::kIntra);
  EXPECT_EQ(vw.kinds[1], FrameKind::kPredicted);
}

TEST(Video, ReductionIsPlayable) {
  Rng rng(18);
  VideoParams params;
  params.num_streams = 4;
  params.frames_per_stream = 10;
  VideoWorkload vw = make_video_workload(params, rng);
  Instance inst = vw.schedule.to_instance(1);
  EXPECT_EQ(inst.num_sets(), vw.schedule.frames.size());
  EXPECT_GT(inst.stats().sigma_max, 1u);  // streams actually collide
}

TEST(MultiHop, RouteGeometry) {
  Rng rng(19);
  MultiHopParams params;
  params.num_switches = 5;
  params.num_packets = 60;
  params.min_route = 2;
  params.max_route = 5;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  EXPECT_EQ(w.instance.num_sets(), 60u);
  for (std::size_t p = 0; p < 60; ++p) {
    EXPECT_GE(w.route_len[p], 2u);
    EXPECT_LE(w.route_len[p], 5u);
    EXPECT_LE(w.entry_hop[p] + w.route_len[p], params.num_switches);
    EXPECT_EQ(w.instance.set_size(static_cast<SetId>(p)), w.route_len[p]);
  }
}

TEST(MultiHop, ElementsAreSharedLinkSlots) {
  Rng rng(20);
  MultiHopParams params;
  params.num_packets = 100;
  params.horizon = 10;  // force heavy contention
  MultiHopWorkload w = make_multihop_workload(params, rng);
  InstanceStats st = w.instance.stats();
  EXPECT_GT(st.sigma_max, 1u);
  // Total memberships equal total hop traversals.
  std::size_t hops = 0;
  for (auto len : w.route_len) hops += len;
  std::size_t memberships = 0;
  for (ElementId u = 0; u < w.instance.num_elements(); ++u)
    memberships += w.instance.load(u);
  EXPECT_EQ(memberships, hops);
}

TEST(MultiHop, WeightPerHop) {
  Rng rng(21);
  MultiHopParams params;
  params.weight_per_hop = 0.5;
  params.min_route = 2;
  params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  for (std::size_t p = 0; p < w.instance.num_sets(); ++p)
    EXPECT_DOUBLE_EQ(w.instance.weight(static_cast<SetId>(p)),
                     1.0 + 0.5 * static_cast<double>(w.route_len[p]));
}

}  // namespace
}  // namespace osp
