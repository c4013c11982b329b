// Tests for the Instance model: builder validation and statistics.
#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "util/require.hpp"

namespace osp {
namespace {

// Small shared fixture: 3 sets, 4 elements.
//   S0 = {e0, e1}, w=1;  S1 = {e0, e2}, w=2;  S2 = {e1, e2, e3}, w=3.
Instance tiny() {
  InstanceBuilder b;
  b.add_set(1.0);
  b.add_set(2.0);
  b.add_set(3.0);
  b.add_element({0, 1});
  b.add_element({0, 2});
  b.add_element({1, 2});
  b.add_element({2});
  return b.build();
}

TEST(InstanceBuilder, BasicShape) {
  Instance inst = tiny();
  EXPECT_EQ(inst.num_sets(), 3u);
  EXPECT_EQ(inst.num_elements(), 4u);
  EXPECT_EQ(inst.set_size(0), 2u);
  EXPECT_EQ(inst.set_size(1), 2u);
  EXPECT_EQ(inst.set_size(2), 3u);
  EXPECT_DOUBLE_EQ(inst.weight(2), 3.0);
}

TEST(InstanceBuilder, MembersMatchArrivals) {
  Instance inst = tiny();
  EXPECT_EQ(inst.elements_of(0), (std::vector<ElementId>{0, 1}));
  EXPECT_EQ(inst.elements_of(2), (std::vector<ElementId>{1, 2, 3}));
  EXPECT_EQ(inst.arrival(0).parents, (std::vector<SetId>{0, 1}));
}

TEST(InstanceBuilder, ParentsSortedEvenIfGivenUnsorted) {
  InstanceBuilder b;
  b.add_sets(3);
  b.add_element({2, 0, 1});
  Instance inst = b.build();
  EXPECT_EQ(inst.arrival(0).parents, (std::vector<SetId>{0, 1, 2}));
}

TEST(InstanceBuilder, RejectsDuplicateParents) {
  InstanceBuilder b;
  b.add_sets(2);
  EXPECT_THROW(b.add_element({0, 0}), RequireError);
}

TEST(InstanceBuilder, RejectsUnknownSet) {
  InstanceBuilder b;
  b.add_set();
  EXPECT_THROW(b.add_element({5}), RequireError);
}

TEST(InstanceBuilder, RejectsZeroCapacity) {
  InstanceBuilder b;
  b.add_set();
  EXPECT_THROW(b.add_element({0}, 0), RequireError);
}

TEST(InstanceBuilder, AcceptsSpanOfParents) {
  InstanceBuilder b;
  b.add_sets(4);
  const std::vector<SetId> pool{9, 3, 1, 2, 9};
  b.add_element(Span<SetId>(pool.data() + 1, 3), 2);  // {3, 1, 2}
  b.add_element(Span<SetId>(), 1);
  Instance inst = b.build();
  EXPECT_EQ(inst.parents(0), (std::vector<SetId>{1, 2, 3}));
  EXPECT_EQ(inst.capacity(0), 2u);
  EXPECT_EQ(inst.load(1), 0u);
  EXPECT_EQ(inst.elements_of(3), (std::vector<ElementId>{0}));
  EXPECT_EQ(inst.max_capacity(), 2u);
}

bool same_instance(const Instance& a, const Instance& b) {
  if (a.num_sets() != b.num_sets() || a.num_elements() != b.num_elements() ||
      a.max_capacity() != b.max_capacity())
    return false;
  for (SetId s = 0; s < a.num_sets(); ++s)
    if (a.weight(s) != b.weight(s) || a.elements_of(s) != b.elements_of(s))
      return false;
  for (ElementId u = 0; u < a.num_elements(); ++u)
    if (a.capacity(u) != b.capacity(u) || a.parents(u) != b.parents(u))
      return false;
  return true;
}

TEST(InstanceBuilder, RejectedElementLeavesBuilderUnchanged) {
  auto fill = [](InstanceBuilder& b, bool with_bad_call, int bad) {
    b.add_sets(3);
    b.add_set(2.5);
    b.add_element({3, 1}, 2);
    if (with_bad_call) {
      switch (bad) {
        case 0: EXPECT_THROW(b.add_element({2, 0, 2}), RequireError); break;
        case 1: EXPECT_THROW(b.add_element({0, 4}), RequireError); break;
        default: EXPECT_THROW(b.add_element({0, 1}, 0), RequireError);
      }
      EXPECT_EQ(b.num_elements(), 1u);
    }
    b.add_element({2, 0, 3});
    b.add_element({1});
  };
  for (int bad = 0; bad < 3; ++bad) {
    InstanceBuilder clean, rejected;
    fill(clean, false, bad);
    fill(rejected, true, bad);
    EXPECT_TRUE(same_instance(clean.build(), rejected.build()))
        << "bad call " << bad;
  }
}

TEST(InstanceBuilder, RejectsNegativeWeight) {
  InstanceBuilder b;
  EXPECT_THROW(b.add_set(-1.0), RequireError);
}

TEST(InstanceBuilder, ResetAfterBuild) {
  InstanceBuilder b;
  b.add_set();
  b.add_element({0});
  Instance first = b.build();
  EXPECT_EQ(b.num_sets(), 0u);
  EXPECT_EQ(b.num_elements(), 0u);
  b.add_set();
  Instance second = b.build();
  EXPECT_EQ(second.num_sets(), 1u);
  EXPECT_EQ(second.num_elements(), 0u);
}

TEST(Instance, Loads) {
  Instance inst = tiny();
  EXPECT_EQ(inst.load(0), 2u);
  EXPECT_EQ(inst.load(3), 1u);
  EXPECT_DOUBLE_EQ(inst.weighted_load(0), 3.0);  // S0 + S1
  EXPECT_DOUBLE_EQ(inst.weighted_load(2), 5.0);  // S1 + S2
  EXPECT_DOUBLE_EQ(inst.adjusted_load(0), 2.0);  // unit capacity
}

TEST(Instance, AdjustedLoadWithCapacity) {
  InstanceBuilder b;
  b.add_sets(4);
  b.add_element({0, 1, 2, 3}, 2);
  Instance inst = b.build();
  EXPECT_DOUBLE_EQ(inst.adjusted_load(0), 2.0);  // 4 / 2
}

TEST(InstanceStats, TinyByHand) {
  InstanceStats st = tiny().stats();
  EXPECT_EQ(st.num_sets, 3u);
  EXPECT_EQ(st.num_elements, 4u);
  EXPECT_DOUBLE_EQ(st.total_weight, 6.0);
  EXPECT_EQ(st.k_max, 3u);
  EXPECT_NEAR(st.k_avg, 7.0 / 3.0, 1e-12);
  EXPECT_EQ(st.sigma_max, 2u);
  EXPECT_NEAR(st.sigma_avg, 7.0 / 4.0, 1e-12);  // loads 2,2,2,1
  // σ$ per element: 3, 4, 5, 3 -> avg 15/4.
  EXPECT_NEAR(st.sigma_w_avg, 15.0 / 4.0, 1e-12);
  // σ·σ$: 6, 8, 10, 3 -> avg 27/4.
  EXPECT_NEAR(st.sigma_sigma_w_avg, 27.0 / 4.0, 1e-12);
  EXPECT_TRUE(st.unit_capacity);
  EXPECT_FALSE(st.uniform_size);
  EXPECT_FALSE(st.uniform_load);
  EXPECT_FALSE(st.unweighted);
}

TEST(InstanceStats, UniformFlags) {
  InstanceBuilder b;
  b.add_sets(4);  // unit weights
  b.add_element({0, 1});
  b.add_element({2, 3});
  b.add_element({0, 2});
  b.add_element({1, 3});
  InstanceStats st = b.build().stats();
  EXPECT_TRUE(st.uniform_size);
  EXPECT_TRUE(st.uniform_load);
  EXPECT_TRUE(st.unweighted);
  EXPECT_TRUE(st.unit_capacity);
  EXPECT_DOUBLE_EQ(st.k_avg, 2.0);
  EXPECT_DOUBLE_EQ(st.sigma_avg, 2.0);
}

TEST(InstanceStats, VariableCapacityFlags) {
  InstanceBuilder b;
  b.add_sets(3);
  b.add_element({0, 1, 2}, 3);
  InstanceStats st = b.build().stats();
  EXPECT_FALSE(st.unit_capacity);
  EXPECT_EQ(st.b_max, 3u);
  EXPECT_DOUBLE_EQ(st.nu_avg, 1.0);
  EXPECT_DOUBLE_EQ(st.nu_max, 1.0);
}

TEST(InstanceStats, MaxBurstIdentity) {
  // nσ̄ = mk̄ (double counting) — the identity used in Theorems 5 and 6.
  Instance inst = tiny();
  InstanceStats st = inst.stats();
  EXPECT_NEAR(static_cast<double>(st.num_elements) * st.sigma_avg,
              static_cast<double>(st.num_sets) * st.k_avg, 1e-9);
}

TEST(Instance, DescribeMentionsShape) {
  std::string d = tiny().describe();
  EXPECT_NE(d.find("m=3"), std::string::npos);
  EXPECT_NE(d.find("n=4"), std::string::npos);
  EXPECT_NE(d.find("kmax=3"), std::string::npos);
}

TEST(Instance, EmptySetCompletesVacuously) {
  // A set with no elements is permitted; it is trivially complete.
  InstanceBuilder b;
  b.add_set(5.0);
  Instance inst = b.build();
  EXPECT_EQ(inst.set_size(0), 0u);
}

TEST(Instance, ValidatePassesOnBuilt) {
  EXPECT_NO_THROW(tiny().validate());
}

}  // namespace
}  // namespace osp
