#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sim/latency_model.h"
#include "sim/resource_profile.h"

namespace tifl::sim {
namespace {

TEST(ResourceGroups, PaperPresets) {
  EXPECT_EQ(casestudy_cpu_groups(),
            (std::vector<double>{4.0, 2.0, 1.0, 1.0 / 3.0, 1.0 / 5.0}));
  EXPECT_EQ(mnist_cpu_groups(), (std::vector<double>{2, 1, 0.75, 0.5, 0.25}));
  EXPECT_EQ(cifar_cpu_groups(), (std::vector<double>{4, 2, 1, 0.5, 0.1}));
  EXPECT_EQ(homogeneous_cpu_groups(2.0), std::vector<double>(5, 2.0));
}

TEST(AssignEqualGroups, EqualCountsPerGroup) {
  util::Rng rng(1);
  const auto profiles =
      assign_equal_groups(50, cifar_cpu_groups(), 0.5, 0.05, rng);
  ASSERT_EQ(profiles.size(), 50u);
  std::map<double, int> counts;
  for (const auto& p : profiles) {
    ++counts[p.cpus];
    EXPECT_DOUBLE_EQ(p.comm_seconds, 0.5);
    EXPECT_DOUBLE_EQ(p.jitter_sigma, 0.05);
  }
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [cpus, n] : counts) EXPECT_EQ(n, 10) << cpus << " CPUs";
}

TEST(AssignEqualGroups, OrderedAssignmentIsBlocked) {
  util::Rng rng(2);
  const auto profiles =
      assign_equal_groups(10, {4.0, 1.0}, 0.0, 0.0, rng, /*shuffled=*/false);
  for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(profiles[c].cpus, 4.0);
  for (std::size_t c = 5; c < 10; ++c) EXPECT_EQ(profiles[c].cpus, 1.0);
}

TEST(AssignEqualGroups, ShuffledAssignmentStillBalanced) {
  util::Rng rng(3);
  const auto profiles =
      assign_equal_groups(20, {4.0, 1.0}, 0.0, 0.0, rng, /*shuffled=*/true);
  int fast = 0;
  for (const auto& p : profiles) fast += p.cpus == 4.0;
  EXPECT_EQ(fast, 10);
  // With shuffling, the first half should not be all-fast.
  int fast_first_half = 0;
  for (std::size_t c = 0; c < 10; ++c) fast_first_half += profiles[c].cpus == 4.0;
  EXPECT_NE(fast_first_half, 10);
}

TEST(AssignEqualGroups, EmptyGroupsThrow) {
  util::Rng rng(4);
  EXPECT_THROW(assign_equal_groups(10, {}, 0.0, 0.0, rng),
               std::invalid_argument);
}

// --- latency model --------------------------------------------------------------

TEST(LatencyModel, ExpectedLatencyAffineInSamples) {
  const LatencyModel model(CostModel{0.01, 3.0});
  ResourceProfile profile{.cpus = 2.0, .comm_seconds = 1.0};
  // L = epochs*samples*0.01/2 + 3 + 1.
  EXPECT_DOUBLE_EQ(model.expected_latency(profile, 1000, 1), 9.0);
  EXPECT_DOUBLE_EQ(model.expected_latency(profile, 2000, 1), 14.0);
  EXPECT_DOUBLE_EQ(model.expected_latency(profile, 1000, 2), 14.0);
}

TEST(LatencyModel, MoreCpusIsFaster) {
  const LatencyModel model(CostModel{0.01, 3.0});
  ResourceProfile fast{.cpus = 4.0};
  ResourceProfile slow{.cpus = 0.1};
  EXPECT_LT(model.expected_latency(fast, 1000, 1),
            model.expected_latency(slow, 1000, 1));
  // Compute term scales exactly with 1/cpus.
  EXPECT_NEAR(model.expected_latency(slow, 1000, 1) - 3.0,
              (model.expected_latency(fast, 1000, 1) - 3.0) * 40.0, 1e-9);
}

TEST(LatencyModel, UnavailableClientNeverResponds) {
  const LatencyModel model;
  ResourceProfile gone{.unavailable = true};
  util::Rng rng(5);
  EXPECT_TRUE(std::isinf(model.expected_latency(gone, 10, 1)));
  EXPECT_TRUE(std::isinf(model.sample_latency(gone, 10, 1, rng)));
}

TEST(LatencyModel, JitterIsMeanPreserving) {
  const LatencyModel model(CostModel{0.01, 0.0});
  ResourceProfile profile{.cpus = 1.0, .jitter_sigma = 0.2};
  util::Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += model.sample_latency(profile, 1000, 1, rng);
  }
  EXPECT_NEAR(sum / n, model.expected_latency(profile, 1000, 1), 0.05);
}

TEST(LatencyModel, ZeroJitterSamplesEqualExpectation) {
  const LatencyModel model(CostModel{0.02, 1.0});
  ResourceProfile profile{.cpus = 0.5, .comm_seconds = 0.25,
                          .jitter_sigma = 0.0};
  util::Rng rng(7);
  EXPECT_DOUBLE_EQ(model.sample_latency(profile, 500, 1, rng),
                   model.expected_latency(profile, 500, 1));
}

TEST(LatencyModel, Fig1aShapeNearLinearInDataAndInverseCpu) {
  // Reproduce the case study's qualitative claims (Fig. 1a): with fixed
  // CPU, 10x data -> ~10x compute time; with fixed data, 20x CPU
  // (4 vs 1/5) -> ~20x faster compute.
  const LatencyModel model = LatencyModel(cifar_cost_model());
  ResourceProfile cpu4{.cpus = 4.0};
  ResourceProfile cpu02{.cpus = 0.2};
  const double overhead = model.cost().fixed_overhead;
  const double t500 = model.expected_latency(cpu4, 500, 1) - overhead;
  const double t5000 = model.expected_latency(cpu4, 5000, 1) - overhead;
  EXPECT_NEAR(t5000 / t500, 10.0, 1e-6);
  const double slow = model.expected_latency(cpu02, 1000, 1) - overhead;
  const double fast = model.expected_latency(cpu4, 1000, 1) - overhead;
  EXPECT_NEAR(slow / fast, 20.0, 1e-6);
}

TEST(LatencyModel, PresetsOrdering) {
  // The heavier the workload, the larger the per-sample cost.
  EXPECT_GT(cifar_cost_model().seconds_per_sample,
            mnist_cost_model().seconds_per_sample);
  EXPECT_GE(femnist_cost_model().seconds_per_sample,
            cifar_cost_model().seconds_per_sample);
}

}  // namespace
}  // namespace tifl::sim
