#include "core/tiering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "test_helpers.h"

namespace tifl::core {
namespace {

TierInfo tiers_of(const std::vector<double>& latencies, std::size_t m,
                  TieringStrategy strategy = TieringStrategy::kQuantile) {
  const std::vector<bool> dropout(latencies.size(), false);
  return build_tiers(latencies, dropout, m, strategy);
}

TEST(Tiering, FiveDistinctGroupsSplitPerfectlyUnderQuantile) {
  // The paper's testbed: 5 equal resource groups with well-separated
  // latencies.  Quantile binning recovers them exactly.
  std::vector<double> latencies;
  for (double base : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    for (int i = 0; i < 10; ++i) latencies.push_back(base + 0.01 * i);
  }
  const TierInfo info = tiers_of(latencies, 5, TieringStrategy::kQuantile);
  ASSERT_EQ(info.tier_count(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    ASSERT_EQ(info.members[t].size(), 10u) << "tier " << t;
    // Tier t contains exactly clients 10t..10t+9.
    EXPECT_EQ(info.members[t].front(), t * 10);
    EXPECT_EQ(info.members[t].back(), t * 10 + 9);
  }
}

TEST(Tiering, EqualWidthMergesGeometricGroupsButKeepsEveryClient) {
  // With geometrically spaced group latencies (1/2/4/8/16), equal-width
  // bins lump the fast groups together — the reason quantile is the
  // default.  The split must still be a valid partition of all clients.
  std::vector<double> latencies;
  for (double base : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    for (int i = 0; i < 10; ++i) latencies.push_back(base + 0.01 * i);
  }
  const TierInfo info = tiers_of(latencies, 5, TieringStrategy::kEqualWidth);
  std::size_t total = 0;
  for (const auto& tier : info.members) total += tier.size();
  EXPECT_EQ(total, 50u);
  // Groups at 1.x and 2.x fall in the same first-fifth-width bin.
  EXPECT_GE(info.members[0].size(), 20u);
  // The slowest group is isolated in the last bin.
  EXPECT_EQ(info.members[4].size(), 10u);
}

TEST(Tiering, AvgLatencyIsMonotoneAcrossTiers) {
  util::Rng rng(1);
  std::vector<double> latencies(100);
  for (double& l : latencies) l = rng.lognormal(2.0, 0.8);
  const TierInfo info = tiers_of(latencies, 5);
  for (std::size_t t = 1; t < info.tier_count(); ++t) {
    if (info.members[t].empty() || info.members[t - 1].empty()) continue;
    EXPECT_GT(info.avg_latency[t], info.avg_latency[t - 1]);
  }
}

TEST(Tiering, SlowerClientNeverInFasterTier) {
  // Monotonicity invariant: latency(a) < latency(b) => tier(a) <= tier(b).
  util::Rng rng(2);
  std::vector<double> latencies(60);
  for (double& l : latencies) l = rng.uniform(1.0, 50.0);
  const TierInfo info = tiers_of(latencies, 4);
  for (std::size_t a = 0; a < latencies.size(); ++a) {
    for (std::size_t b = 0; b < latencies.size(); ++b) {
      if (latencies[a] < latencies[b]) {
        EXPECT_LE(info.tier_of(a), info.tier_of(b));
      }
    }
  }
}

TEST(Tiering, QuantileTiersAreBalanced) {
  util::Rng rng(3);
  std::vector<double> latencies(250);
  for (double& l : latencies) l = rng.lognormal(0.0, 1.0);
  const TierInfo info = tiers_of(latencies, 5, TieringStrategy::kQuantile);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_NEAR(static_cast<double>(info.members[t].size()), 50.0, 2.0);
  }
}

TEST(Tiering, DropoutsAreExcludedFromAllTiers) {
  std::vector<double> latencies{1, 2, 3, 4, 100, 5};
  std::vector<bool> dropout{false, false, false, false, true, false};
  const TierInfo info = build_tiers(latencies, dropout, 2);
  ASSERT_EQ(info.dropouts.size(), 1u);
  EXPECT_EQ(info.dropouts[0], 4u);
  EXPECT_EQ(info.tier_of(4), info.tier_count());  // not in any tier
  std::size_t members = 0;
  for (const auto& tier : info.members) members += tier.size();
  EXPECT_EQ(members, 5u);
}

TEST(Tiering, TierOfFindsMembers) {
  const TierInfo info = tiers_of({1.0, 10.0, 1.1, 9.5}, 2);
  EXPECT_EQ(info.tier_of(0), 0u);
  EXPECT_EQ(info.tier_of(2), 0u);
  EXPECT_EQ(info.tier_of(1), 1u);
  EXPECT_EQ(info.tier_of(3), 1u);
  EXPECT_EQ(info.tier_of(99), 2u);  // unknown
}

TEST(Tiering, SingleTierHoldsEveryone) {
  const TierInfo info = tiers_of({5.0, 1.0, 3.0}, 1);
  EXPECT_EQ(info.members[0].size(), 3u);
  EXPECT_NEAR(info.avg_latency[0], 3.0, 1e-9);
}

TEST(Tiering, IdenticalLatenciesAllLandInOneTier) {
  const TierInfo info = tiers_of(std::vector<double>(10, 7.0), 3);
  std::size_t total = 0;
  for (const auto& tier : info.members) total += tier.size();
  EXPECT_EQ(total, 10u);
}

TEST(Tiering, ErrorsOnBadInput) {
  std::vector<double> latencies{1.0, 2.0};
  std::vector<bool> dropout{false};
  EXPECT_THROW(build_tiers(latencies, dropout, 2), std::invalid_argument);

  std::vector<bool> all_drop{true, true};
  EXPECT_THROW(build_tiers(latencies, all_drop, 2), std::invalid_argument);

  std::vector<bool> ok{false, false};
  EXPECT_THROW(build_tiers(latencies, ok, 0), std::invalid_argument);

  // A NaN latency has no tier; a dropped-out client's is never read.
  const std::vector<double> with_nan{1.0, std::nan(""), 2.0};
  EXPECT_THROW(build_tiers(with_nan, {false, false, false}, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(build_tiers(with_nan, {false, true, false}, 2));
}

TEST(Tiering, MembersAreListedInAscendingIdOrder) {
  util::Rng rng(8);
  std::vector<double> latencies(500);
  std::vector<bool> dropout(latencies.size());
  for (std::size_t c = 0; c < latencies.size(); ++c) {
    latencies[c] = rng.lognormal(1.0, 1.0);
    dropout[c] = c % 17 == 3;
  }
  for (const TieringStrategy strategy :
       {TieringStrategy::kQuantile, TieringStrategy::kEqualWidth}) {
    const TierInfo info = build_tiers(latencies, dropout, 5, strategy);
    for (const std::vector<std::size_t>& members : info.members) {
      EXPECT_TRUE(std::adjacent_find(members.begin(), members.end(),
                                     std::greater_equal<>()) ==
                  members.end());
    }
  }
}

TEST(Tiering, EndToEndFromProfilerMatchesResourceGroups) {
  // Profile a jitter-free federation and check tiers == resource groups.
  testing::TinyFederation fed = testing::tiny_federation(20);
  ProfilerConfig config;
  config.tmax = 1e6;
  util::Rng rng(4);
  const ProfileResult profile =
      profile_clients(fed.clients, fed.latency, config, rng);
  const TierInfo info = build_tiers(profile, 5);
  // tiny_federation assigns 5 CPU groups in blocks of 4, but tier order is
  // by latency; data sizes are near-equal so groups map to tiers directly.
  ASSERT_EQ(info.tier_count(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_EQ(info.members[t].size(), 4u) << "tier " << t;
  }
  // Fastest tier = 4-CPU clients 0..3.
  EXPECT_EQ(info.members[0], (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(info.members[4], (std::vector<std::size_t>{16, 17, 18, 19}));
}

TEST(Tiering, ToStringMentionsEveryTier) {
  const TierInfo info = tiers_of({1, 2, 3, 4, 5, 6}, 3);
  const std::string s = info.to_string();
  EXPECT_NE(s.find("tier 1"), std::string::npos);
  EXPECT_NE(s.find("tier 3"), std::string::npos);
}

}  // namespace
}  // namespace tifl::core
