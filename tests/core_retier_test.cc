// OnlineReTierer: re-tiering equivalence with build_tiers on a static
// population, tier-migration invariants, and EMA drift tracking.
#include "core/retier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/profiler.h"
#include "sim/latency_model.h"
#include "test_helpers.h"

namespace tifl::core {
namespace {

using testing::FederationBuilder;
using testing::TinyFederation;

RetierConfig tiers5() {
  RetierConfig config;
  config.num_tiers = 5;
  return config;
}

// Every active client in exactly one tier; inactive clients in none.
void expect_partition_invariants(const TierInfo& tiers,
                                 const std::vector<bool>& inactive) {
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& members : tiers.members) {
    for (std::size_t id : members) {
      EXPECT_FALSE(inactive.at(id)) << "inactive client " << id << " tiered";
      seen.insert(id);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total) << "client in more than one tier";
  std::size_t active = 0;
  for (bool flag : inactive) active += flag ? 0 : 1;
  EXPECT_EQ(total, active) << "active client missing from every tier";
}

TEST(OnlineReTierer, StaticPopulationMatchesBuildTiers) {
  // Seeded from a profile with no observations, rebuild() must reproduce
  // the construction-time tiering exactly — the equivalence that makes
  // --reprofile-every a pure superset of the frozen-tier behaviour.
  TinyFederation fed = FederationBuilder().clients(20).jitter(0.02).build();
  ProfilerConfig profiler;
  profiler.tmax = 1e6;
  util::Rng rng(7);
  const ProfileResult profile =
      profile_clients(fed.clients, fed.latency, profiler, rng);
  const TierInfo reference = build_tiers(profile, 5);

  OnlineReTierer retierer(tiers5(), profile.mean_latency, profile.dropout);
  EXPECT_EQ(retierer.tiers().members, reference.members);
  EXPECT_EQ(retierer.rebuild().members, reference.members);
  expect_partition_invariants(retierer.tiers(), profile.dropout);
}

TEST(OnlineReTierer, LeaversAreExcludedLikeDropouts) {
  std::vector<double> latency{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  OnlineReTierer retierer(tiers5(), latency,
                          std::vector<bool>(latency.size(), false));
  retierer.set_active(3, false);
  retierer.set_active(7, false);
  const TierInfo& tiers = retierer.rebuild();
  expect_partition_invariants(tiers, retierer.inactive());
  EXPECT_EQ(tiers.tier_of(3), tiers.tier_count());
  EXPECT_EQ(tiers.tier_of(7), tiers.tier_count());
}

TEST(OnlineReTierer, RejoinedClientIsTieredAgain) {
  std::vector<double> latency{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<bool> inactive(latency.size(), false);
  inactive[0] = true;  // initial dropout
  OnlineReTierer retierer(tiers5(), latency, inactive);
  EXPECT_EQ(retierer.tiers().tier_of(0), retierer.tiers().tier_count());

  retierer.set_active(0, true);
  retierer.seed_latency(0, 1.5);
  retierer.rebuild();
  expect_partition_invariants(retierer.tiers(), retierer.inactive());
  EXPECT_EQ(retierer.tiers().tier_of(0), 0u);  // fastest tier
}

TEST(OnlineReTierer, ObservationsDecayExponentially) {
  OnlineReTierer retierer({1, TieringStrategy::kQuantile, 0.5}, {10.0},
                          {false});
  retierer.observe(0, 20.0);  // 0.5*10 + 0.5*20
  EXPECT_DOUBLE_EQ(retierer.latency(0), 15.0);
  retierer.observe(0, 15.0);
  EXPECT_DOUBLE_EQ(retierer.latency(0), 15.0);
  retierer.observe(0, 5.0);
  EXPECT_DOUBLE_EQ(retierer.latency(0), 10.0);
}

TEST(OnlineReTierer, DriftMigratesAClientAcrossTiers) {
  // Clients 0..9 with well-separated latencies; client 0 drifts from the
  // fastest to the slowest regime and must migrate on rebuild.
  std::vector<double> latency{1, 1.1, 2, 2.1, 3, 3.1, 4, 4.1, 5, 5.1};
  OnlineReTierer retierer(tiers5(), latency,
                          std::vector<bool>(latency.size(), false));
  EXPECT_EQ(retierer.tiers().tier_of(0), 0u);
  for (int i = 0; i < 20; ++i) retierer.observe(0, 6.0);
  const TierInfo& tiers = retierer.rebuild();
  EXPECT_EQ(tiers.tier_of(0), tiers.tier_count() - 1);
  expect_partition_invariants(tiers, retierer.inactive());
}

TEST(OnlineReTierer, PlacePicksNearestNonEmptyTier) {
  std::vector<double> latency{1, 1, 5, 5, 20, 20};
  OnlineReTierer retierer({3, TieringStrategy::kQuantile, 0.3}, latency,
                          std::vector<bool>(latency.size(), false));
  retierer.seed_latency(0, 4.8);
  EXPECT_EQ(retierer.place(0), 1u);
  retierer.seed_latency(0, 100.0);
  EXPECT_EQ(retierer.place(0), 2u);
  retierer.seed_latency(0, 0.1);
  EXPECT_EQ(retierer.place(0), 0u);
}

TEST(OnlineReTierer, ConstructorValidation) {
  EXPECT_THROW(OnlineReTierer(tiers5(), {1.0}, {false, false}),
               std::invalid_argument);
  EXPECT_THROW(OnlineReTierer(tiers5(), {}, {}), std::invalid_argument);
  RetierConfig bad_alpha = tiers5();
  bad_alpha.ema_alpha = 0.0;
  EXPECT_THROW(OnlineReTierer(bad_alpha, {1.0}, {false}),
               std::invalid_argument);
  RetierConfig no_tiers = tiers5();
  no_tiers.num_tiers = 0;
  EXPECT_THROW(OnlineReTierer(no_tiers, {1.0}, {false}),
               std::invalid_argument);
  OnlineReTierer ok(tiers5(), {1.0, 2.0}, {false, false});
  EXPECT_THROW(ok.observe(0, -1.0), std::invalid_argument);
}

TEST(OnlineReTierer, RestoreRejectsNaNOrNegativeSnapshotLatency) {
  for (const double bad : {std::nan(""), -1.0}) {
    // seed_latency does not validate, so it can write what a corrupt
    // snapshot would hold.
    OnlineReTierer source(tiers5(), {1.0, 2.0}, {false, false});
    source.seed_latency(1, bad);
    util::ByteSink sink;
    source.save_state(sink);
    const std::string bytes = sink.take();
    util::ByteSource in(bytes);
    OnlineReTierer target(tiers5(), {1.0, 2.0}, {false, false});
    EXPECT_THROW(target.restore_state(in), std::runtime_error) << bad;
    EXPECT_EQ(target.latency(1), 2.0);
  }
}

TEST(OnlineReTierer, RebuildWithEveryoneInactiveThrows) {
  OnlineReTierer retierer(tiers5(), {1.0, 2.0}, {false, false});
  retierer.set_active(0, false);
  retierer.set_active(1, false);
  EXPECT_THROW(retierer.rebuild(), std::invalid_argument);
}

}  // namespace
}  // namespace tifl::core
