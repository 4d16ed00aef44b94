#include "core/adaptive_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace tifl::core {
namespace {

TierInfo synthetic_tiers(std::size_t tiers = 5, std::size_t per_tier = 10) {
  TierInfo info;
  info.members.resize(tiers);
  info.avg_latency.resize(tiers);
  std::size_t id = 0;
  for (std::size_t t = 0; t < tiers; ++t) {
    for (std::size_t i = 0; i < per_tier; ++i) info.members[t].push_back(id++);
    info.avg_latency[t] = static_cast<double>(t + 1);
  }
  return info;
}

fl::RoundFeedback feedback(std::vector<double> accs, std::size_t round = 0) {
  fl::RoundFeedback f;
  f.round = round;
  f.tier_accuracies = std::move(accs);
  return f;
}

TEST(DefaultCredits, HalvingScheduleSumsToRoughlyTwiceRounds) {
  const std::vector<double> credits = default_credits(500, 5);
  ASSERT_EQ(credits.size(), 5u);
  EXPECT_EQ(credits[0], 500.0);
  EXPECT_EQ(credits[1], 250.0);
  EXPECT_EQ(credits[4], std::ceil(500.0 / 16.0));
  const double total = std::accumulate(credits.begin(), credits.end(), 0.0);
  EXPECT_GT(total, 500.0);  // selection can never deadlock mid-run
}

TEST(Adaptive, InitialProbabilitiesAreEqual) {
  AdaptiveTierPolicy policy(synthetic_tiers(), AdaptiveConfig{}, 100);
  for (double p : policy.probs()) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(Adaptive, SelectionStaysWithinOneTier) {
  AdaptiveTierPolicy policy(synthetic_tiers(), AdaptiveConfig{}, 100);
  util::Rng rng(1);
  const TierInfo tiers = synthetic_tiers();
  for (std::size_t round = 0; round < 100; ++round) {
    const fl::Selection s = policy.select(round, rng);
    policy.observe(feedback({0.5, 0.5, 0.5, 0.5, 0.5}, round));
    ASSERT_EQ(s.clients.size(), 5u);
    const auto& pool = tiers.members[static_cast<std::size_t>(s.tier)];
    for (std::size_t c : s.clients) {
      EXPECT_TRUE(std::find(pool.begin(), pool.end(), c) != pool.end());
    }
  }
}

TEST(Adaptive, CreditsDecrementOnSelection) {
  AdaptiveConfig config;
  config.credits = {10, 10, 10, 10, 10};
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 50);
  util::Rng rng(2);
  const fl::Selection s = policy.select(0, rng);
  const double remaining =
      policy.credits()[static_cast<std::size_t>(s.tier)];
  EXPECT_DOUBLE_EQ(remaining, 9.0);
}

TEST(Adaptive, ExhaustedTierIsNeverSelectedAgain) {
  AdaptiveConfig config;
  config.credits = {2, 100, 100, 100, 100};  // tier 0 nearly spent
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 200);
  util::Rng rng(3);
  int tier0_picks = 0;
  for (std::size_t round = 0; round < 200; ++round) {
    const fl::Selection s = policy.select(round, rng);
    policy.observe(feedback({0.9, 0.1, 0.1, 0.1, 0.1}, round));
    if (s.tier == 0) ++tier0_picks;
  }
  EXPECT_EQ(tier0_picks, 2);
}

TEST(Adaptive, TotalSelectionsPerTierBoundedByInitialCredits) {
  AdaptiveConfig config;
  config.credits = {5, 5, 5, 5, 100};
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 60);
  util::Rng rng(4);
  std::vector<int> picks(5, 0);
  for (std::size_t round = 0; round < 60; ++round) {
    const fl::Selection s = policy.select(round, rng);
    policy.observe(feedback({0.5, 0.5, 0.5, 0.5, 0.5}, round));
    ++picks[static_cast<std::size_t>(s.tier)];
  }
  for (std::size_t t = 0; t < 4; ++t) EXPECT_LE(picks[t], 5) << "tier " << t;
}

TEST(Adaptive, ChangeProbsBoostsLowAccuracyTier) {
  AdaptiveConfig config;
  config.interval = 5;
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  util::Rng rng(5);
  // Tier 3 lags badly; others are fine.  Accuracy never improves, so at
  // round 5 ChangeProbs must fire and re-weight toward tier 3.
  for (std::size_t round = 0; round < 12; ++round) {
    policy.select(round, rng);
    policy.observe(feedback({0.9, 0.9, 0.9, 0.2, 0.9}, round));
  }
  EXPECT_GE(policy.change_probs_invocations(), 1u);
  const std::vector<double>& probs = policy.probs();
  for (std::size_t t = 0; t < 5; ++t) {
    if (t != 3) {
      EXPECT_GT(probs[3], probs[t]) << "tier " << t;
    }
  }
  // Still a distribution.
  EXPECT_NEAR(std::accumulate(probs.begin(), probs.end(), 0.0), 1.0, 1e-9);
}

TEST(Adaptive, NoChangeWhileAccuracyImproves) {
  AdaptiveConfig config;
  config.interval = 4;
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  util::Rng rng(6);
  // Monotonically improving accuracy on every tier: the stall condition
  // A_cur^r <= A_cur^{r-I} never holds, so probabilities stay equal.
  for (std::size_t round = 0; round < 20; ++round) {
    policy.select(round, rng);
    const double acc = 0.1 + 0.04 * static_cast<double>(round);
    policy.observe(feedback({acc, acc, acc, acc, acc}, round));
  }
  EXPECT_EQ(policy.change_probs_invocations(), 0u);
  for (double p : policy.probs()) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(Adaptive, RankRuleOrdersByAccuracy) {
  AdaptiveConfig config;
  config.interval = 2;
  config.prob_rule = AdaptiveConfig::ProbRule::kRank;
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  util::Rng rng(7);
  for (std::size_t round = 0; round < 6; ++round) {
    policy.select(round, rng);
    policy.observe(feedback({0.9, 0.7, 0.5, 0.3, 0.1}, round));
  }
  ASSERT_GE(policy.change_probs_invocations(), 1u);
  const auto& probs = policy.probs();
  // Strictly increasing probability from best tier (0) to worst (4).
  for (std::size_t t = 1; t < 5; ++t) EXPECT_GT(probs[t], probs[t - 1]);
  // Rank weights are T..1 normalized: worst tier gets 5/15.
  EXPECT_NEAR(probs[4], 5.0 / 15.0, 1e-9);
}

TEST(Adaptive, ExhaustedTierGetsZeroProbabilityAfterChange) {
  AdaptiveConfig config;
  config.interval = 2;
  config.credits = {0, 10, 10, 10, 10};  // tier 0 spent from the start
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  util::Rng rng(8);
  for (std::size_t round = 0; round < 6; ++round) {
    const fl::Selection s = policy.select(round, rng);
    EXPECT_NE(s.tier, 0);
    policy.observe(feedback({0.1, 0.9, 0.9, 0.9, 0.9}, round));
  }
  // Even though tier 0 has the worst accuracy, its credits are gone.
  if (policy.change_probs_invocations() > 0) {
    EXPECT_DOUBLE_EQ(policy.probs()[0], 0.0);
  }
}

TEST(Adaptive, AllCreditsExhaustedRecoversInsteadOfHanging) {
  AdaptiveConfig config;
  config.credits = {1, 1, 1, 1, 1};  // 5 credits, 10 rounds
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 10);
  util::Rng rng(9);
  for (std::size_t round = 0; round < 10; ++round) {
    EXPECT_NO_THROW(policy.select(round, rng));
    policy.observe(feedback({0.5, 0.5, 0.5, 0.5, 0.5}, round));
  }
}

TEST(Adaptive, UndersizedTierIsIneligible) {
  TierInfo tiers = synthetic_tiers(3, 6);
  tiers.members[1].resize(2);  // cannot fill |C| = 5
  AdaptiveConfig config;
  config.clients_per_round = 5;
  AdaptiveTierPolicy policy(tiers, config, 50);
  util::Rng rng(10);
  for (std::size_t round = 0; round < 50; ++round) {
    EXPECT_NE(policy.select(round, rng).tier, 1);
    policy.observe(feedback({0.5, 0.0, 0.5}, round));
  }
}

TEST(Adaptive, MissingTierFeedbackCarriesForward) {
  AdaptiveConfig config;
  config.interval = 3;
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  util::Rng rng(11);
  policy.select(0, rng);
  policy.observe(feedback({0.9, 0.9, 0.9, 0.1, 0.9}, 0));
  // Subsequent rounds deliver no tier accuracies (eval_every > 1).
  for (std::size_t round = 1; round < 9; ++round) {
    policy.select(round, rng);
    fl::RoundFeedback empty;
    empty.round = round;
    policy.observe(empty);
  }
  // Stalled (carried-forward) accuracy triggers ChangeProbs eventually.
  EXPECT_GE(policy.change_probs_invocations(), 1u);
}

TEST(Adaptive, ConstructionErrors) {
  EXPECT_THROW(AdaptiveTierPolicy(TierInfo{}, AdaptiveConfig{}, 10),
               std::invalid_argument);
  AdaptiveConfig bad_interval;
  bad_interval.interval = 0;
  EXPECT_THROW(AdaptiveTierPolicy(synthetic_tiers(), bad_interval, 10),
               std::invalid_argument);
  AdaptiveConfig bad_credits;
  bad_credits.credits = {1.0, 2.0};  // wrong arity for 5 tiers
  EXPECT_THROW(AdaptiveTierPolicy(synthetic_tiers(), bad_credits, 10),
               std::invalid_argument);
}

TEST(Adaptive, FeedbackArityMismatchThrows) {
  AdaptiveTierPolicy policy(synthetic_tiers(), AdaptiveConfig{}, 10);
  EXPECT_THROW(policy.observe(feedback({0.5, 0.5})), std::invalid_argument);
}

// --- async (per-tier cadence) mode -------------------------------------------

fl::SelectionContext tier_context(std::size_t tier,
                                  std::span<const std::size_t> candidates,
                                  util::Rng& rng, std::size_t version = 0) {
  fl::SelectionContext context;
  context.round = version;
  context.tier = static_cast<int>(tier);
  context.candidates = fl::Candidates(candidates);
  context.rng = &rng;
  return context;
}

TEST(AdaptiveAsync, UniformProbabilitiesReproduceDefaultShare) {
  // p_t = 1/T makes round(p_t * T * |C|) == |C| — the engine's default.
  AdaptiveTierPolicy policy(synthetic_tiers(), AdaptiveConfig{}, 100);
  const TierInfo tiers = synthetic_tiers();
  util::Rng rng(20);
  for (std::size_t t = 0; t < 5; ++t) {
    const fl::Selection s =
        policy.select(tier_context(t, tiers.members[t], rng));
    EXPECT_EQ(s.tier, static_cast<int>(t));
    EXPECT_EQ(s.clients.size(), 5u);
    for (std::size_t c : s.clients) {
      EXPECT_TRUE(std::find(tiers.members[t].begin(), tiers.members[t].end(),
                            c) != tiers.members[t].end());
    }
  }
}

TEST(AdaptiveAsync, ChangeProbsShiftsPerTierShares) {
  AdaptiveConfig config;
  config.interval = 2;
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  const TierInfo tiers = synthetic_tiers();
  util::Rng rng(21);
  // Tier 4 lags; stalled accuracy at version 2 triggers ChangeProbs.
  for (std::size_t version = 0; version < 4; ++version) {
    policy.select(tier_context(0, tiers.members[0], rng, version));
    fl::RoundFeedback f = feedback({0.9, 0.9, 0.9, 0.9, 0.1}, version);
    f.submitting_tier = 0;
    policy.observe(f);
  }
  // The stall test runs at the next interval-aligned select (version 4):
  // the lagging tier's share then exceeds the default |C| = 5 (capped at
  // its live member count); a healthy tier's share rounds to zero and
  // parks.
  const fl::Selection lagging =
      policy.select(tier_context(4, tiers.members[4], rng, 4));
  ASSERT_GE(policy.change_probs_invocations(), 1u);
  EXPECT_GT(lagging.clients.size(), 5u);
  const fl::Selection healthy =
      policy.select(tier_context(0, tiers.members[0], rng, 5));
  EXPECT_TRUE(healthy.clients.empty());
}

TEST(AdaptiveAsync, ExhaustedCreditsThrottleToSingleMember) {
  AdaptiveConfig config;
  config.credits = {1, 100, 100, 100, 100};
  AdaptiveTierPolicy policy(synthetic_tiers(), config, 100);
  const TierInfo tiers = synthetic_tiers();
  util::Rng rng(22);
  // First tier-0 dispatch spends its only credit at the default share.
  EXPECT_EQ(policy.select(tier_context(0, tiers.members[0], rng, 0))
                .clients.size(),
            5u);
  // Out of credits: throttled to one member; credits stay at zero.
  EXPECT_EQ(policy.select(tier_context(0, tiers.members[0], rng, 1))
                .clients.size(),
            1u);
  EXPECT_DOUBLE_EQ(policy.credits()[0], 0.0);
}

TEST(AdaptiveAsync, EmptyCandidatesParkTheTier) {
  AdaptiveTierPolicy policy(synthetic_tiers(), AdaptiveConfig{}, 100);
  util::Rng rng(23);
  const std::vector<std::size_t> none;
  EXPECT_TRUE(policy.select(tier_context(2, none, rng)).clients.empty());
}

TEST(AdaptiveAsync, SyncEligibilityRestoredAfterAsyncSelects) {
  // Eligibility mode is per call, not sticky: after serving an async
  // dispatch, a sync select on the same instance must still refuse tiers
  // that cannot fill |C| (sampling from one would throw).
  TierInfo tiers = synthetic_tiers(3, 6);
  tiers.members[1].resize(2);  // below |C| = 5
  AdaptiveConfig config;
  config.clients_per_round = 5;
  AdaptiveTierPolicy policy(tiers, config, 50);
  util::Rng rng(24);
  policy.select(tier_context(1, tiers.members[1], rng));  // async, relaxed
  for (std::size_t round = 0; round < 30; ++round) {
    fl::Selection s;
    ASSERT_NO_THROW(s = policy.select(round, rng));
    EXPECT_NE(s.tier, 1);
    policy.observe(feedback({0.5, 0.0, 0.5}, round));
  }
}

TEST(AdaptiveAsync, LifecycleNotificationsTrackMembership) {
  TierInfo tiers = synthetic_tiers(2, 3);  // tiers {0,1,2} and {3,4,5}
  AdaptiveConfig config;
  config.clients_per_round = 2;
  AdaptiveTierPolicy policy(tiers, config, 50);
  policy.on_leave(4);
  policy.on_join(7, 0);
  std::vector<std::vector<std::size_t>> retiered{{0, 1, 7}, {2, 3, 5}};
  EXPECT_NO_THROW(policy.on_retier(retiered));
  std::vector<std::vector<std::size_t>> wrong_count{{0, 1, 2}};
  EXPECT_THROW(policy.on_retier(wrong_count), std::invalid_argument);
}

}  // namespace
}  // namespace tifl::core
