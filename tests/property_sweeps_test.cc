// Cross-module property sweeps: the suite's invariants checked over
// parameter grids rather than single configurations (gtest TEST_P).
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "core/adaptive_policy.h"
#include "core/static_policy.h"
#include "core/tiering.h"
#include "test_helpers.h"

namespace tifl {
namespace {

// --- engine invariants over (clients_per_round, eval_every) -----------------

using EngineGrid = std::tuple<std::size_t, std::size_t>;

class EngineSweep : public ::testing::TestWithParam<EngineGrid> {};

TEST_P(EngineSweep, RunInvariantsHold) {
  const auto [per_round, eval_every] = GetParam();
  testing::TinyFederation fed = testing::tiny_federation(12);
  fl::EngineConfig config = testing::tiny_engine_config(6);
  config.eval_every = eval_every;
  fl::Engine engine(config, testing::tiny_factory(), fed.clients,
                    &fed.data.test, fed.latency);
  fl::VanillaPolicy policy(fed.clients.size(), per_round);
  const fl::RunResult result = engine.run(policy);

  ASSERT_EQ(result.rounds.size(), 6u);
  double last_time = 0.0;
  for (const fl::RoundRecord& r : result.rounds) {
    EXPECT_EQ(r.selected_clients.size(), per_round);
    EXPECT_GT(r.round_latency, 0.0);
    EXPECT_GT(r.virtual_time, last_time);
    last_time = r.virtual_time;
    EXPECT_GE(r.global_accuracy, 0.0);
    EXPECT_LE(r.global_accuracy, 1.0);
    // No duplicate clients within a round.
    const std::set<std::size_t> unique(r.selected_clients.begin(),
                                       r.selected_clients.end());
    EXPECT_EQ(unique.size(), per_round);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Combine(::testing::Values(1, 3, 6),      // clients per round
                       ::testing::Values(1, 2, 5)));    // eval cadence

// --- tiering invariants over (clients, tiers, strategy) ----------------------

using TieringGrid = std::tuple<std::size_t, std::size_t, int>;

class TieringSweep : public ::testing::TestWithParam<TieringGrid> {};

TEST_P(TieringSweep, PartitionAndMonotonicity) {
  const auto [num_clients, tiers, strategy_int] = GetParam();
  const auto strategy = static_cast<core::TieringStrategy>(strategy_int);
  util::Rng rng(util::mix_seed(num_clients, tiers, strategy_int));
  std::vector<double> latency(num_clients);
  for (double& l : latency) l = rng.lognormal(1.0, 0.9);
  const std::vector<bool> dropout(num_clients, false);
  const core::TierInfo info =
      core::build_tiers(latency, dropout, tiers, strategy);

  // Every client in exactly one tier.
  std::vector<int> seen(num_clients, 0);
  for (const auto& tier : info.members) {
    for (std::size_t c : tier) ++seen[c];
  }
  for (int s : seen) EXPECT_EQ(s, 1);

  // Monotone averages over non-empty tiers.
  double last = -1.0;
  for (std::size_t t = 0; t < info.tier_count(); ++t) {
    if (info.members[t].empty()) continue;
    EXPECT_GT(info.avg_latency[t], last);
    last = info.avg_latency[t];
  }

  // No inversion: faster client never in a slower tier.
  for (std::size_t t = 0; t + 1 < info.tier_count(); ++t) {
    if (info.members[t].empty()) continue;
    double tier_max = 0.0;
    for (std::size_t c : info.members[t]) {
      tier_max = std::max(tier_max, latency[c]);
    }
    for (std::size_t u = t + 1; u < info.tier_count(); ++u) {
      for (std::size_t c : info.members[u]) {
        EXPECT_GE(latency[c], tier_max - 1e-12);
      }
      if (!info.members[u].empty()) break;  // adjacent non-empty only
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TieringSweep,
    ::testing::Combine(::testing::Values(10, 50, 137),  // clients
                       ::testing::Values(1, 3, 5, 10),  // tiers
                       ::testing::Values(0, 1)));       // strategy

// --- static policy invariants over every Table 1 preset -----------------------

class Table1Sweep : public ::testing::TestWithParam<const char*> {};

TEST_P(Table1Sweep, SelectionsHonorPresetSupport) {
  const std::string preset = GetParam();
  core::TierInfo tiers;
  tiers.members.resize(5);
  tiers.avg_latency.resize(5);
  std::size_t id = 0;
  for (auto& tier : tiers.members) {
    for (int i = 0; i < 8; ++i) tier.push_back(id++);
  }
  const std::vector<double> probs = core::table1_probs(preset);
  core::StaticTierPolicy policy(tiers, probs, 4, preset);
  util::Rng rng(3);
  std::vector<int> counts(5, 0);
  for (std::size_t round = 0; round < 2000; ++round) {
    const fl::Selection s = policy.select(round, rng);
    ++counts[static_cast<std::size_t>(s.tier)];
  }
  for (std::size_t t = 0; t < 5; ++t) {
    if (probs[t] == 0.0) {
      EXPECT_EQ(counts[t], 0) << preset << " tier " << t;
    } else {
      EXPECT_GT(counts[t], 0) << preset << " tier " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, Table1Sweep,
                         ::testing::Values("slow", "uniform", "random",
                                           "fast", "fast1", "fast2",
                                           "fast3"));

// --- adaptive invariants over (rule, interval) --------------------------------

using AdaptiveGrid = std::tuple<int, std::size_t>;

class AdaptiveSweep : public ::testing::TestWithParam<AdaptiveGrid> {};

TEST_P(AdaptiveSweep, ProbabilitiesStayADistributionAndCreditsNonNegative) {
  const auto [rule_int, interval] = GetParam();
  core::TierInfo tiers;
  tiers.members.resize(5);
  tiers.avg_latency.resize(5);
  std::size_t id = 0;
  for (auto& tier : tiers.members) {
    for (int i = 0; i < 10; ++i) tier.push_back(id++);
  }
  core::AdaptiveConfig config;
  config.clients_per_round = 5;
  config.interval = interval;
  config.prob_rule = static_cast<core::AdaptiveConfig::ProbRule>(rule_int);
  core::AdaptiveTierPolicy policy(tiers, config, 80);
  util::Rng rng(util::mix_seed(rule_int, interval));

  for (std::size_t round = 0; round < 80; ++round) {
    const fl::Selection s = policy.select(round, rng);
    EXPECT_EQ(s.clients.size(), 5u);
    // Noisy, tier-dependent accuracies to keep ChangeProbs busy.
    std::vector<double> accs(5);
    for (std::size_t t = 0; t < 5; ++t) {
      accs[t] = 0.3 + 0.1 * static_cast<double>(t) + 0.05 * rng.uniform();
    }
    fl::RoundFeedback feedback;
    feedback.round = round;
    feedback.tier_accuracies = accs;
    policy.observe(feedback);

    const double total = std::accumulate(policy.probs().begin(),
                                         policy.probs().end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double credit : policy.credits()) EXPECT_GE(credit, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AdaptiveSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(2, 7, 40)));

// --- local training invariants over (epochs, batch size) ----------------------

using TrainGrid = std::tuple<std::size_t, std::size_t>;

class LocalTrainSweep : public ::testing::TestWithParam<TrainGrid> {};

TEST_P(LocalTrainSweep, UpdateReportsShardAndChangesWeights) {
  const auto [epochs, batch] = GetParam();
  testing::TinyFederation fed = testing::tiny_federation(6);
  nn::Sequential model = testing::tiny_factory()(1);
  const std::vector<float> global = model.weights();
  fl::LocalTrainParams params;
  params.epochs = epochs;
  params.batch_size = batch;
  params.lr = 0.01;
  const fl::LocalUpdate update = fed.clients[1].local_update(
      global, model, params, util::Rng(util::mix_seed(epochs, batch)));
  EXPECT_EQ(update.num_samples, fed.clients[1].train_size());
  EXPECT_NE(update.weights, global);
  EXPECT_GT(update.train_loss, 0.0);
  EXPECT_GE(update.train_accuracy, 0.0);
  EXPECT_LE(update.train_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, LocalTrainSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 7, 10,
                                                              1000)));

}  // namespace
}  // namespace tifl
