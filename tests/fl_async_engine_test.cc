#include "fl/async_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "core/adaptive_policy.h"
#include "core/static_policy.h"
#include "test_helpers.h"

namespace tifl::fl {
namespace {

using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::FederationBuilder;
using testing::TinyFederation;

// One tier holding every client, in id order — the degenerate tiering
// under which async execution must reduce to the sync engine.
std::vector<std::vector<std::size_t>> single_tier(std::size_t n) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return {std::move(all)};
}

AsyncConfig tiny_async_config(std::size_t updates = 10) {
  AsyncConfig async;
  async.total_updates = updates;
  async.clients_per_tier_round = 3;
  async.eval_every = 1;
  return async;
}

// --- staleness weighting ----------------------------------------------------

TEST(StalenessFn, ParseRoundTripsAndRejectsUnknown) {
  for (StalenessFn fn : {StalenessFn::kConstant, StalenessFn::kPolynomial,
                         StalenessFn::kInverseFrequency}) {
    EXPECT_EQ(parse_staleness(staleness_name(fn)), fn);
  }
  EXPECT_EQ(parse_staleness("polynomial"), StalenessFn::kPolynomial);
  EXPECT_EQ(parse_staleness("fedat"), StalenessFn::kInverseFrequency);
  EXPECT_THROW(parse_staleness("bogus"), std::invalid_argument);
}

TEST(StalenessFn, FactorDecaysPolynomiallyOnly) {
  EXPECT_DOUBLE_EQ(staleness_factor(StalenessFn::kConstant, 0.5, 9), 1.0);
  EXPECT_DOUBLE_EQ(staleness_factor(StalenessFn::kInverseFrequency, 0.5, 9),
                   1.0);
  EXPECT_DOUBLE_EQ(staleness_factor(StalenessFn::kPolynomial, 1.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_factor(StalenessFn::kPolynomial, 1.0, 3), 0.25);
  EXPECT_DOUBLE_EQ(staleness_factor(StalenessFn::kPolynomial, 0.5, 3), 0.5);
}

TEST(CrossTierWeights, ConstantSplitsEvenlyAndSumsToOne) {
  const std::vector<std::size_t> updates{2, 3, 5};
  const std::vector<std::size_t> staleness{0, 1, 4};
  const std::vector<double> w =
      cross_tier_weights(StalenessFn::kConstant, 0.5, updates, staleness);
  ASSERT_EQ(w.size(), 3u);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(std::accumulate(w.begin(), w.end(), 0.0), 1.0);
}

TEST(CrossTierWeights, PolynomialDiscountsStaleModels) {
  // alpha = 1: weights proportional to {1, 1/4} -> {0.8, 0.2}.
  const std::vector<std::size_t> updates{1, 1};
  const std::vector<std::size_t> staleness{0, 3};
  const std::vector<double> w =
      cross_tier_weights(StalenessFn::kPolynomial, 1.0, updates, staleness);
  EXPECT_DOUBLE_EQ(w[0], 0.8);
  EXPECT_DOUBLE_EQ(w[1], 0.2);
}

TEST(CrossTierWeights, InverseFrequencyBoostsRareTiers) {
  // FedAT-style: weights proportional to {1, 5} for updates {5, 1}.
  const std::vector<std::size_t> updates{5, 1};
  const std::vector<std::size_t> staleness{0, 2};
  const std::vector<double> w = cross_tier_weights(
      StalenessFn::kInverseFrequency, 0.5, updates, staleness);
  EXPECT_DOUBLE_EQ(w[0], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(w[1], 5.0 / 6.0);
  EXPECT_GT(w[1], w[0]);
}

TEST(CrossTierWeights, UnsubmittedTiersGetZeroRestSumToOne) {
  const std::vector<std::size_t> updates{4, 0, 2};
  const std::vector<std::size_t> staleness{0, 0, 1};
  for (StalenessFn fn : {StalenessFn::kConstant, StalenessFn::kPolynomial,
                         StalenessFn::kInverseFrequency}) {
    const std::vector<double> w = cross_tier_weights(fn, 1.0, updates,
                                                     staleness);
    EXPECT_DOUBLE_EQ(w[1], 0.0) << staleness_name(fn);
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12)
        << staleness_name(fn);
  }
}

TEST(CrossTierWeights, SizeMismatchThrows) {
  const std::vector<std::size_t> updates{1, 2};
  const std::vector<std::size_t> staleness{0};
  EXPECT_THROW(
      cross_tier_weights(StalenessFn::kConstant, 0.5, updates, staleness),
      std::invalid_argument);
}

TEST(CrossTierWeights, AllZeroUpdateCountsYieldAllZeroWeights) {
  // Before any tier submits there is no model to average: every weight
  // must be exactly 0 (no normalization against a zero total).
  const std::vector<std::size_t> updates{0, 0, 0};
  const std::vector<std::size_t> staleness{0, 0, 0};
  for (StalenessFn fn : {StalenessFn::kConstant, StalenessFn::kPolynomial,
                         StalenessFn::kInverseFrequency}) {
    const std::vector<double> w =
        cross_tier_weights(fn, 1.0, updates, staleness);
    ASSERT_EQ(w.size(), 3u) << staleness_name(fn);
    for (double v : w) EXPECT_DOUBLE_EQ(v, 0.0) << staleness_name(fn);
  }
}

TEST(CrossTierWeights, SingleSubmittedTierTakesAllMass) {
  const std::vector<std::size_t> updates{0, 7, 0};
  const std::vector<std::size_t> staleness{0, 3, 0};
  for (StalenessFn fn : {StalenessFn::kConstant, StalenessFn::kPolynomial,
                         StalenessFn::kInverseFrequency}) {
    const std::vector<double> w =
        cross_tier_weights(fn, 1.0, updates, staleness);
    EXPECT_DOUBLE_EQ(w[0], 0.0) << staleness_name(fn);
    EXPECT_DOUBLE_EQ(w[1], 1.0) << staleness_name(fn);
    EXPECT_DOUBLE_EQ(w[2], 0.0) << staleness_name(fn);
  }
}

TEST(CrossTierWeights, MixedZeroNonzeroKeepsZerosPinnedUnderInvFreq) {
  // Inverse frequency boosts rare submitters — but a *never*-submitted
  // tier must stay at exactly 0 even though u_max - 0 is the largest
  // boost, and the submitted tiers' weights still sum to 1.
  const std::vector<std::size_t> updates{9, 0, 1, 0, 3};
  const std::vector<std::size_t> staleness{0, 0, 6, 0, 2};
  const std::vector<double> w = cross_tier_weights(
      StalenessFn::kInverseFrequency, 1.0, updates, staleness);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[3], 0.0);
  EXPECT_GT(w[2], w[4]);  // 1 submission beats 3 under invfreq
  EXPECT_GT(w[4], w[0]);  // 3 submissions beat 9
  EXPECT_NEAR(w[0] + w[2] + w[4], 1.0, 1e-12);
  // Exact masses: 1 + (9 - u_t) over total.
  const double total = 1.0 + 9.0 + 7.0;
  EXPECT_NEAR(w[0], 1.0 / total, 1e-12);
  EXPECT_NEAR(w[2], 9.0 / total, 1e-12);
  EXPECT_NEAR(w[4], 7.0 / total, 1e-12);
}

TEST(StalenessFn, UnknownNameErrorListsValidOptions) {
  try {
    parse_staleness("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    for (const char* option : {"constant", "poly", "polynomial", "invfreq",
                               "inverse-frequency", "fedat"}) {
      EXPECT_NE(message.find(option), std::string::npos)
          << "missing '" << option << "' in: " << message;
    }
  }
}

// --- engine determinism -----------------------------------------------------

TEST(AsyncEngine, TwoSeededRunsAreBitwiseIdentical) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = tiny_async_config(12);
  async.staleness = StalenessFn::kPolynomial;
  AsyncEngine e1(tiny_engine_config(1), async, tiny_factory(), &fed.clients,
                 two_tiers(10), &fed.data.test, fed.latency);
  AsyncEngine e2(tiny_engine_config(1), async, tiny_factory(), &fed.clients,
                 two_tiers(10), &fed.data.test, fed.latency);
  const AsyncRunResult a = e1.run();
  const AsyncRunResult b = e2.run();

  // Bitwise-equal final global weights is the headline guarantee.
  EXPECT_EQ(a.final_weights, b.final_weights);
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size());
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    EXPECT_EQ(a.result.rounds[i].selected_clients,
              b.result.rounds[i].selected_clients);
    EXPECT_EQ(a.result.rounds[i].selected_tier,
              b.result.rounds[i].selected_tier);
    EXPECT_DOUBLE_EQ(a.result.rounds[i].virtual_time,
                     b.result.rounds[i].virtual_time);
    EXPECT_DOUBLE_EQ(a.result.rounds[i].global_accuracy,
                     b.result.rounds[i].global_accuracy);
  }
  EXPECT_EQ(a.tier_updates, b.tier_updates);
}

TEST(AsyncEngine, SeedOverrideDiverges) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(6),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  const AsyncRunResult a = engine.run(/*seed_override=*/111);
  const AsyncRunResult b = engine.run(/*seed_override=*/222);
  EXPECT_NE(a.final_weights, b.final_weights);
}

// --- reduction to the sync engine -------------------------------------------

TEST(AsyncEngine, SingleTierConstantStalenessMatchesSyncEngine) {
  // Acceptance criterion: with one tier and the constant staleness
  // function, async execution is the sync engine under another name —
  // same selections, same latencies, same per-round accuracies.
  TinyFederation fed = FederationBuilder().clients(10).build();
  const EngineConfig config = tiny_engine_config(8);

  Engine sync(config, tiny_factory(), fed.clients, &fed.data.test,
              fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const RunResult sync_result = sync.run(policy);

  AsyncConfig async = tiny_async_config(8);
  async.staleness = StalenessFn::kConstant;
  AsyncEngine engine(config, async, tiny_factory(), &fed.clients,
                     single_tier(10), &fed.data.test, fed.latency);
  const AsyncRunResult async_result = engine.run();

  ASSERT_EQ(async_result.result.rounds.size(), sync_result.rounds.size());
  for (std::size_t i = 0; i < sync_result.rounds.size(); ++i) {
    EXPECT_EQ(async_result.result.rounds[i].selected_clients,
              sync_result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(async_result.result.rounds[i].round_latency,
                     sync_result.rounds[i].round_latency);
    EXPECT_DOUBLE_EQ(async_result.result.rounds[i].virtual_time,
                     sync_result.rounds[i].virtual_time);
    EXPECT_NEAR(async_result.result.rounds[i].global_accuracy,
                sync_result.rounds[i].global_accuracy, 1e-6);
  }
  EXPECT_NEAR(async_result.result.final_accuracy(),
              sync_result.final_accuracy(), 1e-6);
}

// --- async semantics --------------------------------------------------------

TEST(AsyncEngine, ProducesExactlyTotalUpdatesVersions) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(15),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  const AsyncRunResult out = engine.run();
  EXPECT_EQ(out.result.rounds.size(), 15u);
  EXPECT_EQ(out.tier_updates[0] + out.tier_updates[1], 15u);
  for (std::size_t i = 0; i < out.result.rounds.size(); ++i) {
    EXPECT_EQ(out.result.rounds[i].round, i);
  }
}

TEST(AsyncEngine, FastTierSubmitsMoreOftenAndSlowTierIsStaler) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(20),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  const AsyncRunResult out = engine.run();
  // Tier 0 holds the 4/2/1-CPU clients, tier 1 the 0.5/0.1-CPU ones.
  EXPECT_GT(out.tier_updates[0], out.tier_updates[1]);
  EXPECT_GT(out.mean_staleness[1], 0.0);
  EXPECT_GE(out.mean_staleness[1], out.mean_staleness[0]);
}

TEST(AsyncEngine, VirtualTimeIsNonDecreasingAndBelowSyncTotal) {
  // Removing Eq. 1's cross-tier max() must make the same number of
  // global updates strictly cheaper in virtual time than sync rounds
  // over the whole population.
  TinyFederation fed = FederationBuilder().clients(10).build();
  const EngineConfig config = tiny_engine_config(20);

  Engine sync(config, tiny_factory(), fed.clients, &fed.data.test,
              fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const double sync_time = sync.run(policy).total_time();

  AsyncEngine engine(config, tiny_async_config(20), tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  double prev = 0.0;
  for (const RoundRecord& r : out.result.rounds) {
    EXPECT_GE(r.virtual_time, prev);
    prev = r.virtual_time;
  }
  EXPECT_LT(out.result.total_time(), sync_time);
}

TEST(AsyncEngine, FinalTierWeightsMatchStalenessFunction) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = tiny_async_config(20);
  async.staleness = StalenessFn::kInverseFrequency;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  // Weights are normalized and, under inverse-frequency, the
  // rarely-submitting slow tier carries at least the fast tier's mass.
  EXPECT_NEAR(out.final_tier_weights[0] + out.final_tier_weights[1], 1.0,
              1e-12);
  EXPECT_GE(out.final_tier_weights[1], out.final_tier_weights[0]);
}

TEST(AsyncEngine, TimeBudgetStopsEarly) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig probe_config = tiny_async_config(50);
  AsyncEngine probe(tiny_engine_config(1), probe_config, tiny_factory(),
                    &fed.clients, two_tiers(10), &fed.data.test,
                    fed.latency);
  const AsyncRunResult full = probe.run();

  AsyncConfig budgeted_config = probe_config;
  budgeted_config.time_budget_seconds = full.result.total_time() / 4.0;
  AsyncEngine budgeted(tiny_engine_config(1), budgeted_config,
                       tiny_factory(), &fed.clients, two_tiers(10),
                       &fed.data.test, fed.latency);
  const AsyncRunResult out = budgeted.run();
  EXPECT_LT(out.result.rounds.size(), 50u);
  EXPECT_GT(out.result.rounds.size(), 0u);
  EXPECT_GE(out.result.total_time(), budgeted_config.time_budget_seconds);
  // The final record carries a freshly evaluated accuracy even though the
  // budget interrupted the evaluation cadence.
  EXPECT_GT(out.result.final_accuracy(), 0.0);
}

TEST(AsyncEngine, EvalCadenceCarriesAccuracyForward) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = tiny_async_config(6);
  async.eval_every = 3;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  EXPECT_EQ(out.result.rounds[1].global_accuracy,
            out.result.rounds[0].global_accuracy);
  EXPECT_EQ(out.result.rounds[2].global_accuracy,
            out.result.rounds[0].global_accuracy);
}

TEST(AsyncEngine, ConstructorValidation) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  const EngineConfig config = tiny_engine_config(1);
  const AsyncConfig async = tiny_async_config(5);

  EXPECT_THROW(
      AsyncEngine(config, async, tiny_factory(),
                  static_cast<const std::vector<Client>*>(nullptr),
                  two_tiers(10), &fed.data.test, fed.latency),
      std::invalid_argument);
  EXPECT_THROW(AsyncEngine(config, async, tiny_factory(),
                           static_cast<ClientPool*>(nullptr), two_tiers(10),
                           &fed.data.test, fed.latency),
               std::invalid_argument);
  EXPECT_THROW(AsyncEngine(config, async, tiny_factory(), &fed.clients,
                           two_tiers(10), nullptr, fed.latency),
               std::invalid_argument);
  EXPECT_THROW(AsyncEngine(config, async, tiny_factory(), &fed.clients,
                           {{}, {}}, &fed.data.test, fed.latency),
               std::invalid_argument);
  EXPECT_THROW(AsyncEngine(config, async, tiny_factory(), &fed.clients,
                           {{0, 99}}, &fed.data.test, fed.latency),
               std::invalid_argument);

  AsyncConfig zero_updates = async;
  zero_updates.total_updates = 0;
  EXPECT_THROW(AsyncEngine(config, zero_updates, tiny_factory(),
                           &fed.clients, two_tiers(10), &fed.data.test,
                           fed.latency),
               std::invalid_argument);
  AsyncConfig zero_clients = async;
  zero_clients.clients_per_tier_round = 0;
  EXPECT_THROW(AsyncEngine(config, zero_clients, tiny_factory(),
                           &fed.clients, two_tiers(10), &fed.data.test,
                           fed.latency),
               std::invalid_argument);
}

// --- selection-policy seam ---------------------------------------------------

TEST(AsyncEngine, RejectsSyncOnlyPolicies) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(5),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  VanillaPolicy vanilla(10, 3);
  EXPECT_THROW(engine.set_policy(&vanilla), std::invalid_argument);
  OverProvisionPolicy overprovision(10, 3);
  EXPECT_THROW(engine.set_policy(&overprovision), std::invalid_argument);
  UniformTierPolicy uniform(3);
  EXPECT_NO_THROW(engine.set_policy(&uniform));
  EXPECT_NO_THROW(engine.set_policy(nullptr));
}

TEST(AsyncEngine, FastStaticPolicyConcentratesWorkAndParksOtherTiers) {
  // "fast" puts all probability mass on tier 0: under the async seam its
  // share scales to T*|C| members per tier-0 round while tier 1 parks —
  // every submission must come from tier 0.
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.02).build();
  core::TierInfo tiers;
  tiers.members = two_tiers(10);
  tiers.avg_latency = {1.0, 2.0};
  core::StaticTierPolicy fast(tiers, core::table1_probs("fast", 2), 2,
                              "fast");

  AsyncConfig async = tiny_async_config(8);
  async.clients_per_tier_round = 2;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  engine.set_policy(&fast);
  const AsyncRunResult out = engine.run();

  EXPECT_EQ(out.tier_updates[0], out.result.rounds.size());
  EXPECT_EQ(out.tier_updates[1], 0u);
  for (const RoundRecord& record : out.result.rounds) {
    EXPECT_EQ(record.selected_tier, 0);
    // Share = 1.0 * 2 tiers * |C|=2 -> 4 members per tier-0 round.
    EXPECT_EQ(record.selected_clients.size(), 4u);
    for (std::size_t c : record.selected_clients) EXPECT_LT(c, 5u);
  }
}

TEST(AsyncEngine, AdaptivePolicyReceivesTierAccuraciesAndCompletes) {
  // Full Alg. 2 on the async path: per-tier eval sets feed the policy's
  // accuracy history, and the run still records exactly total_updates
  // versions with both tiers contributing.
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
  core::TierInfo tiers;
  tiers.members = two_tiers(10);
  tiers.avg_latency = {1.0, 2.0};
  core::AdaptiveConfig adaptive;
  adaptive.clients_per_round = 3;
  adaptive.interval = 2;
  core::AdaptiveTierPolicy policy(tiers, adaptive, 12);

  AsyncConfig async = tiny_async_config(12);
  async.clients_per_tier_round = 3;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  engine.set_policy(&policy);
  std::vector<std::size_t> first_half, second_half;
  for (std::size_t i = 0; i < fed.data.test.size(); ++i) {
    (i < fed.data.test.size() / 2 ? first_half : second_half).push_back(i);
  }
  engine.set_tier_eval_indices({first_half, second_half});

  const AsyncRunResult out = engine.run();
  EXPECT_EQ(out.result.rounds.size(), 12u);
  EXPECT_EQ(out.tier_updates[0] + out.tier_updates[1], 12u);
  EXPECT_GT(out.tier_updates[0], 0u);
  EXPECT_GT(out.tier_updates[1], 0u);
  EXPECT_EQ(out.result.policy_name, "async/adaptive/constant");
}

TEST(AsyncEngine, TierEvalSetCountMismatchThrows) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(5),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  EXPECT_THROW(engine.set_tier_eval_indices({{0, 1, 2}}),
               std::invalid_argument);
}

TEST(AsyncEngine, TierEvalIndexPastTestSetThrowsAtSetTime) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncEngine engine(tiny_engine_config(1), tiny_async_config(5),
                     tiny_factory(), &fed.clients, two_tiers(10),
                     &fed.data.test, fed.latency);
  const std::size_t rows = fed.data.test.size();
  try {
    engine.set_tier_eval_indices({{rows + 7}, {0}});
    FAIL() << "index past the test set was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tier 0"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rows + 7)), std::string::npos) << what;
  }
  EXPECT_NO_THROW(engine.set_tier_eval_indices({{rows - 1}, {0, 0}}));
}

}  // namespace
}  // namespace tifl::fl
