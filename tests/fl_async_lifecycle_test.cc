// Dynamic client lifecycle on the async engine: churn determinism,
// mid-round stragglers, join/leave bookkeeping, online re-tiering — and
// the acceptance guarantee that a zero-churn, reprofile-off configuration
// replays the static-population engine bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "core/tiering.h"
#include "fl/async_engine.h"
#include "fl/policy.h"
#include "test_helpers.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::TinyFederation;

AsyncConfig dyn_config(std::size_t updates = 20) {
  AsyncConfig async;
  async.total_updates = updates;
  async.clients_per_tier_round = 3;
  async.eval_every = 4;
  return async;
}

void expect_identical(const AsyncRunResult& a, const AsyncRunResult& b) {
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
  EXPECT_EQ(a.join_count, b.join_count);
  EXPECT_EQ(a.leave_count, b.leave_count);
  EXPECT_EQ(a.slowdown_count, b.slowdown_count);
}

// --- acceptance: the static path is untouched -------------------------------

TEST(AsyncLifecycle, ZeroChurnNoReprofileIsBitIdenticalToStaticEngine) {
  // A churn config with all-zero rates and reprofile_every == 0 must take
  // the exact static-population code path: same RNG stream consumption,
  // same event sequence, bitwise-equal weights.
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig plain = dyn_config(15);
  AsyncConfig zeroed = plain;
  zeroed.churn = sim::ChurnConfig{};  // explicit all-zero rates
  zeroed.reprofile_every = 0.0;
  zeroed.latency_ema_alpha = 0.5;  // dormant knobs must not matter

  AsyncEngine a(tiny_engine_config(1), plain, tiny_factory(), &fed.clients,
                two_tiers(10), &fed.data.test, fed.latency);
  AsyncEngine b(tiny_engine_config(1), zeroed, tiny_factory(), &fed.clients,
                two_tiers(10), &fed.data.test, fed.latency);
  EXPECT_FALSE(a.dynamic());
  EXPECT_FALSE(b.dynamic());
  expect_identical(a.run(), b.run());
}

TEST(AsyncLifecycle, SystemZeroChurnRunMatchesPlainRunAsync) {
  TinyFederation fed = FederationBuilder().clients(20).build();
  core::SystemConfig config;
  config.clients_per_round = 3;
  config.engine = tiny_engine_config(12);
  config.profiler.tmax = 1e6;
  core::TiflSystem system(config, tiny_factory(), &fed.data.test,
                          fed.clients, fed.latency);

  AsyncConfig zeroed;
  zeroed.total_updates = 12;
  zeroed.clients_per_tier_round = 3;
  zeroed.churn.join_rate = 0.0;
  zeroed.reprofile_every = 0.0;
  AsyncConfig plain = zeroed;
  plain.churn = sim::ChurnConfig{};
  expect_identical(system.run_async(zeroed), system.run_async(plain));
}

// --- determinism under churn ------------------------------------------------

TEST(AsyncLifecycle, ChurnRunsAreBitwiseReproducible) {
  TinyFederation fed = FederationBuilder().clients(12).jitter(0.05).build();
  AsyncConfig async = dyn_config(25);
  async.churn.leave_rate = 0.02;
  async.churn.join_rate = 0.02;
  async.churn.slowdown_rate = 0.05;
  AsyncEngine e1(tiny_engine_config(1), async, tiny_factory(), &fed.clients,
                 two_tiers(12), &fed.data.test, fed.latency);
  AsyncEngine e2(tiny_engine_config(1), async, tiny_factory(), &fed.clients,
                 two_tiers(12), &fed.data.test, fed.latency);
  EXPECT_TRUE(e1.dynamic());
  const AsyncRunResult a = e1.run();
  const AsyncRunResult b = e2.run();
  expect_identical(a, b);
  EXPECT_GT(a.leave_count + a.join_count + a.slowdown_count, 0u);
}

TEST(AsyncLifecycle, ReusedEngineReplaysChurnRunExactly) {
  // Membership mutates during a dynamic run (leaves empty whole tiers
  // here); a second run() on the same engine must start pristine and
  // replay bit for bit — run results are a pure function of the seed.
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(60);
  async.churn.leave_rate = 0.5;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult a = engine.run();
  const AsyncRunResult b = engine.run();
  EXPECT_GT(a.leave_count, 0u);
  expect_identical(a, b);
}

TEST(AsyncLifecycle, ChurnSeedOverrideDecouplesFromRunSeed) {
  // Pinning churn.seed keeps the lifecycle stream fixed while the run
  // seed varies — the knob drift benches use to replay identical drift.
  TinyFederation fed = FederationBuilder().clients(12).build();
  AsyncConfig async = dyn_config(20);
  async.churn.leave_rate = 0.05;
  async.churn.seed = 1234;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(12), &fed.data.test,
                     fed.latency);
  const AsyncRunResult a = engine.run(/*seed_override=*/111);
  const AsyncRunResult b = engine.run(/*seed_override=*/222);
  EXPECT_EQ(a.leave_count, b.leave_count);
  EXPECT_NE(a.final_weights, b.final_weights);
}

// --- per-client submission --------------------------------------------------

TEST(AsyncLifecycle, DynamicPathSubmitsPerClientWithOwnStaleness) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(20);
  async.staleness = StalenessFn::kPolynomial;
  async.churn.slowdown_rate = 0.01;  // any positive rate => dynamic path
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  ASSERT_EQ(out.result.rounds.size(), 20u);
  for (const RoundRecord& record : out.result.rounds) {
    // The submission unit is one client, not a tier cohort.
    EXPECT_EQ(record.selected_clients.size(), 1u);
    EXPECT_GT(record.round_latency, 0.0);
  }
  // Interleaved arrivals give updates individual, nonzero staleness.
  const double total_staleness =
      std::accumulate(out.mean_staleness.begin(), out.mean_staleness.end(),
                      0.0);
  EXPECT_GT(total_staleness, 0.0);
}

TEST(AsyncLifecycle, VirtualTimeIsNonDecreasingUnderChurn) {
  TinyFederation fed = FederationBuilder().clients(12).jitter(0.05).build();
  AsyncConfig async = dyn_config(30);
  async.churn.leave_rate = 0.03;
  async.churn.join_rate = 0.03;
  async.churn.slowdown_rate = 0.05;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(12), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  double prev = 0.0;
  for (const RoundRecord& record : out.result.rounds) {
    EXPECT_GE(record.virtual_time, prev);
    prev = record.virtual_time;
  }
}

// --- churn semantics --------------------------------------------------------

TEST(AsyncLifecycle, LeavesShrinkThePopulationAndTheRunSurvives) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(200);
  async.churn.leave_rate = 0.5;  // aggressive: everyone leaves quickly
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  // The population dies out, the engine stops early instead of hanging.
  EXPECT_LT(out.result.rounds.size(), 200u);
  EXPECT_EQ(out.leave_count, 10u);
  EXPECT_EQ(out.final_live_clients, 0u);
}

TEST(AsyncLifecycle, JoinsAreNoOpsWithoutAReserveThenReviveLeavers) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  // Joins only: every client is already live, so nothing can join.
  AsyncConfig join_only = dyn_config(15);
  join_only.churn.join_rate = 1.0;
  AsyncEngine a(tiny_engine_config(1), join_only, tiny_factory(),
                &fed.clients, two_tiers(10), &fed.data.test, fed.latency);
  EXPECT_EQ(a.run().join_count, 0u);

  // Leaves + joins: departed clients re-enter through the reserve.
  AsyncConfig churny = dyn_config(60);
  churny.churn.join_rate = 0.3;
  churny.churn.leave_rate = 0.3;
  AsyncEngine b(tiny_engine_config(1), churny, tiny_factory(), &fed.clients,
                two_tiers(10), &fed.data.test, fed.latency);
  const AsyncRunResult out = b.run();
  EXPECT_GT(out.leave_count, 0u);
  EXPECT_GT(out.join_count, 0u);
  EXPECT_LE(out.final_live_clients, 10u);
}

TEST(AsyncLifecycle, UnavailableClientsNeverJoin) {
  // Client 9 never answers and sits outside the tiers.  Were it in the
  // join reserve, a join would dispatch it with an arrival at +inf and
  // its tier's round could never drain.
  TinyFederation fed = FederationBuilder().clients(10).build();
  fed.clients[9].resource().unavailable = true;
  AsyncConfig async = dyn_config(40);
  async.churn.join_rate = 0.5;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, {{0, 1, 2, 3}, {4, 5, 6, 7, 8}},
                     &fed.data.test, fed.latency);
  const AsyncRunResult out = engine.run();
  EXPECT_EQ(out.result.rounds.size(), 40u);
  for (const RoundRecord& record : out.result.rounds) {
    EXPECT_EQ(std::count(record.selected_clients.begin(),
                         record.selected_clients.end(), 9u),
              0)
        << "version " << record.round;
  }
  for (const std::vector<std::size_t>& members : out.final_members) {
    EXPECT_EQ(std::count(members.begin(), members.end(), 9u), 0);
  }
}

TEST(AsyncLifecycle, SlowdownsStretchObservedLatency) {
  // Same seed with and without slowdowns: the drifted run's mean observed
  // response latency must be strictly larger (multipliers center ~2x).
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig calm = dyn_config(40);
  calm.churn.join_rate = 1e-9;  // force the dynamic path, ~never fires
  AsyncConfig drifty = calm;
  drifty.churn.slowdown_rate = 1.0;

  AsyncEngine a(tiny_engine_config(1), calm, tiny_factory(), &fed.clients,
                two_tiers(10), &fed.data.test, fed.latency);
  AsyncEngine b(tiny_engine_config(1), drifty, tiny_factory(), &fed.clients,
                two_tiers(10), &fed.data.test, fed.latency);
  const AsyncRunResult calm_run = a.run();
  const AsyncRunResult drift_run = b.run();
  EXPECT_GT(drift_run.slowdown_count, 0u);
  EXPECT_GT(drift_run.result.total_time(), calm_run.result.total_time());
}

TEST(AsyncLifecycle, TimeBudgetStopsDynamicRun) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(500);
  async.churn.slowdown_rate = 0.05;
  AsyncEngine probe(tiny_engine_config(1), async, tiny_factory(),
                    &fed.clients, two_tiers(10), &fed.data.test,
                    fed.latency);
  const double full_time = probe.run().result.total_time();

  AsyncConfig budgeted = async;
  budgeted.time_budget_seconds = full_time / 4.0;
  AsyncEngine engine(tiny_engine_config(1), budgeted, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  const AsyncRunResult out = engine.run();
  EXPECT_LT(out.result.rounds.size(), 500u);
  EXPECT_GT(out.result.rounds.size(), 0u);
  EXPECT_GT(out.result.final_accuracy(), 0.0);
}

// --- online re-tiering ------------------------------------------------------

TEST(AsyncLifecycle, ReprofileWithoutRetierHookThrows) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(10);
  async.reprofile_every = 5.0;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  EXPECT_TRUE(engine.dynamic());
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(AsyncLifecycle, ReprofileFiresPeriodicallyAndRunStaysDeterministic) {
  TinyFederation fed = FederationBuilder().clients(20).jitter(0.05).build();
  core::SystemConfig config;
  config.clients_per_round = 3;
  config.engine = tiny_engine_config(40);
  config.profiler.tmax = 1e6;
  core::TiflSystem s1(config, tiny_factory(), &fed.data.test, fed.clients,
                      fed.latency);
  core::TiflSystem s2(config, tiny_factory(), &fed.data.test, fed.clients,
                      fed.latency);

  AsyncConfig async;
  async.total_updates = 40;
  async.clients_per_tier_round = 3;
  async.reprofile_every = 3.0;
  async.churn.slowdown_rate = 0.05;
  const AsyncRunResult a = s1.run_async(async);
  const AsyncRunResult b = s2.run_async(async);
  EXPECT_GT(a.reprofile_count, 0u);
  expect_identical(a, b);

  // Post-run tier structure reflects the last rebuild: every live client
  // sits in exactly one tier.
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& members : s1.tiers().members) {
    for (std::size_t id : members) {
      seen.insert(id);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
  EXPECT_EQ(total + a.leave_count - a.join_count, 20u);
}

TEST(AsyncLifecycle, SecondChurnedRunContinuesFromEvolvedMembership) {
  // After a churned run mutates the system's tiers (leavers dropped), a
  // second dynamic run must start from that evolved membership with a
  // consistent re-tierer — not throw on the first rebuild.
  TinyFederation fed = FederationBuilder().clients(20).build();
  core::SystemConfig config;
  config.clients_per_round = 3;
  config.engine = tiny_engine_config(30);
  config.profiler.tmax = 1e6;
  core::TiflSystem system(config, tiny_factory(), &fed.data.test,
                          fed.clients, fed.latency);

  AsyncConfig async;
  async.total_updates = 30;
  async.clients_per_tier_round = 3;
  async.reprofile_every = 3.0;
  async.churn.leave_rate = 0.3;
  async.churn.join_rate = 0.3;
  const AsyncRunResult first = system.run_async(async);
  EXPECT_GT(first.leave_count, 0u);

  const AsyncRunResult second = system.run_async(async);
  EXPECT_GT(second.result.rounds.size(), 0u);
  // Run 2's starting population is run 1's survivors; its leavers joined
  // the reserve, so joins can now fire from the start.
  EXPECT_LE(second.final_live_clients, 20u);
}

TEST(AsyncLifecycle, OnlineRetieringMigratesDriftedClients) {
  // Heavy slowdown drift + periodic re-profiling: at least one client
  // must end in a different tier than the construction-time profiling
  // placed it (the whole point of dynamic tiering).
  TinyFederation fed = FederationBuilder().clients(20).jitter(0.02).build();
  core::SystemConfig config;
  config.clients_per_round = 3;
  config.engine = tiny_engine_config(200);
  config.profiler.tmax = 1e6;
  core::TiflSystem system(config, tiny_factory(), &fed.data.test,
                          fed.clients, fed.latency);
  const core::TierInfo before = system.tiers();

  AsyncConfig async;
  async.total_updates = 200;
  async.clients_per_tier_round = 3;
  async.reprofile_every = 2.0;
  async.churn.slowdown_rate = 1.0;
  async.churn.slowdown_log_mu = 1.5;  // ~4.5x multipliers: strong drift
  async.latency_ema_alpha = 0.6;
  const AsyncRunResult out = system.run_async(async);
  EXPECT_GT(out.slowdown_count, 0u);
  EXPECT_GT(out.reprofile_count, 0u);

  bool migrated = false;
  for (std::size_t c = 0; c < 20; ++c) {
    if (system.tiers().tier_of(c) != before.tier_of(c)) migrated = true;
  }
  EXPECT_TRUE(migrated);
}

TEST(AsyncLifecycle,
     DefaultSamplingMatchesExplicitUniformPolicyAcrossRetiering) {
  // No policy and an installed UniformTierPolicy are one selection path
  // on the dynamic loop: both draw from the same candidate view.  Pins
  // that the default stays that policy across re-tiering and churn.
  TinyFederation fed = FederationBuilder().clients(20).jitter(0.02).build();
  core::SystemConfig config;
  config.clients_per_round = 3;
  config.engine = tiny_engine_config(200);
  config.profiler.tmax = 1e6;
  core::TiflSystem implicit(config, tiny_factory(), &fed.data.test,
                            fed.clients, fed.latency);
  core::TiflSystem explicit_uniform(config, tiny_factory(), &fed.data.test,
                                    fed.clients, fed.latency);

  AsyncConfig async;
  async.total_updates = 200;
  async.clients_per_tier_round = 3;
  async.reprofile_every = 2.0;
  async.churn.slowdown_rate = 1.0;
  async.churn.slowdown_log_mu = 1.5;
  async.churn.join_rate = 0.2;
  async.churn.leave_rate = 0.2;
  async.latency_ema_alpha = 0.6;
  const AsyncRunResult fast = implicit.run_async(async);
  UniformTierPolicy uniform(3);
  const AsyncRunResult listed =
      explicit_uniform.run_async(async, {}, &uniform);
  EXPECT_GT(fast.reprofile_count, 0u);
  EXPECT_GT(fast.leave_count, 0u);
  expect_identical(fast, listed);
}

// The dynamic loop's membership as its hooks and selections report it:
// tier sets and the clients in flight.
struct ShadowMembership {
  std::vector<std::set<std::size_t>> tiers;
  std::set<std::size_t> in_flight;
  std::size_t dispatches = 0;
  std::size_t retiers = 0;
  std::size_t moved_in_flight = 0;  // in-flight clients a retier moved
};

// At every dispatch, checks that `context.candidates` is the dispatching
// tier's members minus the clients in flight, ascending; then draws two.
class CandidateCheckingPolicy final : public SelectionPolicy {
 public:
  explicit CandidateCheckingPolicy(ShadowMembership* shadow)
      : shadow_(shadow) {}

  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override {
    const std::size_t tier = static_cast<std::size_t>(context.tier);
    std::vector<std::size_t> expected;
    for (std::size_t id : shadow_->tiers[tier]) {
      if (!shadow_->in_flight.contains(id)) expected.push_back(id);
    }
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < context.candidates.size(); ++i) {
      candidates.push_back(context.candidates[i]);
    }
    EXPECT_EQ(candidates, expected)
        << "dispatch " << shadow_->dispatches << ", tier " << tier;
    ++shadow_->dispatches;
    const std::size_t count = std::min<std::size_t>(2, expected.size());
    Selection selection{
        .clients = context.candidates.draw(count, context.stream()),
        .tier = context.tier,
        .aggregate_count = 0};
    shadow_->in_flight.insert(selection.clients.begin(),
                              selection.clients.end());
    return selection;
  }
  std::string name() const override { return "candidate-check"; }
  bool supports(EngineKind kind) const override {
    return kind == EngineKind::kAsync;
  }

 private:
  ShadowMembership* shadow_;
};

TEST(AsyncLifecycle, CandidatesAreTheTiersLiveMembersMinusInFlight) {
  // Joiners go to tier id % 3; every re-tiering deals the live clients
  // round-robin from a rotating offset, so clients change tiers while in
  // flight.
  constexpr std::size_t kTiers = 3;
  TinyFederation fed = FederationBuilder().clients(24).jitter(0.05).build();
  const std::vector<std::vector<std::size_t>> initial = {
      {0, 1, 2, 3, 4, 5, 6, 7},
      {8, 9, 10, 11, 12, 13, 14, 15},
      {16, 17, 18, 19, 20, 21, 22, 23}};
  ShadowMembership shadow;
  for (const std::vector<std::size_t>& members : initial) {
    shadow.tiers.emplace_back(members.begin(), members.end());
  }

  LifecycleHooks hooks;
  hooks.observe = [&](std::size_t client, double) {
    shadow.in_flight.erase(client);
  };
  hooks.joined = [&](std::size_t client, double) {
    shadow.tiers[client % kTiers].insert(client);
    return client % kTiers;
  };
  hooks.left = [&](std::size_t client) {
    for (std::set<std::size_t>& members : shadow.tiers) members.erase(client);
    shadow.in_flight.erase(client);
  };
  hooks.retier = [&]() {
    std::set<std::size_t> live;
    std::vector<std::size_t> tier_of(fed.clients.size(), kTiers);
    for (std::size_t t = 0; t < kTiers; ++t) {
      for (std::size_t id : shadow.tiers[t]) {
        live.insert(id);
        tier_of[id] = t;
      }
      shadow.tiers[t].clear();
    }
    std::vector<std::vector<std::size_t>> members(kTiers);
    std::size_t i = ++shadow.retiers;
    for (std::size_t id : live) {
      const std::size_t t = i++ % kTiers;
      members[t].push_back(id);
      shadow.tiers[t].insert(id);
      if (t != tier_of[id] && shadow.in_flight.contains(id)) {
        ++shadow.moved_in_flight;
      }
    }
    return members;
  };

  AsyncConfig async = dyn_config(300);
  async.reprofile_every = 0.5;
  async.churn.join_rate = 0.5;
  async.churn.leave_rate = 0.5;
  async.churn.slowdown_rate = 0.5;
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, initial, &fed.data.test, fed.latency);
  engine.set_lifecycle_hooks(std::move(hooks));
  CandidateCheckingPolicy policy(&shadow);
  engine.set_policy(&policy);
  const AsyncRunResult out = engine.run();

  EXPECT_EQ(out.result.rounds.size(), 300u);
  EXPECT_GT(out.join_count, 0u);
  EXPECT_GT(out.leave_count, 0u);
  EXPECT_GT(out.slowdown_count, 0u);
  EXPECT_GT(shadow.retiers, 0u);
  EXPECT_GT(shadow.moved_in_flight, 0u);
  EXPECT_GT(shadow.dispatches, 100u);
}

TEST(AsyncLifecycle, RetierHookMembershipIsChecked) {
  // The re-tiering must list every live client once, in range: a repeated
  // client would be drawn into one cohort twice, and a dropped one would
  // stay live outside every tier.
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = dyn_config(40);
  async.reprofile_every = 0.5;
  const std::vector<std::pair<std::vector<std::vector<std::size_t>>,
                              std::string>>
      cases = {
          {{{0, 1, 2, 3, 4}, {4, 5, 6, 7, 8, 9}}, "a client listed twice"},
          {{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}}, "a client id out of range"},
          {{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}, "too few clients"},
          {{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, "the wrong tier count"},
      };
  for (const auto& test_case : cases) {
    // Plain references the hook can capture (older compilers reject
    // capturing a structured binding).
    const std::vector<std::vector<std::size_t>>& members = test_case.first;
    const std::string& fault = test_case.second;
    AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                       &fed.clients, two_tiers(10), &fed.data.test,
                       fed.latency);
    LifecycleHooks hooks;
    hooks.retier = [&members] { return members; };
    engine.set_lifecycle_hooks(std::move(hooks));
    try {
      engine.run();
      ADD_FAILURE() << fault << ": accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "AsyncEngine: retier hook returned " + fault);
    }
  }
}

TEST(AsyncLifecycle, ConstructorRejectsNegativeLifecycleConfig) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig bad_reprofile = dyn_config(5);
  bad_reprofile.reprofile_every = -1.0;
  EXPECT_THROW(AsyncEngine(tiny_engine_config(1), bad_reprofile,
                           tiny_factory(), &fed.clients, two_tiers(10),
                           &fed.data.test, fed.latency),
               std::invalid_argument);
  AsyncConfig bad_rate = dyn_config(5);
  bad_rate.churn.leave_rate = -0.1;
  EXPECT_THROW(AsyncEngine(tiny_engine_config(1), bad_rate, tiny_factory(),
                           &fed.clients, two_tiers(10), &fed.data.test,
                           fed.latency),
               std::invalid_argument);
}

}  // namespace
}  // namespace tifl::fl
