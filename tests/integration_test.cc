// End-to-end tests over the whole stack: synthetic data -> partition ->
// clients -> profiling -> tiering -> engine -> policies.  These assert
// the *qualitative* paper results at miniature scale: tiered selection
// cuts training time without destroying accuracy, and the adaptive policy
// balances both.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace tifl::core {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::tiny_federation;
using testing::TinyFederation;

SystemConfig tiny_system_config(std::size_t rounds = 20,
                                std::size_t clients_per_round = 3) {
  SystemConfig config;
  config.num_tiers = 5;
  config.clients_per_round = clients_per_round;
  config.engine = tiny_engine_config(rounds);
  config.profiler.tmax = 1e6;
  return config;
}

TEST(TiflSystem, ProfilesAndTiersOnConstruction) {
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  EXPECT_EQ(system.tiers().tier_count(), 5u);
  EXPECT_EQ(system.tier_sizes(), (std::vector<std::size_t>{4, 4, 4, 4, 4}));
  EXPECT_EQ(system.profile().dropout_count(), 0u);
  EXPECT_GT(system.profile().profiling_time, 0.0);
}

TEST(TiflSystem, FastBeatsUniformBeatsSlowOnTrainingTime) {
  // The core Fig. 3a ordering: selecting faster tiers shortens rounds.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(12), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  auto fast = system.make_static("fast");
  auto uniform = system.make_static("uniform");
  auto slow = system.make_static("slow");
  const double fast_time = system.run(*fast).total_time();
  const double uniform_time = system.run(*uniform).total_time();
  const double slow_time = system.run(*slow).total_time();
  EXPECT_LT(fast_time, uniform_time);
  EXPECT_LT(uniform_time, slow_time);
}

TEST(TiflSystem, TieredUniformBeatsVanillaOnTrainingTime) {
  // Fig. 3a's second claim: even uniform tier selection beats vanilla
  // because rounds never mix fast and slow clients (Eq. 1).
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(15), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  auto uniform = system.make_static("uniform");
  auto vanilla = system.make_vanilla();
  const double uniform_time = system.run(*uniform).total_time();
  const double vanilla_time = system.run(*vanilla).total_time();
  EXPECT_LT(uniform_time, vanilla_time);
}

TEST(TiflSystem, AllPoliciesLearnAboveChance) {
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(20, 3), tiny_factory(),
                    &fed.data.test, fed.clients, fed.latency);
  for (const char* name : {"uniform", "random", "fast"}) {
    auto policy = system.make_static(name);
    const fl::RunResult result = system.run(*policy);
    EXPECT_GT(result.final_accuracy(), 0.45) << name;  // chance = 0.25
  }
  auto vanilla = system.make_vanilla();
  EXPECT_GT(system.run(*vanilla).final_accuracy(), 0.45);
}

TEST(TiflSystem, AdaptivePolicyRunsSelectsMultipleTiersAndLearns) {
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(25, 3), tiny_factory(),
                    &fed.data.test, fed.clients, fed.latency);
  AdaptiveConfig adaptive;
  adaptive.interval = 5;
  auto policy = system.make_adaptive(adaptive);
  const fl::RunResult result = system.run(*policy);
  EXPECT_EQ(result.policy_name, "adaptive");
  EXPECT_GT(result.final_accuracy(), 0.45);
  std::set<int> tiers_used;
  for (const auto& round : result.rounds) tiers_used.insert(round.selected_tier);
  EXPECT_GE(tiers_used.size(), 2u);
}

TEST(TiflSystem, AdaptiveFasterThanVanillaComparableAccuracy) {
  // Fig. 7's "Combine" headline at miniature scale: adaptive cuts time vs
  // vanilla without losing much accuracy.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(25, 3), tiny_factory(),
                    &fed.data.test, fed.clients, fed.latency);
  auto adaptive = system.make_adaptive();
  auto vanilla = system.make_vanilla();
  const fl::RunResult a = system.run(*adaptive);
  const fl::RunResult v = system.run(*vanilla);
  EXPECT_LT(a.total_time(), v.total_time());
  EXPECT_GT(a.final_accuracy(), v.final_accuracy() - 0.15);
}

TEST(TiflSystem, DropoutClientsAreExcludedFromTiers) {
  TinyFederation fed = tiny_federation(20);
  fed.clients[7].resource().unavailable = true;
  TiflSystem system(tiny_system_config(), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  EXPECT_EQ(system.profile().dropout_count(), 1u);
  ASSERT_EQ(system.tiers().dropouts.size(), 1u);
  EXPECT_EQ(system.tiers().dropouts[0], 7u);
  // No tier contains client 7, so no policy can ever select it.
  EXPECT_EQ(system.tiers().tier_of(7), system.tiers().tier_count());
}

TEST(TiflSystem, TierEvalSetsMatchTierMembership) {
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  const auto sets =
      build_tier_eval_indices(system.tiers(), system.engine().clients());
  ASSERT_EQ(sets.size(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    // The members' matched shards, sorted with duplicates kept.
    std::vector<std::size_t> expected;
    for (std::size_t id : system.tiers().members[t]) {
      const auto& shard = system.engine().clients()[id].test_indices();
      expected.insert(expected.end(), shard.begin(), shard.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sets[t], expected) << "tier " << t;
    for (std::size_t index : sets[t]) EXPECT_LT(index, fed.data.test.size());
  }
}

TEST(TiflSystem, EstimateTimeTracksActualUniformRun) {
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(30), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  auto uniform = system.make_static("uniform");
  const double actual = system.run(*uniform).total_time();
  const double estimated = system.estimate_time("uniform");
  EXPECT_LT(estimation_mape(estimated, actual), 10.0);
}

TEST(TiflSystem, FullRunIsDeterministic) {
  TinyFederation fed = tiny_federation(20);
  auto run_once = [&fed]() {
    TiflSystem system(tiny_system_config(8, 3), tiny_factory(),
                      &fed.data.test, fed.clients, fed.latency);
    auto policy = system.make_adaptive();
    return system.run(*policy);
  };
  const fl::RunResult a = run_once();
  const fl::RunResult b = run_once();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].selected_clients, b.rounds[r].selected_clients);
    EXPECT_DOUBLE_EQ(a.rounds[r].global_accuracy,
                     b.rounds[r].global_accuracy);
  }
}

TEST(TiflSystem, ReprofilingTracksResourceDrift) {
  // §4.2: periodic re-profiling regroups clients whose performance
  // changed.  Degrade a fastest-tier client to the slowest CPU share and
  // verify the refreshed tiering moves it to the slowest tier.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  const std::size_t fast_client = system.tiers().members[0][0];
  EXPECT_EQ(system.tiers().tier_of(fast_client), 0u);

  system.client(fast_client).resource().cpus = 0.01;  // thermal throttling
  const double cost = system.reprofile(99);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(system.tiers().tier_of(fast_client),
            system.tiers().tier_count() - 1);

  // A policy built from the refreshed tiers never mixes the degraded
  // client into the fastest tier.
  auto fast = system.make_static("fast");
  util::Rng rng(1);
  for (std::size_t round = 0; round < 30; ++round) {
    const fl::Selection s = fast->select(round, rng);
    for (std::size_t c : s.clients) EXPECT_NE(c, fast_client);
  }
}

TEST(TiflSystem, ReprofilingPicksUpRecoveredDropout) {
  TinyFederation fed = tiny_federation(20);
  fed.clients[5].resource().unavailable = true;
  TiflSystem system(tiny_system_config(), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  EXPECT_EQ(system.profile().dropout_count(), 1u);

  system.client(5).resource().unavailable = false;  // device came back
  system.reprofile(100);
  EXPECT_EQ(system.profile().dropout_count(), 0u);
  EXPECT_LT(system.tiers().tier_of(5), system.tiers().tier_count());
}

TEST(TiflSystem, DpEnabledFederationStillLearns) {
  TinyFederation fed = tiny_federation(20);
  SystemConfig config = tiny_system_config(20, 3);
  config.engine.local.dp_clip_norm = 5.0;
  config.engine.local.dp_noise_sigma = 1e-4;
  TiflSystem system(config, tiny_factory(), &fed.data.test, fed.clients,
                    fed.latency);
  auto policy = system.make_static("uniform");
  const fl::RunResult result = system.run(*policy);
  EXPECT_GT(result.final_accuracy(), 0.4);  // chance = 0.25
}

TEST(TiflSystem, NonIidDataHurtsVanillaAccuracy) {
  // Fig. 1b's qualitative claim: fewer classes per client -> lower
  // accuracy after the same number of rounds.
  auto run_with_classes = [](std::size_t classes_per_client) {
    TinyFederation fed = testing::FederationBuilder()
                             .clients(20)
                             .seed(11)
                             .train_samples(800)
                             .test_samples(300)
                             .classes_per_client(classes_per_client)
                             .cpu_groups(sim::homogeneous_cpu_groups())
                             .build();
    fl::Engine engine(tiny_engine_config(25), tiny_factory(), fed.clients,
                      &fed.data.test, fed.latency);
    fl::VanillaPolicy policy(fed.clients.size(), 5);
    return engine.run(policy).final_accuracy();
  };

  // IID (0 = no class cap) should clearly beat 1-class-per-client.
  EXPECT_GT(run_with_classes(0), run_with_classes(1));
}

TEST(TiflSystem, RegistryPoliciesMatchTypedFactories) {
  // make_policy(name) must build the same policies the typed factories
  // do: identical selection streams mean identical runs.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(8), tiny_factory(), &fed.data.test,
                    fed.clients, fed.latency);
  {
    auto by_name = system.make_policy("uniform");
    auto typed = system.make_static("uniform");
    const fl::RunResult a = system.run(*by_name);
    const fl::RunResult b = system.run(*typed);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < a.rounds.size(); ++i) {
      EXPECT_EQ(a.rounds[i].selected_clients, b.rounds[i].selected_clients);
      EXPECT_DOUBLE_EQ(a.rounds[i].global_accuracy,
                       b.rounds[i].global_accuracy);
    }
  }
  {
    auto vanilla = system.make_policy("vanilla");
    EXPECT_EQ(vanilla->name(), "vanilla");
    EXPECT_GT(system.run(*vanilla).final_accuracy(), 0.0);
  }
}

TEST(TiflSystem, AsyncAdaptivePolicyRunsAlg2EndToEnd) {
  // Alg. 2 on the async path: per-tier eval sets are materialized and the
  // run produces exactly the requested versions under the policy seam.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(16, 3), tiny_factory(),
                    &fed.data.test, fed.clients, fed.latency);
  auto adaptive = system.make_policy("adaptive");
  fl::AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 3;
  async.eval_every = 2;
  const fl::AsyncRunResult run = system.run_async(async, {}, adaptive.get());
  EXPECT_EQ(run.result.rounds.size(), 16u);
  EXPECT_EQ(run.result.policy_name, "async/adaptive/constant");
  std::size_t total = 0;
  for (std::size_t updates : run.tier_updates) total += updates;
  EXPECT_EQ(total, 16u);
  EXPECT_GT(run.result.final_accuracy(), 0.3);  // chance = 0.25
}

TEST(TiflSystem, AsyncDefaultIsBitIdenticalWithAndWithoutNullPolicy) {
  // Passing no policy and passing nullptr are the same run.
  TinyFederation fed = tiny_federation(20);
  TiflSystem system(tiny_system_config(10, 3), tiny_factory(),
                    &fed.data.test, fed.clients, fed.latency);
  fl::AsyncConfig async;
  async.total_updates = 10;
  async.clients_per_tier_round = 3;
  const fl::AsyncRunResult a = system.run_async(async);
  const fl::AsyncRunResult b = system.run_async(async, {}, nullptr);
  EXPECT_EQ(a.final_weights, b.final_weights);
}

// --- hierarchical runs -----------------------------------------------------

void expect_same_records(const std::vector<fl::RoundRecord>& a,
                         const std::vector<fl::RoundRecord>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round) << label << " record " << i;
    EXPECT_EQ(a[i].virtual_time, b[i].virtual_time) << label << " record " << i;
    EXPECT_EQ(a[i].round_latency, b[i].round_latency)
        << label << " record " << i;
    EXPECT_EQ(a[i].global_accuracy, b[i].global_accuracy)
        << label << " record " << i;
    EXPECT_EQ(a[i].global_loss, b[i].global_loss) << label << " record " << i;
    EXPECT_EQ(a[i].train_loss, b[i].train_loss) << label << " record " << i;
    EXPECT_EQ(a[i].selected_tier, b[i].selected_tier)
        << label << " record " << i;
    EXPECT_EQ(a[i].selected_clients, b[i].selected_clients)
        << label << " record " << i;
  }
}

struct CollapseRun {
  std::vector<float> final_weights;
  std::vector<fl::RoundRecord> rounds;
  std::string trace;
  std::string metrics;
};

// One async run on a fresh system, registry and tracer: through run_hier
// on a flat topology when `hier`, else through run_async.  An empty
// `policy_name` runs the engine's default uniform sampling.
CollapseRun run_collapse(bool hier, const std::string& policy_name) {
  obs::Registry::global().reset();
  std::ostringstream trace_out;
  CollapseRun out;
  {
    obs::Tracer tracer(&trace_out);
    obs::TracerScope scope(&tracer);
    TinyFederation fed = FederationBuilder().clients(20).jitter(0.05).build();
    TiflSystem system(tiny_system_config(12, 3), tiny_factory(),
                      &fed.data.test, fed.clients, fed.latency);
    const std::unique_ptr<fl::SelectionPolicy> policy =
        policy_name.empty() ? nullptr : system.make_policy(policy_name);
    fl::AsyncConfig async;
    async.clients_per_tier_round = 3;
    async.eval_every = 2;
    if (hier) {
      fl::hier::HierConfig flat;
      flat.topology = fl::hier::Topology::flat();
      fl::hier::HierRunResult run =
          system.run_hier(flat, async, {}, policy.get());
      EXPECT_TRUE(run.collapsed);
      out.final_weights = std::move(run.final_weights);
      out.rounds = std::move(run.result.rounds);
    } else {
      fl::AsyncRunResult run = system.run_async(async, {}, policy.get());
      out.final_weights = std::move(run.final_weights);
      out.rounds = std::move(run.result.rounds);
    }
    tracer.flush();
  }
  out.trace = trace_out.str();
  // Host-dependent instruments (wall clocks, cache locality) are excluded;
  // everything else must match bit for bit.
  out.metrics = obs::Registry::global().to_json([](std::string_view name) {
    return !name.ends_with("_ns") && name.substr(0, 5) != "pool." &&
           name != "sim.schedule_horizon";
  });
  return out;
}

TEST(TiflSystem, RunHierFlatTopologyReplaysRunAsyncByteForByte) {
  // run_hier's flat branch is the one flat collapse: a depth-1 tree is
  // the flat federation, so it must replay run_async exactly — final
  // weights, every record, the trace stream and the metrics snapshot —
  // with the default sampling and under a selection policy.
  for (const std::string policy : {"", "adaptive"}) {
    const CollapseRun oracle = run_collapse(/*hier=*/false, policy);
    const CollapseRun collapsed = run_collapse(/*hier=*/true, policy);
    const std::string label = "policy '" + policy + "'";
    ASSERT_EQ(oracle.rounds.size(), 12u) << label;
    EXPECT_EQ(collapsed.final_weights, oracle.final_weights) << label;
    expect_same_records(collapsed.rounds, oracle.rounds, label);
    EXPECT_EQ(collapsed.trace, oracle.trace) << label;
    EXPECT_EQ(collapsed.metrics, oracle.metrics) << label;
  }
}

TEST(TiflSystem, RunHierReprofilesPerRegion) {
  // run_hier backs a multi-region tree's observe/retier hooks (and their
  // snapshot save/restore) with one OnlineReTierer per leaf region.  The
  // re-tierings must fire, and two runs must agree bit for bit.
  const auto run = [] {
    TinyFederation fed = FederationBuilder().clients(20).jitter(0.05).build();
    TiflSystem system(tiny_system_config(12, 3), tiny_factory(),
                      &fed.data.test, fed.clients, fed.latency);
    fl::hier::HierConfig hier;
    hier.topology = fl::hier::Topology::regions(2);
    fl::AsyncConfig async;
    async.clients_per_tier_round = 3;
    async.eval_every = 2;
    async.reprofile_every = 3.0;
    return system.run_hier(hier, async);
  };
  const fl::hier::HierRunResult a = run();
  const fl::hier::HierRunResult b = run();
  EXPECT_FALSE(a.collapsed);
  EXPECT_GT(a.reprofile_count, 0u);
  EXPECT_EQ(a.reprofile_count, b.reprofile_count);
  ASSERT_EQ(a.result.rounds.size(), 12u);
  EXPECT_EQ(a.final_weights, b.final_weights);
  expect_same_records(a.result.rounds, b.result.rounds, "reprofiled");
}

}  // namespace
}  // namespace tifl::core
