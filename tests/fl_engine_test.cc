#include "fl/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/trace.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::tiny_federation;
using testing::TinyFederation;

// Jitter-free response latency of client `c` for one round of `config`.
double expected_latency(const TinyFederation& fed, std::size_t c,
                        const EngineConfig& config) {
  return fed.latency.expected_latency(fed.clients[c].resource(),
                                      fed.clients[c].train_size(),
                                      config.local.epochs);
}

TEST(Client, LocalUpdateReturnsShardSizeAndChangesWeights) {
  TinyFederation fed = tiny_federation();
  nn::Sequential model = tiny_factory()(1);
  const std::vector<float> global = model.weights();
  LocalTrainParams params;
  params.lr = 0.01;
  const LocalUpdate update =
      fed.clients[0].local_update(global, model, params, util::Rng(1));
  EXPECT_EQ(update.num_samples, fed.clients[0].train_size());
  EXPECT_EQ(update.weights.size(), global.size());
  bool changed = false;
  for (std::size_t i = 0; i < global.size(); ++i) {
    changed = changed || update.weights[i] != global[i];
  }
  EXPECT_TRUE(changed);
  EXPECT_GT(update.train_loss, 0.0);
}

TEST(Client, LocalUpdateIsDeterministicGivenRng) {
  TinyFederation fed = tiny_federation();
  nn::Sequential model = tiny_factory()(1);
  const std::vector<float> global = model.weights();
  LocalTrainParams params;
  const LocalUpdate a =
      fed.clients[2].local_update(global, model, params, util::Rng(42));
  const LocalUpdate b =
      fed.clients[2].local_update(global, model, params, util::Rng(42));
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.train_loss, b.train_loss);
}

TEST(Client, EmptyShardReturnsGlobalWeightsUnchanged) {
  TinyFederation fed = tiny_federation();
  Client empty(99, &fed.data.train, {}, {}, sim::ResourceProfile{});
  nn::Sequential model = tiny_factory()(1);
  const std::vector<float> global = model.weights();
  const LocalUpdate update =
      empty.local_update(global, model, LocalTrainParams{}, util::Rng(1));
  EXPECT_EQ(update.num_samples, 0u);
  EXPECT_EQ(update.weights, global);
}

TEST(Client, DpClipBoundsUpdateNorm) {
  TinyFederation fed = tiny_federation();
  nn::Sequential model = tiny_factory()(1);
  const std::vector<float> global = model.weights();
  LocalTrainParams params;
  params.lr = 0.1;  // big steps so clipping engages
  params.dp_clip_norm = 0.05;
  params.dp_noise_sigma = 0.0;
  const LocalUpdate update =
      fed.clients[0].local_update(global, model, params, util::Rng(3));
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < global.size(); ++i) {
    const double d = static_cast<double>(update.weights[i]) - global[i];
    norm_sq += d * d;
  }
  EXPECT_LE(std::sqrt(norm_sq), params.dp_clip_norm + 1e-5);
}

TEST(Client, DpNoisePerturbsUpdate) {
  TinyFederation fed = tiny_federation();
  nn::Sequential model = tiny_factory()(1);
  const std::vector<float> global = model.weights();
  LocalTrainParams clean, noisy;
  clean.dp_clip_norm = noisy.dp_clip_norm = 1.0;
  noisy.dp_noise_sigma = 0.01;
  const LocalUpdate a =
      fed.clients[0].local_update(global, model, clean, util::Rng(4));
  const LocalUpdate b =
      fed.clients[0].local_update(global, model, noisy, util::Rng(4));
  EXPECT_NE(a.weights, b.weights);
}

TEST(MakeClients, WiresIdsShardsAndResources) {
  TinyFederation fed = tiny_federation(10);
  ASSERT_EQ(fed.clients.size(), 10u);
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    EXPECT_EQ(fed.clients[c].id(), c);
    EXPECT_GT(fed.clients[c].train_size(), 0u);
  }
  // cifar groups, ordered assignment: first 2 clients have 4 CPUs.
  EXPECT_EQ(fed.clients[0].resource().cpus, 4.0);
  EXPECT_EQ(fed.clients[9].resource().cpus, 0.1);
}

TEST(MakeClients, SizeMismatchThrows) {
  TinyFederation fed = tiny_federation(4);
  data::Partition partition(3);
  std::vector<std::vector<std::size_t>> shards(4);
  std::vector<sim::ResourceProfile> resources(4);
  EXPECT_THROW(
      make_clients(&fed.data.train, partition, shards, resources),
      std::invalid_argument);
}

// --- engine ---------------------------------------------------------------------

TEST(Engine, RunProducesOneRecordPerRound) {
  TinyFederation fed = tiny_federation();
  Engine engine(tiny_engine_config(8), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const RunResult result = engine.run(policy);
  ASSERT_EQ(result.rounds.size(), 8u);
  EXPECT_EQ(result.policy_name, "vanilla");
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].round, r);
    EXPECT_EQ(result.rounds[r].selected_clients.size(), 3u);
    EXPECT_GT(result.rounds[r].round_latency, 0.0);
  }
}

TEST(Engine, VirtualTimeIsCumulativeSumOfRoundLatencies) {
  TinyFederation fed = tiny_federation();
  Engine engine(tiny_engine_config(6), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const RunResult result = engine.run(policy);
  double expected = 0.0;
  for (const RoundRecord& r : result.rounds) {
    expected += r.round_latency;
    EXPECT_NEAR(r.virtual_time, expected, 1e-9);
  }
  EXPECT_NEAR(result.total_time(), expected, 1e-9);
}

TEST(Engine, RoundLatencyEqualsMaxSelectedClientLatency) {
  // Eq. 1: with zero jitter the round latency must equal the slowest
  // selected client's expected latency exactly.
  TinyFederation fed = tiny_federation();
  const EngineConfig config = tiny_engine_config(5);
  Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  VanillaPolicy policy(fed.clients.size(), 4);
  const RunResult result = engine.run(policy);
  for (const RoundRecord& r : result.rounds) {
    double expected = 0.0;
    for (std::size_t c : r.selected_clients) {
      expected = std::max(expected, expected_latency(fed, c, config));
    }
    EXPECT_DOUBLE_EQ(r.round_latency, expected);
  }
}

TEST(Engine, RunIsDeterministicForSameSeed) {
  TinyFederation fed = tiny_federation();
  const fl::EngineConfig config = tiny_engine_config(5);
  Engine e1(config, tiny_factory(), fed.clients, &fed.data.test, fed.latency);
  Engine e2(config, tiny_factory(), fed.clients, &fed.data.test, fed.latency);
  VanillaPolicy p1(fed.clients.size(), 3), p2(fed.clients.size(), 3);
  const RunResult r1 = e1.run(p1);
  const RunResult r2 = e2.run(p2);
  ASSERT_EQ(r1.rounds.size(), r2.rounds.size());
  for (std::size_t i = 0; i < r1.rounds.size(); ++i) {
    EXPECT_EQ(r1.rounds[i].selected_clients, r2.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(r1.rounds[i].global_accuracy,
                     r2.rounds[i].global_accuracy);
    EXPECT_DOUBLE_EQ(r1.rounds[i].virtual_time, r2.rounds[i].virtual_time);
  }
}

TEST(Engine, DifferentSeedsDiverge) {
  TinyFederation fed = tiny_federation();
  fl::EngineConfig c1 = tiny_engine_config(5);
  fl::EngineConfig c2 = tiny_engine_config(5);
  c2.seed = c1.seed + 1;
  Engine e1(c1, tiny_factory(), fed.clients, &fed.data.test, fed.latency);
  Engine e2(c2, tiny_factory(), fed.clients, &fed.data.test, fed.latency);
  VanillaPolicy p1(fed.clients.size(), 3), p2(fed.clients.size(), 3);
  EXPECT_NE(e1.run(p1).rounds[0].selected_clients,
            e2.run(p2).rounds[0].selected_clients);
}

TEST(Engine, AccuracyImprovesOverTraining) {
  TinyFederation fed = tiny_federation();
  Engine engine(tiny_engine_config(15), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  VanillaPolicy policy(fed.clients.size(), 5);
  const RunResult result = engine.run(policy);
  EXPECT_GT(result.final_accuracy(), 0.5);  // 4 classes, chance = 0.25
  EXPECT_GT(result.final_accuracy(), result.rounds.front().global_accuracy);
}

TEST(Engine, EvalEverySkipsButCarriesForward) {
  TinyFederation fed = tiny_federation();
  fl::EngineConfig config = tiny_engine_config(6);
  config.eval_every = 3;
  Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const RunResult result = engine.run(policy);
  // Rounds 1, 2 carry round 0's accuracy; round 3 re-evaluates.
  EXPECT_EQ(result.rounds[1].global_accuracy,
            result.rounds[0].global_accuracy);
  EXPECT_EQ(result.rounds[2].global_accuracy,
            result.rounds[0].global_accuracy);
}

TEST(Engine, TierEvalSetsProduceFeedback) {
  TinyFederation fed = tiny_federation();

  // Three fake "tiers": first half / second half of the test set, and
  // the whole set in order, which must score exactly the global accuracy
  // (same rows in the same chunks).
  std::vector<std::size_t> first_half, second_half, all;
  for (std::size_t i = 0; i < fed.data.test.size(); ++i) {
    (i < fed.data.test.size() / 2 ? first_half : second_half).push_back(i);
    all.push_back(i);
  }
  Engine engine(tiny_engine_config(3), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  engine.set_tier_eval_indices({first_half, second_half, all});

  struct Recorder final : SelectionPolicy {
    VanillaPolicy inner;
    std::vector<RoundFeedback> feedback;
    explicit Recorder(std::size_t n) : inner(n, 3) {}
    Selection select(const SelectionContext& context) override {
      return inner.select(context);
    }
    void observe(const RoundFeedback& f) override { feedback.push_back(f); }
    std::string name() const override { return "recorder"; }
  } recorder(fed.clients.size());

  engine.run(recorder);
  ASSERT_EQ(recorder.feedback.size(), 3u);
  for (const RoundFeedback& f : recorder.feedback) {
    ASSERT_EQ(f.tier_accuracies.size(), 3u);
    EXPECT_EQ(f.tier_accuracies[2], f.global_accuracy);
  }
}

TEST(Engine, TierEvalIndexPastTestSetThrowsAtSetTime) {
  TinyFederation fed = tiny_federation();
  Engine engine(tiny_engine_config(1), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  const std::size_t rows = fed.data.test.size();
  try {
    engine.set_tier_eval_indices({{0, 1}, {2, rows}});
    FAIL() << "index past the test set was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tier 1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(rows)), std::string::npos) << what;
  }
  // The last valid row is accepted.
  EXPECT_NO_THROW(engine.set_tier_eval_indices({{rows - 1}}));
}

TEST(Engine, OverProvisioningDropsStragglersFromRoundLatency) {
  // With aggregate_count = k, the round latency is the k-th fastest
  // selected client's latency — strictly below the slowest selected
  // client's whenever a straggler was among the selection.
  TinyFederation fed = tiny_federation(20);
  const EngineConfig config = tiny_engine_config(10);
  Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  OverProvisionPolicy policy(fed.clients.size(), 5);  // selects 7
  const RunResult result = engine.run(policy);
  for (const RoundRecord& r : result.rounds) {
    ASSERT_EQ(r.selected_clients.size(), 7u);
    std::vector<double> latencies;
    for (std::size_t c : r.selected_clients) {
      latencies.push_back(expected_latency(fed, c, config));
    }
    std::sort(latencies.begin(), latencies.end());
    EXPECT_DOUBLE_EQ(r.round_latency, latencies[4]);  // 5th fastest
  }
}

TEST(Engine, OverProvisioningFasterThanVanillaAtSameTarget) {
  TinyFederation fed = tiny_federation(20);
  Engine engine(tiny_engine_config(12), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);
  VanillaPolicy vanilla(fed.clients.size(), 5);
  OverProvisionPolicy overprov(fed.clients.size(), 5);
  const double vanilla_time = engine.run(vanilla).total_time();
  const double overprov_time = engine.run(overprov).total_time();
  EXPECT_LT(overprov_time, vanilla_time);
}

TEST(Engine, AggregateCountZeroKeepsEveryUpdate) {
  // aggregate_count == 0 (or == n) must reproduce plain behaviour.
  TinyFederation fed = tiny_federation(10);
  Engine engine(tiny_engine_config(5), tiny_factory(), fed.clients,
                &fed.data.test, fed.latency);

  struct Full final : SelectionPolicy {
    VanillaPolicy inner;
    explicit Full(std::size_t n) : inner(n, 4) {}
    Selection select(const SelectionContext& context) override {
      Selection s = inner.select(context);
      s.aggregate_count = s.clients.size();  // "drop none"
      return s;
    }
    std::string name() const override { return "full"; }
  } full(fed.clients.size());

  VanillaPolicy plain(fed.clients.size(), 4);
  const RunResult a = engine.run(full);
  const RunResult b = engine.run(plain);
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].global_accuracy,
                     b.rounds[i].global_accuracy);
    EXPECT_DOUBLE_EQ(a.rounds[i].round_latency, b.rounds[i].round_latency);
  }
}

TEST(Engine, SecureAggregationMatchesPlainFedAvgClosely) {
  // Masks cancel: the securely aggregated federation must track the
  // plain one to float-mask-residue precision, round for round.
  TinyFederation fed = tiny_federation(10);
  fl::EngineConfig plain_config = tiny_engine_config(5);
  fl::EngineConfig secure_config = plain_config;
  secure_config.secure_aggregation = true;
  Engine plain(plain_config, tiny_factory(), fed.clients, &fed.data.test,
               fed.latency);
  Engine secure(secure_config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  VanillaPolicy p1(fed.clients.size(), 4), p2(fed.clients.size(), 4);
  const RunResult a = plain.run(p1);
  const RunResult b = secure.run(p2);
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].selected_clients, b.rounds[i].selected_clients);
    EXPECT_NEAR(a.rounds[i].global_accuracy, b.rounds[i].global_accuracy,
                0.03);
  }
  EXPECT_GT(b.final_accuracy(), 0.5);
}

TEST(Engine, SecureAggregationRejectsStragglerDropping) {
  TinyFederation fed = tiny_federation(10);
  fl::EngineConfig config = tiny_engine_config(3);
  config.secure_aggregation = true;
  Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  OverProvisionPolicy policy(fed.clients.size(), 4);  // drops stragglers
  EXPECT_THROW(engine.run(policy), std::logic_error);
}

TEST(Engine, TimeBudgetStopsEarly) {
  // §4.5: finite budgets.  The engine stops after the first round whose
  // completion crosses the budget.
  TinyFederation fed = tiny_federation(10);
  fl::EngineConfig config = tiny_engine_config(1000);
  Engine unbounded(config, tiny_factory(), fed.clients, &fed.data.test,
                   fed.latency);
  VanillaPolicy probe(fed.clients.size(), 3);
  const double one_round =
      unbounded.run(probe).rounds.front().round_latency;

  config.time_budget_seconds = one_round * 5.5;
  Engine budgeted(config, tiny_factory(), fed.clients, &fed.data.test,
                  fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  const RunResult result = budgeted.run(policy);
  EXPECT_LT(result.rounds.size(), 1000u);
  EXPECT_GE(result.total_time(), config.time_budget_seconds);
  // Exactly one round past the budget, never more.
  EXPECT_LT(result.rounds[result.rounds.size() - 2].virtual_time,
            config.time_budget_seconds);
}

TEST(Engine, TimeBudgetReevaluatesSkippedFinalRound) {
  // A budget that ends the run on a round the eval cadence skips must
  // leave the final model's accuracy and loss in the last record, not
  // values carried forward from an older model: the same six rounds
  // without a budget evaluate their last round.
  TinyFederation fed = tiny_federation(10);
  EngineConfig config = tiny_engine_config(6);
  config.eval_every = 4;
  Engine unbudgeted(config, tiny_factory(), fed.clients, &fed.data.test,
                    fed.latency);
  VanillaPolicy probe(fed.clients.size(), 3);
  const RunResult six = unbudgeted.run(probe);
  ASSERT_EQ(six.rounds.size(), 6u);

  config.rounds = 1000;
  config.time_budget_seconds = six.rounds[5].virtual_time;
  Engine budgeted(config, tiny_factory(), fed.clients, &fed.data.test,
                  fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  std::ostringstream trace_out;
  RunResult result;
  {
    obs::Tracer tracer(&trace_out);
    obs::TracerScope scope(&tracer);
    result = budgeted.run(policy);
    tracer.flush();
  }
  ASSERT_EQ(result.rounds.size(), 6u);
  EXPECT_EQ(result.rounds[5].global_accuracy, six.rounds[5].global_accuracy);
  EXPECT_EQ(result.rounds[5].global_loss, six.rounds[5].global_loss);
  // Round 4's model differs, so a carried-forward record would not match.
  EXPECT_NE(result.rounds[4].global_loss, six.rounds[5].global_loss);

  // The re-evaluation is traced like any other: the last eval instant
  // carries the last record's version and accuracy.
  std::string last_eval;
  std::istringstream lines(trace_out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\": \"eval\"") != std::string::npos) {
      last_eval = line;
    }
  }
  EXPECT_NE(last_eval.find("\"version\": 5,"), std::string::npos)
      << last_eval;
  const std::size_t at = last_eval.find("\"accuracy\": ");
  ASSERT_NE(at, std::string::npos) << last_eval;
  EXPECT_EQ(std::stod(last_eval.substr(at + 12)),
            result.rounds[5].global_accuracy)
      << last_eval;
}

TEST(Engine, ZeroTimeBudgetMeansUnlimited) {
  TinyFederation fed = tiny_federation(10);
  fl::EngineConfig config = tiny_engine_config(7);
  config.time_budget_seconds = 0.0;
  Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                fed.latency);
  VanillaPolicy policy(fed.clients.size(), 3);
  EXPECT_EQ(engine.run(policy).rounds.size(), 7u);
}

TEST(Engine, ConstructorValidation) {
  TinyFederation fed = tiny_federation();
  EXPECT_THROW(Engine(tiny_engine_config(1), tiny_factory(), {},
                      &fed.data.test, fed.latency),
               std::invalid_argument);
  EXPECT_THROW(Engine(tiny_engine_config(1), tiny_factory(), fed.clients,
                      nullptr, fed.latency),
               std::invalid_argument);
}

TEST(Engine, ZeroEvalEveryThrowsAtConstruction) {
  // eval_every is the eval cadence's modulus; 0 must not reach run().
  TinyFederation fed = tiny_federation();
  EngineConfig config = tiny_engine_config(3);
  config.eval_every = 0;
  try {
    Engine engine(config, tiny_factory(), fed.clients, &fed.data.test,
                  fed.latency);
    FAIL() << "eval_every = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eval_every"), std::string::npos)
        << e.what();
  }
  // TiflSystem's classic mode builds the same engine.
  core::SystemConfig system_config;
  system_config.engine = config;
  EXPECT_THROW(core::TiflSystem(system_config, tiny_factory(), &fed.data.test,
                                fed.clients, fed.latency),
               std::invalid_argument);
}

TEST(Engine, RecordsAreThreadPoolSizeInvariant) {
  // Client RNGs are forked per (round, client id) and FedAvg reduces in a
  // fixed order, so every record is bit-identical at pool sizes 1, 2 and
  // 8 — for a feedback-free policy and for Alg. 2's adaptive policy,
  // whose tier choice reads the per-tier accuracies.
  const auto run = [](const std::string& policy_name, std::size_t threads) {
    TinyFederation fed = tiny_federation(20);
    core::SystemConfig config;
    config.num_tiers = 3;
    config.clients_per_round = 5;  // > 2 workers: chunks actually split
    config.engine = tiny_engine_config(8);
    config.engine.eval_every = 2;
    config.profiler.tmax = 1e6;
    core::TiflSystem system(config, tiny_factory(), &fed.data.test,
                            fed.clients, fed.latency);
    util::ThreadPool workers(threads);
    system.engine().set_thread_pool(&workers);
    const std::unique_ptr<SelectionPolicy> policy =
        system.make_policy(policy_name);
    return system.engine().run(*policy);
  };
  for (const std::string policy : {"vanilla", "adaptive"}) {
    const RunResult baseline = run(policy, 1);
    ASSERT_EQ(baseline.rounds.size(), 8u) << policy;
    for (const std::size_t threads : {2u, 8u}) {
      const RunResult other = run(policy, threads);
      ASSERT_EQ(other.rounds.size(), baseline.rounds.size()) << policy;
      for (std::size_t i = 0; i < baseline.rounds.size(); ++i) {
        const RoundRecord& a = baseline.rounds[i];
        const RoundRecord& b = other.rounds[i];
        const std::string label = policy + " threads=" +
                                  std::to_string(threads) + " round " +
                                  std::to_string(i);
        EXPECT_EQ(a.selected_clients, b.selected_clients) << label;
        EXPECT_EQ(a.round_latency, b.round_latency) << label;
        EXPECT_EQ(a.global_accuracy, b.global_accuracy) << label;
        EXPECT_EQ(a.global_loss, b.global_loss) << label;
        EXPECT_EQ(a.train_loss, b.train_loss) << label;
      }
    }
  }
}

// --- metrics --------------------------------------------------------------------

TEST(RunResult, TimeHelpers) {
  RunResult result;
  for (std::size_t r = 0; r < 4; ++r) {
    RoundRecord record;
    record.round = r;
    record.round_latency = 10.0;
    record.virtual_time = 10.0 * static_cast<double>(r + 1);
    record.global_accuracy = 0.2 * static_cast<double>(r + 1);
    result.rounds.push_back(record);
  }
  EXPECT_DOUBLE_EQ(result.total_time(), 40.0);
  EXPECT_DOUBLE_EQ(result.final_accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(result.best_accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(result.accuracy_at_time(25.0), 0.4);
  EXPECT_DOUBLE_EQ(result.accuracy_at_time(5.0), 0.0);
  EXPECT_DOUBLE_EQ(result.time_to_accuracy(0.55), 30.0);
  EXPECT_DOUBLE_EQ(result.time_to_accuracy(0.99), -1.0);
}

TEST(RunResult, WriteCsvEmitsHeaderAndRows) {
  RunResult result;
  for (std::size_t r = 0; r < 3; ++r) {
    RoundRecord record;
    record.round = r;
    record.virtual_time = 1.5 * static_cast<double>(r + 1);
    record.round_latency = 1.5;
    record.global_accuracy = 0.5;
    record.selected_tier = static_cast<int>(r);
    result.rounds.push_back(record);
  }
  const std::string path = ::testing::TempDir() + "tifl_run.csv";
  result.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "round,virtual_time,round_latency,accuracy,loss,tier");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3u);
  std::remove(path.c_str());
}

TEST(RunResult, EmptyIsSafe) {
  RunResult result;
  EXPECT_EQ(result.total_time(), 0.0);
  EXPECT_EQ(result.final_accuracy(), 0.0);
  EXPECT_EQ(result.best_accuracy(), 0.0);
  EXPECT_EQ(result.accuracy_at_time(100.0), 0.0);
}

}  // namespace
}  // namespace tifl::fl
