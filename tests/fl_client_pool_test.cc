// ClientPool: the lazy client-state substrate for million-client
// federations — materialized pass-through backend, virtual LRU backend,
// and the equivalence between the two.
#include "fl/client_pool.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/system.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/async_engine.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_data;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::TinyFederation;

ClientPool make_virtual_pool(const data::Dataset* train,
                             std::size_t num_clients,
                             std::size_t cache_capacity,
                             std::size_t samples_per_client = 30) {
  ClientPool::VirtualConfig config;
  config.train = train;
  config.shards =
      data::LazyShards(train->size(), num_clients,
                       {.samples_per_client = samples_per_client}, 77);
  config.profiles.assign(num_clients, sim::ResourceProfile{});
  for (std::size_t c = 0; c < num_clients; ++c) {
    config.profiles[c].cpus = 1.0 + static_cast<double>(c % 5);
  }
  config.cache_capacity = cache_capacity;
  return ClientPool(std::move(config));
}

TEST(ClientPool, MaterializedBackendAliasesTheVector) {
  TinyFederation fed = FederationBuilder().clients(6).build();
  ClientPool pool(&fed.clients);
  EXPECT_FALSE(pool.virtualized());
  EXPECT_EQ(pool.size(), 6u);
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(pool.train_size(c), fed.clients[c].train_size());
    EXPECT_EQ(pool.resource(c).cpus, fed.clients[c].resource().cpus);
    ClientPool::Lease lease = pool.lease(c);
    EXPECT_EQ(&*lease, &fed.clients[c]);  // no copy, no cache
  }
  EXPECT_EQ(pool.materializations(), 0u);
  EXPECT_THROW(pool.resource(99), std::out_of_range);
}

TEST(ClientPool, VirtualBackendMaterializesOnDemand) {
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 100, /*cache=*/4);
  EXPECT_TRUE(pool.virtualized());
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.live_clients(), 0u);  // nothing exists until leased

  // Pool-level accessors never materialize.
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_GT(pool.train_size(c), 0u);
    EXPECT_GT(pool.resource(c).cpus, 0.0);
  }
  EXPECT_EQ(pool.live_clients(), 0u);
  EXPECT_EQ(pool.materializations(), 0u);

  {
    ClientPool::Lease lease = pool.lease(42);
    EXPECT_EQ(lease->id(), 42u);
    EXPECT_EQ(lease->train_size(), pool.train_size(42));
    for (std::size_t idx : lease->train_indices()) {
      EXPECT_LT(idx, data.train.size());
    }
    EXPECT_EQ(pool.live_clients(), 1u);
    EXPECT_EQ(pool.materializations(), 1u);
  }
  // Released but under capacity: stays cached, re-lease is a hit.
  EXPECT_EQ(pool.live_clients(), 1u);
  ClientPool::Lease again = pool.lease(42);
  EXPECT_EQ(pool.materializations(), 1u);
}

TEST(ClientPool, LruEvictsColdClientsButNeverPinnedOnes) {
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 100, /*cache=*/3);

  {
    // Pin 5 clients at once with capacity 3: the cache must grow rather
    // than evict a leased client.
    std::vector<ClientPool::Lease> leases;
    for (std::size_t c = 0; c < 5; ++c) leases.push_back(pool.lease(c));
    EXPECT_EQ(pool.live_clients(), 5u);
    EXPECT_EQ(pool.peak_live_clients(), 5u);
  }
  // All unpinned: shrink back to capacity.
  EXPECT_EQ(pool.live_clients(), 3u);

  // Touch a long run of distinct clients: live set stays at capacity.
  for (std::size_t c = 10; c < 60; ++c) pool.lease(c);
  EXPECT_EQ(pool.live_clients(), 3u);
  EXPECT_EQ(pool.peak_live_clients(), 5u);
  EXPECT_GE(pool.materializations(), 50u);
}

TEST(ClientPool, VirtualClientsTrainIdenticallyToMaterializedTwins) {
  // A client materialized through the pool must behave exactly like a
  // Client built eagerly from the same shard: same indices, same local
  // update bit for bit.
  const data::SyntheticData data = tiny_data();
  const std::size_t num_clients = 12;
  ClientPool pool = make_virtual_pool(&data.train, num_clients, 4);

  data::LazyShards shards(data.train.size(), num_clients,
                          {.samples_per_client = 30}, 77);
  nn::Sequential model = tiny_factory()(1);
  nn::Sequential scratch = tiny_factory()(2);
  const std::vector<float> global = model.weights();
  LocalTrainParams params;
  params.epochs = 1;
  params.batch_size = 10;
  params.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  params.lr = 0.05;

  for (std::size_t c = 0; c < num_clients; c += 3) {
    const Client twin(c, &data.train, shards.shard(c).materialize(), {},
                      pool.resource(c));
    const LocalUpdate expected =
        twin.local_update(global, model, params, util::Rng(1000 + c));
    ClientPool::Lease lease = pool.lease(c);
    const LocalUpdate got =
        lease->local_update(global, scratch, params, util::Rng(1000 + c));
    EXPECT_EQ(got.num_samples, expected.num_samples);
    EXPECT_EQ(got.weights, expected.weights);
    EXPECT_DOUBLE_EQ(got.train_loss, expected.train_loss);
  }
}

TEST(ClientPool, ProfilerMatchesVectorOverloadOnWrappedPool) {
  // The pool overload of profile_clients must consume the identical RNG
  // stream and produce identical latencies to the historical vector
  // overload (which now delegates to it).
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
  core::ProfilerConfig config;
  config.sync_rounds = 3;
  config.tmax = 500.0;

  util::Rng rng_a(99);
  const core::ProfileResult via_vector =
      core::profile_clients(fed.clients, fed.latency, config, rng_a);
  util::Rng rng_b(99);
  const ClientPool pool(&fed.clients);
  const core::ProfileResult via_pool =
      core::profile_clients(pool, fed.latency, config, rng_b);

  ASSERT_EQ(via_vector.mean_latency.size(), via_pool.mean_latency.size());
  for (std::size_t c = 0; c < via_vector.mean_latency.size(); ++c) {
    EXPECT_DOUBLE_EQ(via_vector.mean_latency[c], via_pool.mean_latency[c]);
    EXPECT_EQ(via_vector.dropout[c], via_pool.dropout[c]);
  }
  EXPECT_DOUBLE_EQ(via_vector.profiling_time, via_pool.profiling_time);
}

TEST(ClientPool, VirtualSystemRunsAsyncWithChurnInBoundedLiveSet) {
  // End-to-end: a pool-mode TiflSystem over a virtual population runs the
  // dynamic async path (churn + re-tiering hooks) while only ever
  // materializing a cohort-sized working set.
  auto data = std::make_unique<data::SyntheticData>(tiny_data());
  const std::size_t num_clients = 5000;
  ClientPool pool = make_virtual_pool(&data->train, num_clients, 16);

  core::SystemConfig config;
  config.num_tiers = 3;
  config.clients_per_round = 4;
  config.profiler.tmax = 1000.0;
  config.engine.rounds = 24;
  config.engine.local.epochs = 1;
  config.engine.local.batch_size = 10;
  config.engine.local.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.engine.local.optimizer.lr = 0.05;
  config.engine.eval_every = 8;
  config.engine.seed = 5;

  core::TiflSystem system(config, tiny_factory(), &data->test,
                          std::move(pool), sim::LatencyModel({0.01, 1.0}));
  EXPECT_TRUE(system.virtualized());
  EXPECT_THROW(system.engine(), std::logic_error);
  EXPECT_THROW(system.client(0), std::logic_error);
  EXPECT_EQ(system.profile().mean_latency.size(), num_clients);

  AsyncConfig async;
  async.total_updates = 24;
  async.clients_per_tier_round = 4;
  async.eval_every = 8;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  async.reprofile_every = 40.0;
  const AsyncRunResult run = system.run_async(async);

  EXPECT_EQ(run.result.rounds.size(), 24u);
  EXPECT_GE(run.processed_events, 24u);  // updates (+ churn + reprofiles)
  const ClientPool& used = system.client_pool();
  EXPECT_GT(used.materializations(), 0u);
  // The whole point: a 5000-client federation never materialized more
  // than the cache high-water mark of clients at once.
  EXPECT_LE(used.peak_live_clients(), 24u);

  // An identically-built virtual system replays the run bit for bit.
  core::TiflSystem twin(config, tiny_factory(), &data->test,
                        make_virtual_pool(&data->train, num_clients, 16),
                        sim::LatencyModel({0.01, 1.0}));
  const AsyncRunResult replay = twin.run_async(async);
  EXPECT_EQ(replay.final_weights, run.final_weights);
  ASSERT_EQ(replay.result.rounds.size(), run.result.rounds.size());
  for (std::size_t i = 0; i < run.result.rounds.size(); ++i) {
    EXPECT_EQ(replay.result.rounds[i].selected_clients,
              run.result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(replay.result.rounds[i].virtual_time,
                     run.result.rounds[i].virtual_time);
  }
}

LocalTrainParams sgd_params() {
  LocalTrainParams params;
  params.epochs = 1;
  params.batch_size = 10;
  params.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  return params;
}

TEST(CohortTrainer, MultiCohortCallEqualsSingleCohortCallsBitForBit) {
  // Three cohorts with different bases, learning rates and seqs, client 3
  // in two of them: one call must train each pair exactly as one call per
  // cohort does, on any pool.
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 12, /*cache=*/4);
  const std::vector<std::size_t> ids[3] = {{3, 0, 7}, {1, 5}, {9, 3, 4, 2}};
  const std::vector<float> bases[3] = {tiny_factory()(11).weights(),
                                       tiny_factory()(12).weights(),
                                       tiny_factory()(13).weights()};
  const double lrs[3] = {0.05, 0.1, 0.02};
  const std::uint64_t seqs[3] = {7, 8, 20};
  const std::uint64_t seed = 99;

  std::vector<LocalUpdate> expected[3];
  {
    util::ThreadPool serial(1);
    CohortTrainer single(tiny_factory(), sgd_params());
    single.set_thread_pool(&serial);
    obs::PhaseTimer phases;
    for (std::size_t k = 0; k < 3; ++k) {
      single.train(pool, ids[k], bases[k], lrs[k], seed, seqs[k], expected[k],
                   phases);
    }
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool threads_pool(threads);
    CohortTrainer batched(tiny_factory(), sgd_params());
    batched.set_thread_pool(&threads_pool);
    std::vector<LocalUpdate> got[3];
    std::vector<CohortTrainer::Cohort> cohorts;
    for (std::size_t k = 0; k < 3; ++k) {
      cohorts.push_back({.ids = ids[k],
                         .base = bases[k],
                         .lr = lrs[k],
                         .seq = seqs[k],
                         .updates = &got[k]});
    }
    obs::PhaseTimer phases;
    batched.train(pool, cohorts, seed, phases);
    EXPECT_EQ(phases.calls(obs::Phase::kTrain), 1u) << threads;
    EXPECT_EQ(pool.outstanding_leases(), 0u) << threads;
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_EQ(got[k].size(), ids[k].size()) << threads;
      for (std::size_t i = 0; i < ids[k].size(); ++i) {
        EXPECT_EQ(got[k][i].weights, expected[k][i].weights)
            << threads << " threads, cohort " << k << " member " << i;
        EXPECT_EQ(got[k][i].num_samples, expected[k][i].num_samples);
        EXPECT_EQ(got[k][i].train_loss, expected[k][i].train_loss);
      }
    }
  }
}

TEST(CohortTrainer, ReleasesEveryLeaseWhenAPairThrows) {
  const data::SyntheticData data = tiny_data();
  ClientPool pool = make_virtual_pool(&data.train, 12, /*cache=*/2);
  util::ThreadPool threads(2);
  CohortTrainer trainer(tiny_factory(), sgd_params());
  trainer.set_thread_pool(&threads);
  const std::vector<std::size_t> ids = {0, 1, 2, 3, 4};
  const std::vector<float> short_base(5, 0.0f);  // set_weights rejects it
  std::vector<LocalUpdate> updates;
  obs::PhaseTimer phases;
  EXPECT_THROW(trainer.train(pool, ids, short_base, 0.05, 1, 0, updates,
                             phases),
               std::invalid_argument);
  EXPECT_EQ(pool.outstanding_leases(), 0u);
  EXPECT_EQ(pool.live_clients(), 2u);  // unpinned, so shrunk to capacity
}

TEST(ClientPool, CountsOutstandingLeasesOnBothBackends) {
  TinyFederation fed = FederationBuilder().clients(4).build();
  const data::SyntheticData data = tiny_data();
  ClientPool materialized(&fed.clients);
  ClientPool virtual_pool = make_virtual_pool(&data.train, 4, /*cache=*/2);
  for (ClientPool* pool : {&materialized, &virtual_pool}) {
    {
      ClientPool::Lease a = pool->lease(1);
      ClientPool::Lease b = pool->lease(1);
      EXPECT_EQ(pool->outstanding_leases(), 2u);
      ClientPool::Lease moved = std::move(a);
      EXPECT_EQ(pool->outstanding_leases(), 2u);
      try {
        pool->check_leases_returned("Test");
        ADD_FAILURE() << "outstanding leases not reported";
      } catch (const std::logic_error& error) {
        EXPECT_NE(std::string(error.what()).find("Test: 2 client lease"),
                  std::string::npos)
            << error.what();
      }
    }
    EXPECT_EQ(pool->outstanding_leases(), 0u);
    EXPECT_NO_THROW(pool->check_leases_returned("Test"));
  }
}

// Counts the clients the dynamic loop dispatches: it trains every
// non-empty selection as one cohort.  observe() runs at every recorded
// version, so it also keeps how many pairs the pool had leased by the
// last one.
class CountingPolicy final : public SelectionPolicy {
 public:
  explicit CountingPolicy(std::size_t per_round) : inner_(per_round) {}
  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override {
    Selection selection = inner_.select(context);
    dispatched += selection.clients.size();
    return selection;
  }
  void observe(const RoundFeedback& feedback) override {
    (void)feedback;
    leased_at_last_version = pool_leases();
  }
  std::string name() const override { return "counting"; }
  bool supports(EngineKind kind) const override {
    return kind == EngineKind::kAsync;
  }

  static std::uint64_t pool_leases() {
    obs::Registry& reg = obs::Registry::global();
    return reg.counter("pool.lease_hits").value() +
           reg.counter("pool.lease_misses").value();
  }

  std::size_t dispatched = 0;
  std::uint64_t leased_at_last_version = 0;

 private:
  UniformTierPolicy inner_;
};

struct LeaseCount {
  AsyncRunResult run;
  std::size_t dispatched = 0;
  std::uint64_t leases = 0;
  std::uint64_t leased_at_last_version = 0;
};

LeaseCount count_leases(const AsyncConfig& async) {
  const data::SyntheticData data = tiny_data();
  const std::size_t num_clients = 400;
  ClientPool pool = make_virtual_pool(&data.train, num_clients, 8);
  std::vector<std::vector<std::size_t>> tiers(3);
  for (std::size_t c = 0; c < num_clients; ++c) tiers[c % 3].push_back(c);
  EngineConfig config = tiny_engine_config(async.total_updates);
  config.local.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.local.optimizer.lr = 0.05;
  AsyncEngine engine(config, async, tiny_factory(), &pool, tiers, &data.test,
                     sim::LatencyModel({0.01, 1.0}));
  CountingPolicy policy(async.clients_per_tier_round);
  engine.set_policy(&policy);
  obs::Registry::global().reset();
  LeaseCount out;
  out.run = engine.run();
  out.dispatched = policy.dispatched;
  out.leases = CountingPolicy::pool_leases();
  out.leased_at_last_version = policy.leased_at_last_version;
  EXPECT_EQ(pool.outstanding_leases(), 0u);
  return out;
}

TEST(ClientPool, DynamicRunLeasesExactlyTheDispatchedPairs) {
  // Stops at total_updates while cohorts dispatched after the last flush
  // are still pending: the end-of-run flush trains them too.
  AsyncConfig async;
  async.total_updates = 50;
  async.clients_per_tier_round = 5;
  async.eval_every = 20;
  async.churn.join_rate = 0.2;
  async.churn.leave_rate = 0.2;
  async.churn.slowdown_rate = 0.3;
  const LeaseCount count = count_leases(async);
  EXPECT_EQ(count.run.result.rounds.size(), 50u);
  EXPECT_EQ(count.leases, count.dispatched);
  EXPECT_GT(count.leases, count.leased_at_last_version)
      << "no cohort was pending when the run stopped";
  EXPECT_GT(count.run.leave_count, 0u);
}

TEST(ClientPool, LeaveHeavyDynamicRunLeasesExactlyTheDispatchedPairs) {
  // Most in-flight clients leave before they arrive: their pairs still
  // train (and are dropped), one lease each.
  AsyncConfig async;
  async.total_updates = 60;
  async.clients_per_tier_round = 5;
  async.eval_every = 20;
  async.churn.join_rate = 10.0;
  async.churn.leave_rate = 30.0;
  const LeaseCount count = count_leases(async);
  EXPECT_EQ(count.leases, count.dispatched);
  EXPECT_GT(count.run.leave_count, count.run.result.rounds.size());
}

}  // namespace
}  // namespace tifl::fl
