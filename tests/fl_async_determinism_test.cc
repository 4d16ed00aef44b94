// Cross-engine determinism regression: the async engine's results are a
// pure function of the seed, independent of how many worker threads train
// clients.  PR 1 asserted this only implicitly (event-ordered reductions,
// per-(dispatch, client) RNG forks); this locks it in by running the same
// federation on thread pools of size 1, 2 and 8 and comparing final model
// hashes bit for bit — for both the static and the dynamic lifecycle
// paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>

#include <sstream>

#include <string>
#include <string_view>

#include "core/adaptive_policy.h"
#include "fl/async_engine.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::TinyFederation;

// FNV-1a over the raw float bits: any single-bit divergence flips it.
std::uint64_t weight_hash(const std::vector<float>& weights) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (float w : weights) {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

AsyncRunResult run_with_pool_size(const AsyncConfig& async,
                                  std::size_t threads,
                                  const nn::ModelFactory& factory,
                                  SelectionPolicy* policy = nullptr) {
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
  AsyncEngine engine(tiny_engine_config(1), async, factory, &fed.clients,
                     two_tiers(10), &fed.data.test, fed.latency);
  engine.set_policy(policy);
  util::ThreadPool pool(threads);
  engine.set_thread_pool(&pool);
  return engine.run();
}

void expect_pool_size_invariance(
    const AsyncConfig& async, const nn::ModelFactory& factory = tiny_factory()) {
  const AsyncRunResult r1 = run_with_pool_size(async, 1, factory);
  const AsyncRunResult r2 = run_with_pool_size(async, 2, factory);
  const AsyncRunResult r8 = run_with_pool_size(async, 8, factory);

  const std::uint64_t h1 = weight_hash(r1.final_weights);
  EXPECT_EQ(h1, weight_hash(r2.final_weights));
  EXPECT_EQ(h1, weight_hash(r8.final_weights));
  // Hash equality should reflect true bitwise equality, not collision.
  EXPECT_EQ(r1.final_weights, r2.final_weights);
  EXPECT_EQ(r1.final_weights, r8.final_weights);

  ASSERT_EQ(r1.result.rounds.size(), r8.result.rounds.size());
  for (std::size_t i = 0; i < r1.result.rounds.size(); ++i) {
    EXPECT_EQ(r1.result.rounds[i].selected_clients,
              r8.result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(r1.result.rounds[i].virtual_time,
                     r8.result.rounds[i].virtual_time);
    EXPECT_DOUBLE_EQ(r1.result.rounds[i].global_accuracy,
                     r8.result.rounds[i].global_accuracy);
  }
}

TEST(AsyncDeterminism, StaticPathIsThreadPoolSizeInvariant) {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;  // > 2 cores: chunks actually split
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  expect_pool_size_invariance(async);
}

TEST(AsyncDeterminism, CnnTrainingIsThreadPoolSizeInvariant) {
  // Same invariance through the conv stack: batch im2col, the blocked /
  // stream / small GEMM dispatch, fused ReLU epilogues and workspace reuse
  // must all be pool-size-oblivious.  Training runs inside pool workers
  // (serial kernels) while the shared evaluation forward runs at top level
  // (tiled kernels) — both paths are exercised here.
  AsyncConfig async;
  async.total_updates = 8;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kConstant;
  expect_pool_size_invariance(async, [](std::uint64_t seed) {
    util::Rng rng(seed);
    nn::Sequential model;
    model.add(std::make_unique<nn::Conv2D>(1, 8, 3, rng));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Flatten>());
    model.add(std::make_unique<nn::Dense>(8 * 4 * 4, 4, rng));
    return model;
  });
}

TEST(AsyncDeterminism, DynamicLifecyclePathIsThreadPoolSizeInvariant) {
  AsyncConfig async;
  async.total_updates = 24;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kPolynomial;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  expect_pool_size_invariance(async);
}

// --- policy seam --------------------------------------------------------------
//
// The default (no policy installed) must replay the pre-seam engine's
// uniform self-sampling bit for bit, and an *explicitly installed*
// UniformTierPolicy must be indistinguishable from it — on both run
// paths, across pool sizes 1/2/8.  Any drift here means the seam
// perturbed RNG stream consumption.

void expect_uniform_policy_matches_default(const AsyncConfig& async) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    UniformTierPolicy uniform(async.clients_per_tier_round);
    const AsyncRunResult with_default =
        run_with_pool_size(async, threads, tiny_factory());
    const AsyncRunResult with_policy =
        run_with_pool_size(async, threads, tiny_factory(), &uniform);
    EXPECT_EQ(weight_hash(with_default.final_weights),
              weight_hash(with_policy.final_weights));
    EXPECT_EQ(with_default.final_weights, with_policy.final_weights);
    ASSERT_EQ(with_default.result.rounds.size(),
              with_policy.result.rounds.size());
    for (std::size_t i = 0; i < with_default.result.rounds.size(); ++i) {
      EXPECT_EQ(with_default.result.rounds[i].selected_clients,
                with_policy.result.rounds[i].selected_clients);
      EXPECT_DOUBLE_EQ(with_default.result.rounds[i].virtual_time,
                       with_policy.result.rounds[i].virtual_time);
    }
    EXPECT_EQ(with_default.tier_updates, with_policy.tier_updates);
  }
}

TEST(AsyncDeterminism, ExplicitUniformPolicyReplaysDefaultStaticPath) {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  expect_uniform_policy_matches_default(async);
}

TEST(AsyncDeterminism, ExplicitUniformPolicyReplaysDefaultDynamicPath) {
  AsyncConfig async;
  async.total_updates = 20;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kPolynomial;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  expect_uniform_policy_matches_default(async);
}

TEST(AsyncDeterminism, AdaptivePolicySeamIsThreadPoolSizeInvariant) {
  // The full Alg. 2 seam (per-tier counts, credits, ChangeProbs driven by
  // per-tier feedback) must stay a pure function of the seed too.
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 2;
  async.staleness = StalenessFn::kInverseFrequency;

  auto run_adaptive = [&](std::size_t threads) {
    core::TierInfo tiers;
    tiers.members = two_tiers(10);
    tiers.avg_latency = {1.0, 2.0};
    core::AdaptiveConfig adaptive;
    adaptive.clients_per_round = async.clients_per_tier_round;
    adaptive.interval = 4;
    core::AdaptiveTierPolicy policy(tiers, adaptive, async.total_updates);
    return run_with_pool_size(async, threads, tiny_factory(), &policy);
  };
  const AsyncRunResult r1 = run_adaptive(1);
  const AsyncRunResult r2 = run_adaptive(2);
  const AsyncRunResult r8 = run_adaptive(8);
  EXPECT_EQ(r1.final_weights, r2.final_weights);
  EXPECT_EQ(r1.final_weights, r8.final_weights);
  ASSERT_EQ(r1.result.rounds.size(), r8.result.rounds.size());
  for (std::size_t i = 0; i < r1.result.rounds.size(); ++i) {
    EXPECT_EQ(r1.result.rounds[i].selected_clients,
              r8.result.rounds[i].selected_clients);
  }
}

// --- batched event loop over a virtualized pool ------------------------------
//
// The engine's loops now consume same-timestamp batches (pop_batch) and
// bulk-schedule cohorts (schedule_bulk), and clients materialize lazily
// through a ClientPool LRU.  The same pool-size sweep must still be
// bitwise invariant: cache hits/misses, eviction order and batch
// boundaries may not leak into results.

AsyncRunResult run_virtual_with_pool_size(const AsyncConfig& async,
                                          std::size_t threads) {
  auto data = std::make_unique<data::SyntheticData>(testing::tiny_data());
  ClientPool::VirtualConfig config;
  config.train = &data->train;
  config.shards = data::LazyShards(
      data->train.size(), 64, {.samples_per_client = 30, .spread = 0.5}, 7);
  config.profiles.assign(64, sim::ResourceProfile{});
  for (std::size_t c = 0; c < 64; ++c) {
    config.profiles[c].cpus = c < 32 ? 2.0 : 0.5;
    config.profiles[c].jitter_sigma = 0.05;
  }
  config.cache_capacity = 8;  // smaller than the population: evictions occur
  ClientPool pool(std::move(config));

  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(), &pool,
                     two_tiers(64), &data->test, sim::LatencyModel({0.01, 1.0}));
  util::ThreadPool workers(threads);
  engine.set_thread_pool(&workers);
  return engine.run();
}

TEST(AsyncDeterminism, VirtualPoolBatchedLoopIsThreadPoolSizeInvariant) {
  AsyncConfig async;
  async.total_updates = 20;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;

  const AsyncRunResult r1 = run_virtual_with_pool_size(async, 1);
  const AsyncRunResult r2 = run_virtual_with_pool_size(async, 2);
  const AsyncRunResult r8 = run_virtual_with_pool_size(async, 8);

  EXPECT_EQ(r1.final_weights, r2.final_weights);
  EXPECT_EQ(r1.final_weights, r8.final_weights);
  EXPECT_EQ(r1.processed_events, r8.processed_events);
  ASSERT_EQ(r1.result.rounds.size(), r8.result.rounds.size());
  for (std::size_t i = 0; i < r1.result.rounds.size(); ++i) {
    EXPECT_EQ(r1.result.rounds[i].selected_clients,
              r8.result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(r1.result.rounds[i].virtual_time,
                     r8.result.rounds[i].virtual_time);
  }
}

// --- trace stream determinism -------------------------------------------------
//
// The obs::Tracer contract (src/obs/trace.h): built-in emitters record
// only seed-derived values in virtual time, so the trace stream is
// byte-identical across thread-pool sizes.  Any wall-clock, thread-id or
// FP-reduction-order leak into an emitted field breaks this.

std::string trace_with_pool_size(const AsyncConfig& async,
                                 std::size_t threads) {
  std::ostringstream out;
  obs::Tracer tracer(&out);
  obs::TracerScope scope(&tracer);
  run_with_pool_size(async, threads, tiny_factory());
  tracer.flush();
  return out.str();
}

void expect_trace_pool_size_invariance(const AsyncConfig& async) {
  const std::string t1 = trace_with_pool_size(async, 1);
  const std::string t2 = trace_with_pool_size(async, 2);
  const std::string t8 = trace_with_pool_size(async, 8);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // Repeat at the same pool size: also a pure function of the seed.
  EXPECT_EQ(t1, trace_with_pool_size(async, 1));
}

TEST(AsyncDeterminism, StaticPathTraceIsByteIdenticalAcrossPoolSizes) {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  expect_trace_pool_size_invariance(async);
}

TEST(AsyncDeterminism, DynamicPathTraceIsByteIdenticalAcrossPoolSizes) {
  AsyncConfig async;
  async.total_updates = 20;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kPolynomial;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  expect_trace_pool_size_invariance(async);
}

// --- worker-shard determinism -------------------------------------------------
//
// Tentpole contract of the sharded runtime: partitioning the event queue
// (sim::ShardedEventQueue) and the virtual client cache across worker
// shards may never change results.  Final weights, the per-version round
// series, the JSONL trace stream and the filtered metrics snapshot must
// be byte-identical across shard counts 1/2/4/8 — at every thread-pool
// size, on both run paths.

// Metrics snapshot with the legitimately shard-variant instruments
// dropped: `*_ns` histograms record wall time, `pool.*` counters depend
// on cache/LRU segment locality, and sim.schedule_horizon's double-
// valued sum reassociates when per-shard partials merge (its integer
// count still has to match, via sim.events_scheduled).  Everything else
// — event counts, dispatch/round/churn counters, staleness histograms —
// must match byte for byte.
std::string filtered_metrics_snapshot() {
  return obs::Registry::global().to_json([](std::string_view name) {
    return !name.ends_with("_ns") && name.substr(0, 5) != "pool." &&
           name != "sim.schedule_horizon";
  });
}

struct ShardRunOutput {
  AsyncRunResult result;
  std::string trace;
  std::string metrics;
};

// One run at a given (shards, threads) with the global registry reset
// around it, so the snapshot covers exactly this run.
ShardRunOutput run_sharded(AsyncConfig async, std::size_t shards,
                           std::size_t threads, bool virtual_pool) {
  async.shards = shards;
  obs::Registry::global().reset();
  ShardRunOutput out;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(&trace_out);
    obs::TracerScope scope(&tracer);
    out.result = virtual_pool
                     ? run_virtual_with_pool_size(async, threads)
                     : run_with_pool_size(async, threads, tiny_factory());
    tracer.flush();
  }
  out.trace = trace_out.str();
  out.metrics = filtered_metrics_snapshot();
  return out;
}

void expect_shard_count_invariance(const AsyncConfig& async,
                                   bool virtual_pool) {
  const ShardRunOutput base =
      run_sharded(async, 1, /*threads=*/1, virtual_pool);
  EXPECT_FALSE(base.trace.empty());
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const ShardRunOutput run =
          run_sharded(async, shards, threads, virtual_pool);
      EXPECT_EQ(base.result.final_weights, run.result.final_weights)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(base.result.processed_events, run.result.processed_events);
      ASSERT_EQ(base.result.result.rounds.size(),
                run.result.result.rounds.size());
      for (std::size_t i = 0; i < base.result.result.rounds.size(); ++i) {
        EXPECT_EQ(base.result.result.rounds[i].selected_clients,
                  run.result.result.rounds[i].selected_clients);
        EXPECT_DOUBLE_EQ(base.result.result.rounds[i].virtual_time,
                         run.result.result.rounds[i].virtual_time);
      }
      EXPECT_EQ(base.trace, run.trace)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(base.metrics, run.metrics)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(AsyncDeterminism, StaticPathIsShardCountInvariant) {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  expect_shard_count_invariance(async, /*virtual_pool=*/false);
}

TEST(AsyncDeterminism, ChurnedVirtualPathIsShardCountInvariant) {
  AsyncConfig async;
  async.total_updates = 20;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  expect_shard_count_invariance(async, /*virtual_pool=*/true);
}

}  // namespace
}  // namespace tifl::fl
