// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: GEMM kernels, conv2d forward/backward, the FedAvg
// reduction, client selection and profiling throughput, thread-pool
// dispatch, one cohort's local training and one evaluated version with
// per-tier feedback.
// These guard the constants behind the figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/profiler.h"
#include "core/static_policy.h"
#include "core/tiering.h"
#include "data/synthetic.h"
#include "fl/aggregator.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/evaluation.h"
#include "fl/policy.h"
#include "nn/conv2d.h"
#include "nn/model_zoo.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace tifl;

void BM_GemmNn(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNn)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(2);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor bt = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_nt(a, bt, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNt)->Arg(64)->Arg(128);

void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  util::Rng rng(3);
  nn::Conv2D conv(3, 32, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({8, 3, hw, hw}, rng);
  nn::PassContext ctx{};
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, ctx);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(28);

void BM_Conv2dTrainStep(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  util::Rng rng(4);
  nn::Conv2D conv(3, 16, 3, rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 3, hw, hw}, rng);
  nn::PassContext ctx{.training = true, .rng = &rng};
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, ctx);
    conv.zero_grads();
    tensor::Tensor dx = conv.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dTrainStep)->Arg(8)->Arg(16);

void BM_MnistCnnBatchForward(benchmark::State& state) {
  nn::Sequential model = nn::mnist_cnn({1, 12, 12}, 10, 5);
  util::Rng rng(5);
  tensor::Tensor x = tensor::Tensor::randn({10, 1, 12, 12}, rng);
  nn::PassContext ctx{};
  for (auto _ : state) {
    tensor::Tensor y = model.forward(x, ctx);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MnistCnnBatchForward);

void BM_FedAvgFlat(benchmark::State& state) {
  const std::size_t clients = state.range(0);
  const std::size_t params = 100000;
  util::Rng rng(6);
  std::vector<std::vector<float>> weights(clients,
                                          std::vector<float>(params));
  for (auto& w : weights) {
    for (float& v : w) v = static_cast<float>(rng.normal());
  }
  std::vector<fl::WeightedUpdate> updates;
  for (auto& w : weights) updates.push_back({w, 100.0});
  for (auto _ : state) {
    auto result = fl::fedavg(updates);
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(state.iterations() * clients * params);
}
BENCHMARK(BM_FedAvgFlat)->Arg(5)->Arg(10)->Arg(50);

core::TierInfo micro_tiers(std::size_t tiers, std::size_t per_tier) {
  core::TierInfo info;
  info.members.resize(tiers);
  info.avg_latency.resize(tiers);
  std::size_t id = 0;
  for (std::size_t t = 0; t < tiers; ++t) {
    for (std::size_t i = 0; i < per_tier; ++i) info.members[t].push_back(id++);
    info.avg_latency[t] = static_cast<double>(t + 1);
  }
  return info;
}

void BM_StaticTierSelection(benchmark::State& state) {
  const core::TierInfo tiers = micro_tiers(5, state.range(0));
  core::StaticTierPolicy policy(tiers, core::table1_probs("random"), 10,
                                "random");
  util::Rng rng(8);
  std::size_t round = 0;
  for (auto _ : state) {
    auto selection = policy.select(round++, rng);
    benchmark::DoNotOptimize(selection.clients.data());
  }
}
BENCHMARK(BM_StaticTierSelection)->Arg(100)->Arg(10000);

void BM_VanillaSelection(benchmark::State& state) {
  fl::VanillaPolicy policy(state.range(0), 10);
  util::Rng rng(9);
  std::size_t round = 0;
  for (auto _ : state) {
    auto selection = policy.select(round++, rng);
    benchmark::DoNotOptimize(selection.clients.data());
  }
}
BENCHMARK(BM_VanillaSelection)->Arg(1000)->Arg(100000);

void BM_TieringFromLatencies(benchmark::State& state) {
  const std::size_t n = state.range(0);
  util::Rng rng(10);
  std::vector<double> latencies(n);
  for (double& l : latencies) l = rng.lognormal(2.0, 0.7);
  const std::vector<bool> dropout(n, false);
  for (auto _ : state) {
    auto tiers = core::build_tiers(latencies, dropout, 5);
    benchmark::DoNotOptimize(tiers.members.data());
  }
}
BENCHMARK(BM_TieringFromLatencies)->Arg(1000)->Arg(100000);

// Fork-join cost of one global-pool parallel_for with an empty body:
// enqueueing the helpers, claiming the chunks, joining.  n = 5 and 8 are
// the sync and scale cohort sizes, 512 a GEMM-sized range.  Wall time,
// since the calling thread mostly waits.
void BM_ParallelForDispatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::ThreadPool& pool = util::global_pool();
  for (auto _ : state) {
    pool.parallel_for(0, n, [](std::size_t) {});
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(5)->Arg(8)->Arg(512)->UseRealTime();

// One cohort's local training through the global pool, the way every
// engine runs it: n MLP-48 clients of 120 samples each (hier4_ckpt's
// shape: 8x8 inputs, batch 10, one RMSProp epoch), each into its own
// scratch model.  n = 1 is the one-client time that the 5- and
// 8-client cohorts are measured in.
void BM_CohortLocalUpdate(benchmark::State& state) {
  constexpr std::size_t kSamples = 120;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  data::SyntheticSpec spec;
  spec.train_samples = static_cast<std::int64_t>(n * kSamples);
  spec.test_samples = 10;
  const data::SyntheticData data = data::make_synthetic(spec);

  std::vector<fl::Client> clients;
  std::vector<nn::Sequential> models;
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<std::size_t> shard(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) shard[s] = c * kSamples + s;
    clients.emplace_back(c, &data.train, std::move(shard),
                         std::vector<std::size_t>{}, sim::ResourceProfile{});
    models.push_back(nn::mlp(spec.dims.flat(), 48, spec.classes, 11));
  }
  const std::vector<float> global = models.front().weights();
  fl::LocalTrainParams params;
  params.lr = 0.003;
  std::vector<fl::LocalUpdate> updates(n);
  std::uint64_t round = 0;
  for (auto _ : state) {
    util::global_pool().parallel_for(0, n, [&](std::size_t i) {
      util::Rng rng(util::mix_seed(round, i));
      updates[i] = clients[i].local_update(global, models[i], params, rng);
    });
    benchmark::DoNotOptimize(updates.data());
    ++round;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CohortLocalUpdate)->Arg(1)->Arg(5)->Arg(8)->UseRealTime();

// One evaluated version of fig7_sync_tifl's sync loop, as the engines run
// it (fl::CohortTrainer::evaluate): MLP-48 over 1250 test rows of 3x8x8
// in 16-row blocks, folded in 512-row chunks, plus Alg. 2's five per-tier
// accuracies over ~250-row index subsets with duplicates, scored from the
// pass's hit flags.  /1 runs it on one thread: a global pool worker,
// where the region and every kernel under it run serially.  /0 runs it
// from the top level on the global pool: one participant per worker plus
// the caller.  Wall time.
void BM_EvalTierFeedback(benchmark::State& state) {
  constexpr std::size_t kTiers = 5, kTierRows = 250, kChunk = 512;
  const bool one_thread = state.range(0) == 1;
  data::SyntheticSpec spec;
  spec.dims = data::ImageDims{3, 8, 8};
  spec.train_samples = 10;
  spec.test_samples = 1250;
  const data::SyntheticData data = data::make_synthetic(spec);
  const nn::ModelFactory factory = [&spec](std::uint64_t seed) {
    return nn::mlp(spec.dims.flat(), 48, spec.classes, seed);
  };
  const std::vector<float> weights = factory(11).weights();

  util::Rng rng(5);
  std::vector<std::vector<std::size_t>> tiers(kTiers);
  for (std::vector<std::size_t>& tier : tiers) {
    for (std::size_t i = 0; i < kTierRows; ++i) {
      tier.push_back(rng.uniform_index(data.test.size()));
    }
    std::sort(tier.begin(), tier.end());
  }
  fl::CohortTrainer trainer(factory, fl::LocalTrainParams{});
  fl::Evaluation r = trainer.evaluate(weights, data.test, kChunk, tiers);
  for (auto _ : state) {
    if (one_thread) {
      util::global_pool()
          .submit([&] {
            r = trainer.evaluate(weights, data.test, kChunk, tiers);
          })
          .get();
    } else {
      r = trainer.evaluate(weights, data.test, kChunk, tiers);
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvalTierFeedback)->Arg(1)->Arg(0)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
