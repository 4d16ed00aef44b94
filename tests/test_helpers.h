// Shared builders for the test suite: tiny synthetic federations that run
// in milliseconds while exercising the full production code paths.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/engine.h"
#include "nn/model_zoo.h"
#include "sim/latency_model.h"

namespace tifl::testing {

// The arithmetic of a default x86-64 build (SSE2, no FMA), which wrote
// the snapshots under tests/data/ and recorded the golden hashes.  A
// build whose GEMM kernels round differently (FMA or AVX on x86-64, or
// another ISA) follows a different float trajectory from the same state,
// so there only the schedule must match: versions, virtual times, tiers,
// selected clients and event counts.
#if defined(__x86_64__) && !defined(__FMA__) && !defined(__AVX__)
inline constexpr bool kWriterArithmetic = true;
#else
inline constexpr bool kWriterArithmetic = false;
#endif

// Small, well-separated 4-class dataset an MLP learns in a few rounds.
inline data::SyntheticData tiny_data(std::uint64_t seed = 7,
                                     std::int64_t train = 400,
                                     std::int64_t test = 200) {
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.dims = data::ImageDims{1, 6, 6};
  spec.train_samples = train;
  spec.test_samples = test;
  spec.class_sep = 1.2f;
  spec.noise = 0.8f;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

inline nn::ModelFactory tiny_factory(std::int64_t inputs = 36,
                                     std::int64_t classes = 4) {
  return [inputs, classes](std::uint64_t seed) {
    return nn::mlp(inputs, 16, classes, seed);
  };
}

struct TinyFederation {
  // The dataset lives on the heap: clients hold raw pointers into it,
  // and those must survive the move a by-value builder return implies
  // (NRVO is permitted, not guaranteed).
  std::unique_ptr<data::SyntheticData> owned;
  data::SyntheticData& data;  // alias of *owned; stable across moves
  std::vector<fl::Client> clients;
  sim::LatencyModel latency;
};

// One-call builder for heterogeneous client pools: latency profile
// (CPU groups, comm, jitter, cost model), data partition and seed in a
// single fluent chain.  Every knob defaults to the historical
// tiny_federation() setup, so `FederationBuilder().build()` is the
// 10-client IID pool most tests start from.
//
//   TinyFederation fed = FederationBuilder()
//                            .clients(20)
//                            .classes_per_client(2)
//                            .jitter(0.05)
//                            .build();
class FederationBuilder {
 public:
  FederationBuilder& clients(std::size_t n) { num_clients_ = n; return *this; }
  FederationBuilder& seed(std::uint64_t s) { seed_ = s; return *this; }
  FederationBuilder& train_samples(std::int64_t n) { train_ = n; return *this; }
  FederationBuilder& test_samples(std::int64_t n) { test_ = n; return *this; }
  // 0 = IID partition; k > 0 = at most k classes per client.
  FederationBuilder& classes_per_client(std::size_t k) {
    classes_per_client_ = k;
    return *this;
  }
  FederationBuilder& cpu_groups(std::vector<double> groups) {
    cpu_groups_ = std::move(groups);
    return *this;
  }
  FederationBuilder& comm_seconds(double s) { comm_ = s; return *this; }
  FederationBuilder& jitter(double sigma) { jitter_ = sigma; return *this; }
  FederationBuilder& cost(sim::CostModel c) { cost_ = c; return *this; }

  TinyFederation build() const {
    auto owned = std::make_unique<data::SyntheticData>(
        tiny_data(seed_, train_, test_));
    data::SyntheticData& data = *owned;
    TinyFederation fed{std::move(owned), data, {},
                       sim::LatencyModel{cost_}};
    util::Rng rng(seed_);
    const data::Partition partition =
        classes_per_client_ == 0
            ? data::partition_iid(fed.data.train, num_clients_, rng)
            : data::partition_classes(fed.data.train, num_clients_,
                                      classes_per_client_, rng);
    const auto test_shards = data::matched_test_indices(
        fed.data.train, partition, fed.data.test, rng);
    const auto resources = sim::assign_equal_groups(
        num_clients_, cpu_groups_, comm_, jitter_, rng);
    fed.clients = fl::make_clients(&fed.data.train, partition, test_shards,
                                   resources);
    return fed;
  }

 private:
  std::size_t num_clients_ = 10;
  std::uint64_t seed_ = 7;
  std::int64_t train_ = 400;
  std::int64_t test_ = 200;
  std::size_t classes_per_client_ = 0;
  std::vector<double> cpu_groups_ = sim::cifar_cpu_groups();
  double comm_ = 0.0;
  double jitter_ = 0.0;
  sim::CostModel cost_{0.01, 1.0};
};

// `num_clients` clients over 5 equal CPU groups (paper's CIFAR fractions),
// IID data — the historical default, now a thin builder wrapper.
inline TinyFederation tiny_federation(std::size_t num_clients = 10,
                                      std::uint64_t seed = 7) {
  return FederationBuilder().clients(num_clients).seed(seed).build();
}

// Two tiers split by the tiny federation's resource blocks: the first
// half of the ids are the fast CPU groups, the second half the slow.
inline std::vector<std::vector<std::size_t>> two_tiers(std::size_t n) {
  std::vector<std::vector<std::size_t>> tiers(2);
  for (std::size_t c = 0; c < n; ++c) tiers[c < n / 2 ? 0 : 1].push_back(c);
  return tiers;
}

// FNV-1a over a run's schedule: each version's number, virtual time
// (its bits), submitting tier and selected clients.  It reads no model
// value, so where the schedule does not either, every build agrees on it.
inline std::uint64_t schedule_hash(const std::vector<fl::RoundRecord>& rounds) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const fl::RoundRecord& record : rounds) {
    mix(record.round);
    mix(std::bit_cast<std::uint64_t>(record.virtual_time));
    mix(static_cast<std::uint64_t>(record.selected_tier));
    mix(record.selected_clients.size());
    for (std::size_t id : record.selected_clients) mix(id);
  }
  return hash;
}

inline fl::EngineConfig tiny_engine_config(std::size_t rounds = 10) {
  fl::EngineConfig config;
  config.rounds = rounds;
  config.local.epochs = 1;
  config.local.batch_size = 10;
  config.local.optimizer.kind = nn::OptimizerConfig::Kind::kRmsProp;
  config.local.optimizer.lr = 0.01;
  config.eval_every = 1;
  config.seed = 99;
  return config;
}

}  // namespace tifl::testing
