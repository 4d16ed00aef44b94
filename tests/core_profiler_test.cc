#include "core/profiler.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "util/thread_pool.h"
#include "test_helpers.h"

namespace tifl::core {
namespace {

using testing::tiny_federation;
using testing::TinyFederation;

// The profiler as a plain serial loop: one sample_latency call per client
// per round, in client order.  profile_clients must match it bit for bit.
// `clamped` counts the answers of available clients charged tmax.
ProfileResult reference_profile(const fl::ClientPool& pool,
                                const sim::LatencyModel& latency_model,
                                const ProfilerConfig& config, util::Rng& rng,
                                std::size_t& clamped) {
  const std::size_t n = pool.size();
  ProfileResult result;
  result.accumulated_latency.assign(n, 0.0);
  result.mean_latency.assign(n, 0.0);
  result.dropout.assign(n, false);
  for (std::size_t round = 0; round < config.sync_rounds; ++round) {
    double round_time = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const double observed = latency_model.sample_latency(
          pool.resource(c), pool.train_size(c), config.epochs, rng);
      const double charged = observed < config.tmax ? observed : config.tmax;
      if (charged == config.tmax && !pool.resource(c).unavailable) ++clamped;
      result.accumulated_latency[c] += charged;
      round_time = std::max(round_time, charged);
    }
    result.profiling_time += round_time;
  }
  const double threshold =
      static_cast<double>(config.sync_rounds) * config.tmax;
  for (std::size_t c = 0; c < n; ++c) {
    result.mean_latency[c] = result.accumulated_latency[c] /
                             static_cast<double>(config.sync_rounds);
    result.dropout[c] = result.accumulated_latency[c] >= threshold;
  }
  return result;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "index " << i << ": " << got[i] << " vs " << want[i];
  }
}

// More clients than one profiling block (2^18), so the draws span two
// blocks and the transforms fan out on the pool.  Every 13th client has
// no jitter and draws nothing; with `unavailable`, every 97th client never
// answers, draws nothing either and is charged tmax.
fl::ClientPool oracle_pool(const data::Dataset& train, bool unavailable) {
  constexpr std::size_t kClients = 300000;
  fl::ClientPool::VirtualConfig config;
  config.train = &train;
  config.shards = data::LazyShards(
      train.size(), kClients, {.samples_per_client = 40, .spread = 0.5}, 91);
  config.profiles.resize(kClients);
  const double cpu_groups[] = {4.0, 2.0, 1.0, 0.5, 0.1};
  for (std::size_t c = 0; c < kClients; ++c) {
    sim::ResourceProfile& profile = config.profiles[c];
    profile.cpus = cpu_groups[c % 5];
    profile.comm_seconds = 0.25;
    profile.jitter_sigma = c % 13 == 5 ? 0.0 : 0.3;
    profile.unavailable = unavailable && c % 97 == 11;
  }
  return fl::ClientPool(std::move(config));
}

// profile_clients against reference_profile, bit for bit and in final
// stream position, from a plain call and again from inside a parallel
// region, where every parallel_for runs serially on its thread.
void expect_matches_reference(const fl::ClientPool& pool,
                              const sim::LatencyModel& latency_model,
                              const ProfilerConfig& config,
                              const util::Rng& seeded,
                              const ProfileResult& want,
                              const util::Rng& want_rng) {
  const auto check = [&](const ProfileResult& got, const util::Rng& rng) {
    expect_bitwise_equal(got.accumulated_latency, want.accumulated_latency);
    expect_bitwise_equal(got.mean_latency, want.mean_latency);
    EXPECT_EQ(got.dropout, want.dropout);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.profiling_time),
              std::bit_cast<std::uint64_t>(want.profiling_time));
    EXPECT_EQ(rng.state(), want_rng.state());
  };

  util::Rng plain_rng = seeded;
  check(profile_clients(pool, latency_model, config, plain_rng), plain_rng);

  util::Rng nested_rng = seeded;
  ProfileResult nested;
  bool nested_in_region = false;
  util::global_pool().parallel_for(0, 2, [&](std::size_t i) {
    if (i != 0) return;
    nested_in_region = util::ThreadPool::in_parallel_region();
    nested = profile_clients(pool, latency_model, config, nested_rng);
  });
  EXPECT_TRUE(nested_in_region || util::global_pool().size() == 1);
  check(nested, nested_rng);
}

TEST(Profiler, BlockParallelProfileKeepsTheSerialDrawOrder) {
  const data::SyntheticData data = testing::tiny_data();
  const fl::ClientPool pool = oracle_pool(data.train, /*unavailable=*/true);
  const sim::LatencyModel latency_model(sim::CostModel{0.01, 1.0});
  ProfilerConfig config;
  config.sync_rounds = 3;
  // The 0.1-CPU group expects 1.25 s + 2..6 s, so jitter decides which
  // of its answers are clamped.
  config.tmax = 5.0;

  // s[1] == 0 makes the first output 0, so client 0's u1 is redrawn.
  util::Rng seeded(17);
  std::array<std::uint64_t, 4> state = seeded.state();
  state[1] = 0;
  seeded.set_state(state);
  util::Rng probe = seeded;
  ASSERT_EQ(probe.uniform(), 0.0);

  util::Rng want_rng = seeded;
  std::size_t clamped = 0;
  const ProfileResult want =
      reference_profile(pool, latency_model, config, want_rng, clamped);
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(want.dropout_count(), 0u);
  expect_matches_reference(pool, latency_model, config, seeded, want,
                           want_rng);
}

// With every client answering within tmax, each round's maximum is one
// jittered latency in one pool chunk, so a wrong merge of the chunk
// maxima shows in profiling_time.
TEST(Profiler, BlockParallelProfileKeepsTheRoundMaximum) {
  const data::SyntheticData data = testing::tiny_data();
  const fl::ClientPool pool = oracle_pool(data.train, /*unavailable=*/false);
  const sim::LatencyModel latency_model(sim::CostModel{0.01, 1.0});
  ProfilerConfig config;
  config.sync_rounds = 4;
  config.tmax = 1e6;

  const util::Rng seeded(29);
  util::Rng want_rng = seeded;
  std::size_t clamped = 0;
  const ProfileResult want =
      reference_profile(pool, latency_model, config, want_rng, clamped);
  EXPECT_EQ(clamped, 0u);
  EXPECT_LT(want.profiling_time, config.tmax);
  expect_matches_reference(pool, latency_model, config, seeded, want,
                           want_rng);
}

TEST(Profiler, MeanLatencyMatchesExpectationWithoutJitter) {
  TinyFederation fed = tiny_federation();  // jitter_sigma = 0
  ProfilerConfig config;
  config.sync_rounds = 3;
  config.tmax = 1e6;
  util::Rng rng(1);
  const ProfileResult result =
      profile_clients(fed.clients, fed.latency, config, rng);
  ASSERT_EQ(result.mean_latency.size(), fed.clients.size());
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    const double expected = fed.latency.expected_latency(
        fed.clients[c].resource(), fed.clients[c].train_size(), 1);
    EXPECT_NEAR(result.mean_latency[c], expected, 1e-9);
    EXPECT_NEAR(result.accumulated_latency[c], 3.0 * expected, 1e-9);
    EXPECT_FALSE(result.dropout[c]);
  }
  EXPECT_EQ(result.dropout_count(), 0u);
}

TEST(Profiler, SlowClientsAreChargedTmax) {
  TinyFederation fed = tiny_federation();
  // Find the slowest client's expected latency and set tmax below it.
  double slowest = 0.0;
  for (const auto& client : fed.clients) {
    slowest = std::max(slowest, fed.latency.expected_latency(
                                    client.resource(), client.train_size(), 1));
  }
  ProfilerConfig config;
  config.sync_rounds = 4;
  config.tmax = slowest * 0.9;
  util::Rng rng(2);
  const ProfileResult result =
      profile_clients(fed.clients, fed.latency, config, rng);
  bool any_clamped = false;
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    EXPECT_LE(result.mean_latency[c], config.tmax + 1e-9);
    any_clamped = any_clamped ||
                  result.accumulated_latency[c] == 4.0 * config.tmax;
  }
  EXPECT_TRUE(any_clamped);
}

TEST(Profiler, TimedOutEveryRoundMeansDropout) {
  TinyFederation fed = tiny_federation();
  fed.clients[3].resource().unavailable = true;  // never responds
  ProfilerConfig config;
  config.sync_rounds = 3;
  config.tmax = 1e5;
  util::Rng rng(3);
  const ProfileResult result =
      profile_clients(fed.clients, fed.latency, config, rng);
  EXPECT_TRUE(result.dropout[3]);
  EXPECT_EQ(result.dropout_count(), 1u);
  // The dropout accumulated exactly sync_rounds * tmax.
  EXPECT_DOUBLE_EQ(result.accumulated_latency[3], 3.0 * 1e5);
  // Everyone else survived.
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    if (c != 3) {
      EXPECT_FALSE(result.dropout[c]);
    }
  }
}

TEST(Profiler, ProfilingTimeIsSumOfRoundMaxima) {
  TinyFederation fed = tiny_federation();
  ProfilerConfig config;
  config.sync_rounds = 2;
  config.tmax = 1e6;
  util::Rng rng(4);
  const ProfileResult result =
      profile_clients(fed.clients, fed.latency, config, rng);
  // Zero jitter: every profiling round is bounded by the same slowest
  // client, so profiling_time = sync_rounds * max latency.
  double slowest = 0.0;
  for (const auto& client : fed.clients) {
    slowest = std::max(slowest, fed.latency.expected_latency(
                                    client.resource(), client.train_size(), 1));
  }
  EXPECT_NEAR(result.profiling_time, 2.0 * slowest, 1e-9);
}

TEST(Profiler, JitteredProfilingStillSeparatesGroups) {
  TinyFederation fed = tiny_federation(20);
  for (auto& client : fed.clients) client.resource().jitter_sigma = 0.1;
  ProfilerConfig config;
  config.sync_rounds = 5;
  config.tmax = 1e6;
  util::Rng rng(5);
  const ProfileResult result =
      profile_clients(fed.clients, fed.latency, config, rng);
  // The fastest resource group (4 CPUs, clients 0..3) must profile faster
  // than the slowest (0.1 CPUs, clients 16..19) despite jitter.
  for (std::size_t fast = 0; fast < 4; ++fast) {
    for (std::size_t slow = 16; slow < 20; ++slow) {
      EXPECT_LT(result.mean_latency[fast], result.mean_latency[slow]);
    }
  }
}

TEST(Profiler, ConfigValidation) {
  TinyFederation fed = tiny_federation();
  util::Rng rng(6);
  ProfilerConfig bad_rounds;
  bad_rounds.sync_rounds = 0;
  EXPECT_THROW(profile_clients(fed.clients, fed.latency, bad_rounds, rng),
               std::invalid_argument);
  ProfilerConfig bad_tmax;
  bad_tmax.tmax = 0.0;
  EXPECT_THROW(profile_clients(fed.clients, fed.latency, bad_tmax, rng),
               std::invalid_argument);
  EXPECT_THROW(profile_clients({}, fed.latency, ProfilerConfig{}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace tifl::core
