#include "core/profiler.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/thread_pool.h"

namespace tifl::core {

namespace {

// Clients per block.  Each block's draws are taken serially into a
// 4 MB buffer, then its transforms run on the pool.  A block is long
// enough that one fork-join, which must wake the sleeping workers, pays
// for itself many times over.
constexpr std::size_t kBlock = std::size_t{1} << 18;
// Fewest clients per pool chunk, so small federations profile serially.
constexpr std::size_t kGrain = std::size_t{1} << 12;

// Max is exact, so merging chunk maxima in any order gives the bits of
// one serial pass.
void raise_max(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t ProfileResult::dropout_count() const {
  return static_cast<std::size_t>(
      std::count(dropout.begin(), dropout.end(), true));
}

ProfileResult profile_clients(const std::vector<fl::Client>& clients,
                              const sim::LatencyModel& latency_model,
                              const ProfilerConfig& config, util::Rng& rng) {
  if (clients.empty()) {
    throw std::invalid_argument("profile_clients: no clients");
  }
  const fl::ClientPool pool(&clients);
  return profile_clients(pool, latency_model, config, rng);
}

ProfileResult profile_clients(const fl::ClientPool& pool,
                              const sim::LatencyModel& latency_model,
                              const ProfilerConfig& config, util::Rng& rng) {
  const std::size_t num_clients = pool.size();
  if (num_clients == 0) {
    throw std::invalid_argument("profile_clients: no clients");
  }
  if (config.sync_rounds == 0 || config.tmax <= 0.0) {
    throw std::invalid_argument("profile_clients: bad config");
  }

  ProfileResult result;
  result.accumulated_latency.assign(num_clients, 0.0);
  result.mean_latency.assign(num_clients, 0.0);
  result.dropout.assign(num_clients, false);
  util::ThreadPool& threads = util::global_pool();

  // The compute term is the same every round, so it is taken once per
  // client.  It lives in mean_latency until the last pass overwrites it.
  std::vector<double>& compute = result.mean_latency;
  threads.parallel_for_chunked(
      0, num_clients,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          compute[c] = latency_model.compute_seconds(
              pool.resource(c), pool.train_size(c), config.epochs);
        }
      },
      kGrain);

  std::vector<util::Rng::NormalDraw> draws(std::min(kBlock, num_clients));
  for (std::size_t round = 0; round < config.sync_rounds; ++round) {
    std::atomic<double> round_time{0.0};
    for (std::size_t begin = 0; begin < num_clients; begin += kBlock) {
      const std::size_t end = std::min(num_clients, begin + kBlock);
      // Serial draws in client order consume the stream exactly as one
      // sample_latency call per client would; clients that draw nothing
      // leave a stale slot that latency_from does not read.
      for (std::size_t c = begin; c < end; ++c) {
        if (sim::LatencyModel::draws_jitter(pool.resource(c))) {
          draws[c - begin] = rng.normal_draw();
        }
      }
      threads.parallel_for_chunked(
          begin, end,
          [&](std::size_t lo, std::size_t hi) {
            double chunk_time = 0.0;
            for (std::size_t c = lo; c < hi; ++c) {
              const double observed = latency_model.latency_from(
                  pool.resource(c), compute[c], draws[c - begin]);
              // Clients answering within Tmax contribute their actual
              // latency; the rest are charged the full deadline.
              const double charged =
                  observed < config.tmax ? observed : config.tmax;
              result.accumulated_latency[c] += charged;
              chunk_time = std::max(chunk_time, charged);
            }
            raise_max(round_time, chunk_time);
          },
          kGrain);
    }
    result.profiling_time += round_time.load(std::memory_order_relaxed);
  }

  const double dropout_threshold =
      static_cast<double>(config.sync_rounds) * config.tmax;
  for (std::size_t c = 0; c < num_clients; ++c) {
    result.mean_latency[c] = result.accumulated_latency[c] /
                             static_cast<double>(config.sync_rounds);
    // ">=" per the paper: only clients that timed out *every* round drop.
    result.dropout[c] = result.accumulated_latency[c] >= dropout_threshold;
  }
  return result;
}

}  // namespace tifl::core
