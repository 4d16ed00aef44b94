// Lightweight client profiler (§4.2 of the paper).
//
// All clients start with response latency 0 and run `sync_rounds`
// profiling rounds.  In each round every client is asked to train once on
// its local data; clients responding within `tmax` seconds have their
// accumulated latency RT_i incremented by the observed time, clients that
// time out are charged `tmax`.  After `sync_rounds` rounds, clients with
// RT_i >= sync_rounds * tmax are declared dropouts and excluded from
// tiering.  Observed latencies come from the simulated latency model
// (with jitter), exactly what the testbed's wall-clock measurement would
// produce.
//
// The result is bit-identical to a serial loop of one
// LatencyModel::sample_latency call per client per round, in client order,
// and leaves `rng` where that loop would.  Each round works through the
// population in fixed blocks of 2^18 clients: the block's Box-Muller
// uniforms are drawn serially from `rng` in that order, then the global
// thread pool runs the transforms, the tmax clamps and the per-client
// sums, and the round's maximum is merged from per-chunk maxima (max is
// exact, so the merge order does not matter).  The compute term, which
// does not change between rounds, is taken once per client.  A profile of
// a few thousand clients, or one called inside a parallel region, runs
// serially.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/client.h"
#include "fl/client_pool.h"
#include "sim/latency_model.h"
#include "util/rng.h"

namespace tifl::core {

struct ProfilerConfig {
  std::size_t sync_rounds = 5;
  double tmax = 120.0;          // per-round response deadline [s]
  std::size_t epochs = 1;       // local epochs per profiling task
};

struct ProfileResult {
  // RT_i: accumulated (tmax-clamped) response latency per client.
  std::vector<double> accumulated_latency;
  // Mean per-round latency RT_i / sync_rounds (the tiering input).
  std::vector<double> mean_latency;
  std::vector<bool> dropout;
  // Virtual time the profiling phase itself consumed: sync_rounds rounds,
  // each bounded by the slowest (or timed-out) client.
  double profiling_time = 0.0;

  std::size_t dropout_count() const;
};

ProfileResult profile_clients(const std::vector<fl::Client>& clients,
                              const sim::LatencyModel& latency_model,
                              const ProfilerConfig& config, util::Rng& rng);

// Pool-backed profiling: identical latency draws and RNG consumption to
// the vector overload (which delegates here through a pass-through pool).
// Profiling needs only resource profiles and shard sizes, so a
// million-client virtualized pool is profiled without materializing a
// single client.
ProfileResult profile_clients(const fl::ClientPool& pool,
                              const sim::LatencyModel& latency_model,
                              const ProfilerConfig& config, util::Rng& rng);

}  // namespace tifl::core
