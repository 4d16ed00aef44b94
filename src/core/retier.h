// Online re-tiering: rebuild tier membership mid-run from what the server
// actually observed, without restarting the federation.
//
// The constructor-time tiering (core/tiering.h) is computed once from a
// dedicated profiling phase; under drift it goes stale (§4.2: profiling
// "can be conducted periodically for systems with changing computation
// and communication performance over time").  OnlineReTierer keeps an
// exponentially-decayed estimate of every client's response latency —
// seeded from the initial profile, updated from live training round
// observations — plus the live/left flags the churn events imply, and on
// each ReProfile event rebuilds tiers with the same `build_tiers`
// algorithm the initial profiling used.  On a static population with no
// observations this reproduces the initial tiering exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/tiering.h"
#include "util/serial.h"

namespace tifl::core {

struct RetierConfig {
  std::size_t num_tiers = 5;
  TieringStrategy strategy = TieringStrategy::kQuantile;
  // EMA weight of one new latency observation: estimate <- (1-alpha) *
  // estimate + alpha * observed.  Higher alpha adapts faster but is
  // noisier under jitter.
  double ema_alpha = 0.3;
};

class OnlineReTierer {
 public:
  // `initial_latency` seeds the per-client estimates (typically the
  // profiling phase's mean latencies); `inactive[c]` marks clients that
  // are not part of the live population (initial dropouts, later
  // leavers).  Builds the initial tiers immediately.
  OnlineReTierer(RetierConfig config, std::vector<double> initial_latency,
                 std::vector<bool> inactive);

  // As above, but adopts `initial_tiers` instead of rebuilding them.
  // Contract: `initial_tiers` must equal what build_tiers(initial_latency,
  // !active, config.num_tiers, config.strategy) would return — the caller
  // uses this when that partition is already in hand (straight from
  // profiling), skipping a redundant O(n log n) pass over the population.
  OnlineReTierer(RetierConfig config, std::vector<double> initial_latency,
                 std::vector<bool> inactive, TierInfo initial_tiers);

  // Fold one observed end-to-end response latency into client c's EMA.
  void observe(std::size_t client, double latency);

  // Join/leave bookkeeping.  Joins of never-seen clients should also
  // seed_latency() so placement has a prior.
  void set_active(std::size_t client, bool active);

  // Overwrite client c's latency estimate (expected latency prior for a
  // joiner with no observations yet).
  void seed_latency(std::size_t client, double latency);

  // Tier whose average profiled latency is nearest to client c's current
  // estimate — where a joiner trains until the next full rebuild.
  std::size_t place(std::size_t client) const;

  // Rebuild tiers from the current estimates; left clients are excluded
  // exactly like profiling dropouts.  Throws when no client is active.
  const TierInfo& rebuild();

  const TierInfo& tiers() const { return tiers_; }
  double latency(std::size_t client) const { return latency_.at(client); }
  const std::vector<bool>& inactive() const { return inactive_; }
  const RetierConfig& config() const { return config_; }

  // Checkpoint/resume: EMA estimates, live flags and the current tier
  // partition.  restore_state expects a retierer built for the same
  // population size (the config itself is not serialized), and throws
  // std::runtime_error on a NaN or negative latency, which observe()
  // would have rejected.
  void save_state(util::ByteSink& sink) const;
  void restore_state(util::ByteSource& source);

 private:
  RetierConfig config_;
  std::vector<double> latency_;  // per-client EMA estimate
  std::vector<bool> inactive_;
  TierInfo tiers_;
};

}  // namespace tifl::core
