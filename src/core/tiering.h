// Tiering algorithm (§4.2): split the profiled latency histogram into m
// groups; clients falling in the same group form a tier.  Tier 0 is the
// fastest.  The paper's phrase "split into m groups" admits two readings
// — equal-width latency bins or equal-population (quantile) bins — both
// are implemented; with well-separated resource groups (the paper's
// testbed) they coincide.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/profiler.h"

namespace tifl::core {

enum class TieringStrategy { kQuantile, kEqualWidth };

struct TierInfo {
  // members[t] = client ids of tier t in ascending order, fastest tier
  // first.
  std::vector<std::vector<std::size_t>> members;
  // Mean profiled response latency per tier (the scheduler's L_tier_i).
  std::vector<double> avg_latency;
  // Clients excluded as dropouts.
  std::vector<std::size_t> dropouts;

  std::size_t tier_count() const { return members.size(); }
  // Tier id of a client; returns tier_count() for dropouts/unknown.
  std::size_t tier_of(std::size_t client_id) const;
  std::string to_string() const;
};

// Builds tiers from profiled mean latencies; dropout clients are excluded.
// A NaN latency of a live client throws std::invalid_argument (from
// util::Histogram, whose index counts live clients only).
// `num_tiers` is m in the paper (5 in all experiments).  Empty tiers are
// possible with equal-width binning of skewed latency distributions and
// are kept (the scheduler never assigns them probability mass).
TierInfo build_tiers(const ProfileResult& profile, std::size_t num_tiers,
                     TieringStrategy strategy = TieringStrategy::kQuantile);

// Lower-level entry used by tests: tiers from raw latency/dropout arrays.
// (vector<bool> rather than span because the standard bitset
// specialization has no contiguous storage to view.)
TierInfo build_tiers(std::span<const double> mean_latency,
                     const std::vector<bool>& dropout, std::size_t num_tiers,
                     TieringStrategy strategy = TieringStrategy::kQuantile);

}  // namespace tifl::core
