#include "core/tiering.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/histogram.h"
#include "util/stats.h"

namespace tifl::core {

std::size_t TierInfo::tier_of(std::size_t client_id) const {
  for (std::size_t t = 0; t < members.size(); ++t) {
    if (std::find(members[t].begin(), members[t].end(), client_id) !=
        members[t].end()) {
      return t;
    }
  }
  return members.size();
}

std::string TierInfo::to_string() const {
  std::ostringstream os;
  for (std::size_t t = 0; t < members.size(); ++t) {
    os << "tier " << t + 1 << ": " << members[t].size()
       << " clients, avg latency " << avg_latency[t] << "s\n";
  }
  if (!dropouts.empty()) os << "dropouts: " << dropouts.size() << "\n";
  return os.str();
}

TierInfo build_tiers(const ProfileResult& profile, std::size_t num_tiers,
                     TieringStrategy strategy) {
  return build_tiers(profile.mean_latency, profile.dropout, num_tiers,
                     strategy);
}

TierInfo build_tiers(std::span<const double> mean_latency,
                     const std::vector<bool>& dropout, std::size_t num_tiers,
                     TieringStrategy strategy) {
  if (mean_latency.size() != dropout.size()) {
    throw std::invalid_argument("build_tiers: latency/dropout size mismatch");
  }
  if (num_tiers == 0) {
    throw std::invalid_argument("build_tiers: need at least one tier");
  }

  TierInfo info;
  info.members.assign(num_tiers, {});
  info.avg_latency.assign(num_tiers, 0.0);

  std::vector<double> alive_latency;
  std::vector<std::size_t> alive_ids;
  for (std::size_t c = 0; c < mean_latency.size(); ++c) {
    if (dropout[c]) {
      info.dropouts.push_back(c);
    } else {
      alive_latency.push_back(mean_latency[c]);
      alive_ids.push_back(c);
    }
  }
  if (alive_latency.empty()) {
    throw std::invalid_argument("build_tiers: every client dropped out");
  }

  // The histogram hands back the bin it counts each live client into, so
  // each latency is binned once.  alive_ids ascend, so every tier lists
  // its members in id order.
  std::vector<util::RunningStat> stats(num_tiers);
  const util::Histogram histogram(
      alive_latency, num_tiers,
      strategy == TieringStrategy::kQuantile ? util::BinningMode::kQuantile
                                             : util::BinningMode::kEqualWidth,
      [&](std::size_t i, std::size_t tier) {
        info.members[tier].push_back(alive_ids[i]);
        stats[tier].add(alive_latency[i]);
      });
  for (std::size_t t = 0; t < num_tiers; ++t) {
    info.avg_latency[t] = stats[t].mean();
  }
  return info;
}

}  // namespace tifl::core
