// FedAvg aggregation (Algorithm 1, line 8):
//     w_{r+1} = sum_c w_c * s_c / sum_c s_c,
// accumulated in double precision in input order, so the result is
// deterministic and independent of how local training was scheduled
// across threads.  Every engine aggregates through `fedavg`: the sync
// engine over a round's kept updates, the static async loop and the
// fl/hier leaves over a tier round (fl::TierRounds::fold).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fl/client.h"

namespace tifl::fl {

struct WeightedUpdate {
  std::span<const float> weights;
  double sample_count = 0.0;
};

// Weighted average of flat weight vectors; throws on empty input, size
// mismatch, or non-positive total weight.
std::vector<float> fedavg(std::span<const WeightedUpdate> updates);

}  // namespace tifl::fl
