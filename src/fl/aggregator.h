// FedAvg aggregation (Algorithm 1, line 8):
//     w_{r+1} = sum_c w_c * s_c / sum_c s_c,
// accumulated in double precision in input order, so the result is
// deterministic and independent of how local training was scheduled
// across threads.  Every engine aggregates through `fedavg`: the sync
// engine over a round's kept updates, the async loops and the fl/hier
// leaves over a tier round (`fold_round`).
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

// A tier round in flight on the static async loop and the tree: trained
// at dispatch, it completes after its slowest member's latency.  `active` is the tree's
// "completion event scheduled and unconsumed" flag.
struct PendingTierRound {
  std::vector<std::size_t> selected;  // client ids, selection order
  std::vector<LocalUpdate> updates;   // same order
  std::size_t dispatch_version = 0;   // model version at dispatch
  double latency = 0.0;               // tier-round duration (max member)
  bool active = false;
};

// FedAvg of the round's updates in selection order; `train_loss`, when
// given, receives their mean training loss.
std::vector<float> fold_round(const PendingTierRound& round,
                              double* train_loss = nullptr);

}  // namespace tifl::fl
