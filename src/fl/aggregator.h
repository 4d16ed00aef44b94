// FedAvg aggregation (Algorithm 1, line 8):
//     w_{r+1} = sum_c w_c * s_c / sum_c s_c.
//
// Two implementations:
//  * `fedavg` — flat single-aggregator reduction, accumulated in double
//    precision in client order, so the result is deterministic and
//    independent of how local training was scheduled across threads;
//  * `HierarchicalAggregator` — the master/child-aggregator tree of
//    Google's FL architecture [Bonawitz et al.] that the paper's testbed
//    design follows.  Children aggregate disjoint client groups, the
//    master combines child results weighted by group sample counts.
//    Mathematically identical to the flat reduction (a test asserts it),
//    included for architectural fidelity and for the scalability
//    micro-bench.
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

class HierarchicalAggregator {
 public:
  // `fanout`: number of child aggregators.
  explicit HierarchicalAggregator(std::size_t fanout) : fanout_(fanout) {}

  std::vector<float> aggregate(std::span<const WeightedUpdate> updates) const;

  std::size_t fanout() const { return fanout_; }

 private:
  std::size_t fanout_;
};

// A tier round in flight on the async loops: trained at dispatch, it
// completes after its slowest member's latency.  `active` is the tree's
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
