// Runtime state of one aggregator-tree node (fl/hier/tree_engine).
//
// Every node keeps one model "slot" per input it aggregates over — a
// leaf's slots are its region's tiers, an inner node's slots are its
// children — plus, for every non-root node, one extra *parent-view* slot
// holding the last model its parent pushed down.  The node's own model is
// the staleness-weighted cross-slot average computed by the exact
// fl::cross_tier_weights / fl::aggregate_global operators of the flat
// engine (slots play the tiers' role), so a node folds global knowledge
// into its subtree with the same mathematics the flat server uses across
// tiers.
//
// Nodes serialize through save_state/restore_state, with the fl/snapshot
// codec the flat engine uses: models, cadence accumulators, per-tier
// learning rates, pending tier rounds (fl::PendingTierRound, trained at
// dispatch, so their updates travel with the snapshot) and every RNG
// stream position — the complete mid-tree resume state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/aggregator.h"
#include "util/rng.h"
#include "util/serial.h"

namespace tifl::fl::hier {

class AggregatorNode {
 public:
  // --- identity / shape (rebuilt from the topology, not serialized) ---------
  std::size_t id = 0;
  bool is_root = false;
  bool is_leaf = false;
  std::vector<std::size_t> children;  // node ids (inner nodes, slot order)

  // --- aggregation slots ----------------------------------------------------
  // Leaf: one per tier [+ parent view]; inner: one per child [+ parent
  // view].  The parent-view slot, when present, is always the last.
  // `slot_updates` is the cumulative update mass folded into the slot
  // (client updates), `slot_last_version` the node-local version of its
  // last submission — exactly the flat engine's tier_updates /
  // last_submit_version, so fl::cross_tier_weights applies unchanged.
  std::vector<std::vector<float>> slot_models;
  std::vector<std::size_t> slot_updates;
  std::vector<std::size_t> slot_last_version;

  std::vector<float> model;      // current cross-slot aggregate
  std::size_t version = 0;       // local aggregation count
  std::size_t deliveries = 0;    // inner: child arrivals since last agg
  std::size_t since_report = 0;  // local aggs since last uplink
  std::size_t update_mass = 0;   // client updates aggregated in subtree
  bool offline = false;          // leaf regional outage in effect

  // --- leaf training state --------------------------------------------------
  std::vector<std::vector<std::size_t>> tiers;  // member ids per tier
  std::vector<double> tier_lr;
  std::vector<double> staleness_sum;      // per tier, for reporting
  std::vector<PendingTierRound> pending;  // per tier
  std::vector<std::size_t> retry_count;   // per tier (fault redelivery)
  std::vector<util::Rng> selection_rng;   // per tier
  std::vector<util::Rng> latency_rng;     // per tier

  // --- link state (non-root) ------------------------------------------------
  util::Rng link_rng{0};  // delay stream of the link to the parent

  std::size_t slot_count() const { return slot_models.size(); }
  bool has_parent_view() const { return !is_root; }
  std::size_t parent_slot() const { return slot_count() - 1; }

  // Serializes everything above except the identity/shape block, which
  // the engine rebuilds from the topology before restore_state runs.
  void save_state(util::ByteSink& sink) const;
  void restore_state(util::ByteSource& source);
};

}  // namespace tifl::fl::hier
