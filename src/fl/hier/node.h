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
// A node's snapshot section is one declaration, io_node below, built
// from the fl/snapshot pieces the flat engine uses: models, cadence
// accumulators, per-tier learning rates, pending tier rounds
// (fl::PendingTierRound, trained at dispatch, so their updates travel
// with the snapshot) and every RNG stream position — the complete
// mid-tree resume state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fl/aggregator.h"
#include "fl/snapshot.h"
#include "util/rng.h"

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
};

// Everything in `node` but the identity/shape block, which the engine
// rebuilds from the topology before reading.  Reading throws
// std::runtime_error when the stored slot or tier count differs from
// that shape.
void io_node(auto& ar, auto& node) {
  std::size_t slots = node.slot_count();
  ar.io_count(slots, 24);
  if (slots != node.slot_count()) {
    throw std::runtime_error(
        "hier::AggregatorNode: snapshot slot count mismatch");
  }
  for (std::size_t s = 0; s < slots; ++s) {
    ar.io(node.slot_models[s]);
    ar.io(node.slot_updates[s]);
    ar.io(node.slot_last_version[s]);
  }
  ar.io(node.model);
  ar.io(node.version);
  ar.io(node.deliveries);
  ar.io(node.since_report);
  ar.io(node.update_mass);
  ar.io(node.offline);

  std::size_t tiers = node.tiers.size();
  ar.io_count(tiers, 8);
  if (tiers != node.tiers.size()) {
    throw std::runtime_error(
        "hier::AggregatorNode: snapshot tier count mismatch");
  }
  for (auto& members : node.tiers) ar.io(members);
  ar.io(node.tier_lr);
  ar.io(node.staleness_sum);
  for (auto& round : node.pending) {
    io_pending(ar, round);
    ar.io(round.active);
  }
  ar.io(node.retry_count);
  for (auto& rng : node.selection_rng) io_rng(ar, rng);
  for (auto& rng : node.latency_rng) io_rng(ar, rng);
  io_rng(ar, node.link_rng);
}

}  // namespace tifl::fl::hier
