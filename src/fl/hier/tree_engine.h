// Hierarchical multi-level aggregation: the edge → regional → global
// aggregator tree (FedDCT-style cross-tier hierarchy composed with the
// paper's tiering).
//
// Each *leaf* node runs the flat engine's per-tier cadence over its own
// region's clients: sample a cohort per tier, train from the node's
// current model, complete after the slowest member, FedAvg into the
// tier's slot, recompute the node model as the staleness-weighted
// cross-slot average.  Each *inner* node aggregates the models its
// children ship up (every `agg_every` deliveries) with the same operator
// — child slots play the tiers' role — and pushes its aggregate back down
// so subtrees fold global knowledge into their training base (the
// parent-view slot).  Parent↔child links cost virtual time through
// sim::LatencyModel link profiles (propagation floor + bandwidth-scaled
// transfer + optional lognormal jitter from a dedicated mix_seed-per-link
// stream), so a regional round-trip is never free.
//
// The engine runs multi-region trees only: a flat (single-node) topology
// is the flat federation, which core::TiflSystem::run_hier collapses onto
// run_async (fl::AsyncEngine).  Determinism: all state mutation happens
// in event-pop order on a sim::ShardedEventQueue, every RNG stream is
// forked per (node, tier) or per link, and reductions run in
// selection/slot order — bit-reproducible across --shards and
// thread-pool sizes.  Full-run snapshots serialize every
// node mid-tree through the flat engine's codec and checkpointer
// (fl/snapshot), so --resume replays a killed run exactly; `--rounds`
// counts *root* aggregations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/async_engine.h"
#include "fl/client_pool.h"
#include "fl/engine.h"
#include "fl/hier/node.h"
#include "fl/hier/topology.h"
#include "fl/metrics.h"
#include "nn/sequential.h"
#include "sim/churn_model.h"
#include "sim/latency_model.h"
#include "util/serial.h"

namespace tifl::util {
class ThreadPool;
}

namespace tifl::fl::hier {

struct HierConfig {
  Topology topology;
  // Default tier count formed over each leaf region (NodeSpec::num_tiers
  // overrides per node; clamped to the region's live population).
  std::size_t tiers_per_region = 2;
  // Regional outages: every client of the leaf drops at `start`, rejoins
  // at `start + duration`.  Compose from client-level churn with
  // sim::regional_outages, or list windows explicitly.
  std::vector<sim::RegionalOutage> outages;
};

// The tiering layer's seam into the tree (core::TiflSystem wires one
// core::OnlineReTierer per leaf; the engine stays ignorant of how tiers
// are computed).  `retier` is required when async.reprofile_every > 0 on
// a multi-region tree; the save/restore pair rides the run snapshot.
struct HierLifecycleHooks {
  // One observed tier-round latency for a completed member.
  std::function<void(std::size_t leaf, std::size_t client, double latency)>
      observe;
  // Rebuild leaf `leaf`'s tier membership (same tier count, live clients
  // of that region only).
  std::function<std::vector<std::vector<std::size_t>>(std::size_t leaf)>
      retier;
  std::function<void(util::ByteSink&)> save_state;
  std::function<void(util::ByteSource&)> restore_state;
};

struct HierRunResult {
  // One RoundRecord per *root* aggregation: selected_tier is the child
  // ordinal whose uplink triggered it, round_latency that uplink's
  // delivery delay, selected_clients the submitting child's node id.
  RunResult result;
  std::vector<float> final_weights;  // root model
  // Per-node accounting, indexed by topology node id.
  std::vector<std::size_t> node_rounds;
  std::vector<std::size_t> node_update_mass;
  std::size_t uplinks = 0;
  std::size_t downlinks = 0;
  std::size_t outage_count = 0;
  std::size_t rejoin_count = 0;
  std::size_t reprofile_count = 0;
  std::uint64_t root_link_bytes = 0;  // uplink payload bytes into the root
  std::size_t processed_events = 0;
  std::size_t max_event_batch = 0;
  // Set by core::TiflSystem::run_hier when the topology was flat and the
  // run collapsed onto run_async.
  bool collapsed = false;
};

class TreeEngine {
 public:
  // `leaf_tiers[ordinal]` is the per-region tier membership for each leaf
  // in Topology::leaves() order; all client ids are global pool ids.
  // Throws std::invalid_argument on a flat topology (run it through
  // AsyncEngine or TiflSystem::run_hier) and on a bad config.
  TreeEngine(EngineConfig config, AsyncConfig async, HierConfig hier,
             nn::ModelFactory factory, ClientPool* pool,
             std::vector<std::vector<std::vector<std::size_t>>> leaf_tiers,
             const data::Dataset* test, sim::LatencyModel latency_model);

  // Leaves sample uniformly per tier.
  HierRunResult run(std::optional<std::uint64_t> seed_override = {});

  void set_lifecycle_hooks(HierLifecycleHooks hooks);
  void set_thread_pool(util::ThreadPool* pool) {
    trainer_.set_thread_pool(pool);
  }

 private:
  void validate() const;
  HierRunResult run_tree(std::uint64_t seed);

  EngineConfig config_;
  AsyncConfig async_;
  HierConfig hier_;
  nn::ModelFactory factory_;
  ClientPool* clients_;
  std::vector<std::vector<std::vector<std::size_t>>> leaf_tiers_;
  const data::Dataset* test_;
  sim::LatencyModel latency_model_;
  HierLifecycleHooks hooks_;
  CohortTrainer trainer_{factory_, config_.local};
};

}  // namespace tifl::fl::hier
