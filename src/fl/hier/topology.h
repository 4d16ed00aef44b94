// Aggregator-tree topology: the static shape of a hierarchical
// federation (edge → regional → global).  Leaves own disjoint client
// ranges and run tier rounds over them; inner nodes aggregate their
// children at their own cadence; every non-root node reaches its parent
// over a sim::LinkProfile-costed link.
//
// A topology is pure configuration — no runtime state lives here.  It is
// either built programmatically (flat(), regions(n)) or parsed from a
// line-based file:
//
//   # comment
//   node global -
//   node west global latency=0.05 bandwidth=100 jitter=0.1 report-every=1
//   node east global latency=0.08 bandwidth=50
//   assign 0-499 west
//   assign 500-999 east
//
// `node <name> <parent|->` declares a node (parents before children);
// key=value pairs tune the link to the parent and the node's cadence.
// `assign <lo>-<hi> <leaf>` pins an inclusive client-id range to a leaf;
// without any assign directives clients split contiguously across leaves
// in declaration order.  A single-node topology ("flat") is the flat
// federation: core::TiflSystem::run_hier collapses it onto run_async
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/latency_model.h"

namespace tifl::fl::hier {

struct NodeSpec {
  std::string name;
  // Index of the parent in Topology::nodes; -1 for the root.  Parents
  // always precede children (validated), so iterating nodes in order is a
  // topological walk.
  int parent = -1;
  // Link to the parent (ignored for the root).
  sim::LinkProfile link;
  // Inner nodes: child deliveries per aggregation (cadence).
  std::size_t agg_every = 1;
  // Non-root nodes: local aggregations per uplink to the parent.
  std::size_t report_every = 1;
  // Leaves: tiers formed over this region's clients; 0 = inherit the
  // run-level default.
  std::size_t num_tiers = 0;
};

class Topology {
 public:
  std::vector<NodeSpec> nodes;
  // Optional explicit client → leaf-ordinal pinning (leaf ordinals index
  // leaves(), i.e. leaf declaration order).  Empty = contiguous split.
  // Sized num_clients when present (validated at assign_clients time).
  std::vector<std::size_t> client_leaf;

  // Root index (the unique parent == -1 node; validated to be node 0).
  std::size_t root() const { return 0; }
  // Leaf node indices in declaration order — the "region" ordinal space
  // used by client assignment and sim::RegionalOutage.
  std::vector<std::size_t> leaves() const;
  std::vector<std::size_t> children_of(std::size_t node) const;
  std::size_t depth_of(std::size_t node) const;
  bool is_flat() const { return nodes.size() == 1; }

  // Structural + parameter validation; throws std::invalid_argument with
  // the offending node named.  `num_clients` checks assignment bounds.
  void validate(std::size_t num_clients) const;

  // Per-client leaf ordinal (not node index): explicit pinning when
  // client_leaf is set, otherwise a contiguous equal split in leaf order
  // (first num_clients % leaves regions get one extra client).
  std::vector<std::size_t> assign_clients(std::size_t num_clients) const;

  // Folds every structural and link parameter into one seed-style hash —
  // resume guards compare it so a snapshot never restores onto a
  // different tree.
  std::uint64_t fingerprint() const;

  // A single global aggregator — the collapse-to-flat topology.
  static Topology flat();
  // Root + n leaf regions with identical default links.
  static Topology regions(std::size_t n);
  // Parse the file format above from text / from a file on disk.
  static Topology parse(std::string_view text);
  static Topology load(const std::string& path);
};

}  // namespace tifl::fl::hier
