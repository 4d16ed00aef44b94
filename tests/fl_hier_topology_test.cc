// fl::hier::Topology: the aggregator tree's static shape — parsing,
// structural validation, client assignment and the resume-guard
// fingerprint.
#include "fl/hier/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tifl::fl::hier {
namespace {

constexpr char kTwoRegions[] = R"(# two regions under one root
node global -
node west global latency=0.05 bandwidth=100 jitter=0.1 report-every=2
node east global latency=0.08 bandwidth=50 tiers=3
assign 0-5 west
assign 6-9 east
)";

TEST(HierTopology, ParsesNodesLinksAndAssignments) {
  const Topology topo = Topology::parse(kTwoRegions);
  ASSERT_EQ(topo.nodes.size(), 3u);
  EXPECT_EQ(topo.nodes[0].name, "global");
  EXPECT_EQ(topo.nodes[0].parent, -1);
  EXPECT_EQ(topo.nodes[1].name, "west");
  EXPECT_EQ(topo.nodes[1].parent, 0);
  EXPECT_DOUBLE_EQ(topo.nodes[1].link.latency_seconds, 0.05);
  EXPECT_DOUBLE_EQ(topo.nodes[1].link.bandwidth_mbps, 100.0);
  EXPECT_DOUBLE_EQ(topo.nodes[1].link.jitter_sigma, 0.1);
  EXPECT_EQ(topo.nodes[1].report_every, 2u);
  EXPECT_EQ(topo.nodes[2].num_tiers, 3u);

  ASSERT_EQ(topo.client_leaf.size(), 10u);
  for (std::size_t c = 0; c <= 5; ++c) EXPECT_EQ(topo.client_leaf[c], 0u);
  for (std::size_t c = 6; c <= 9; ++c) EXPECT_EQ(topo.client_leaf[c], 1u);
  topo.validate(10);
}

TEST(HierTopology, LeavesChildrenAndDepth) {
  Topology topo = Topology::parse(
      "node global -\n"
      "node region0 global\n"
      "node region1 global\n"
      "node edge0 region0\n"
      "node edge1 region0\n");
  EXPECT_EQ(topo.children_of(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(topo.children_of(1), (std::vector<std::size_t>{3, 4}));
  // region1 has no children, so it is a leaf despite being depth 1; the
  // leaf *ordinal* space follows declaration order.
  EXPECT_EQ(topo.leaves(), (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(topo.depth_of(0), 0u);
  EXPECT_EQ(topo.depth_of(2), 1u);
  EXPECT_EQ(topo.depth_of(4), 2u);
  EXPECT_FALSE(topo.is_flat());
  topo.validate(12);
}

TEST(HierTopology, FlatAndRegionsBuilders) {
  EXPECT_TRUE(Topology::flat().is_flat());
  EXPECT_TRUE(Topology::regions(1).is_flat());
  const Topology topo = Topology::regions(4);
  EXPECT_EQ(topo.nodes.size(), 5u);
  EXPECT_EQ(topo.leaves().size(), 4u);
  for (std::size_t n = 1; n < topo.nodes.size(); ++n) {
    EXPECT_EQ(topo.nodes[n].parent, 0);
  }
  topo.validate(100);
}

TEST(HierTopology, ContiguousSplitBalancesRemainder) {
  const std::vector<std::size_t> assign =
      Topology::regions(3).assign_clients(10);
  ASSERT_EQ(assign.size(), 10u);
  // 10 over 3 leaves: 4 + 3 + 3, contiguous in leaf order.
  std::vector<std::size_t> counts(3, 0);
  for (std::size_t leaf : assign) ++counts[leaf];
  EXPECT_EQ(counts, (std::vector<std::size_t>{4, 3, 3}));
  EXPECT_TRUE(std::is_sorted(assign.begin(), assign.end()));
}

TEST(HierTopology, ExplicitAssignmentWins) {
  const Topology topo = Topology::parse(kTwoRegions);
  const std::vector<std::size_t> assign = topo.assign_clients(10);
  EXPECT_EQ(assign, topo.client_leaf);
  // Assignment size must match the population.
  EXPECT_THROW(topo.assign_clients(11), std::invalid_argument);
}

TEST(HierTopology, RejectsMalformedTrees) {
  // Second root.
  EXPECT_THROW(Topology::parse("node a -\nnode b -\n").validate(4),
               std::invalid_argument);
  // Unknown parent (also: forward references are impossible by
  // construction — the parent must already be declared).
  EXPECT_THROW(Topology::parse("node a -\nnode b missing\n"),
               std::invalid_argument);
  // Duplicate name.
  EXPECT_THROW(Topology::parse("node a -\nnode a a\n").validate(4),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(Topology::parse("node a -\nnode b a warp=9\n"),
               std::invalid_argument);
  // Malformed / empty assign range, non-leaf target, coverage gap.
  EXPECT_THROW(Topology::parse("node a -\nnode b a\nassign x b\n"),
               std::invalid_argument);
  EXPECT_THROW(Topology::parse("node a -\nnode b a\nassign 5-2 b\n"),
               std::invalid_argument);
  EXPECT_THROW(Topology::parse("node a -\nnode b a\nassign 0-3 a\n"),
               std::invalid_argument);
  EXPECT_THROW(
      Topology::parse("node a -\nnode b a\nnode c a\nassign 2-3 b\n"),
      std::invalid_argument);
}

TEST(HierTopology, RejectsBadLinkAndCadenceParameters) {
  EXPECT_THROW(Topology::parse("node a -\nnode b a latency=-1\n").validate(4),
               std::invalid_argument);
  EXPECT_THROW(
      Topology::parse("node a -\nnode b a bandwidth=0\n").validate(4),
      std::invalid_argument);
  EXPECT_THROW(
      Topology::parse("node a -\nnode b a report-every=0\n").validate(4),
      std::invalid_argument);
  EXPECT_THROW(
      Topology::parse("node a -\nnode b a agg-every=0\n").validate(4),
      std::invalid_argument);
  // Fewer clients than leaf regions cannot be split.
  EXPECT_THROW(Topology::regions(3).validate(2), std::invalid_argument);
}

TEST(HierTopology, NamesTheKeyAndTheMalformedValue) {
  const auto message = [](const char* text) {
    try {
      Topology::parse(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("node a -\nnode b a latency=0.5ms\n"),
            "hier::Topology: latency: trailing junk in '0.5ms'");
  EXPECT_EQ(message("node a -\nnode b a bandwidth=fast\n"),
            "hier::Topology: bandwidth: expected a number, got 'fast'");
  EXPECT_EQ(message("node a -\nnode b a jitter=nan\n"),
            "hier::Topology: jitter: expected a finite number, got 'nan'");
  EXPECT_EQ(message("node a -\nnode b a tiers=2.5\n"),
            "hier::Topology: tiers: expected a non-negative integer, got "
            "'2.5'");
}

TEST(HierTopology, FingerprintCoversStructureAndLinks) {
  const std::uint64_t base = Topology::parse(kTwoRegions).fingerprint();
  EXPECT_EQ(base, Topology::parse(kTwoRegions).fingerprint());

  // Any structural or link-parameter change moves the fingerprint: a
  // snapshot from one tree must not restore onto another.
  std::string bumped(kTwoRegions);
  bumped.replace(bumped.find("latency=0.05"), 12, "latency=0.06");
  EXPECT_NE(base, Topology::parse(bumped).fingerprint());

  std::string renamed(kTwoRegions);
  renamed.replace(renamed.find("west"), 4, "wast");
  renamed.replace(renamed.find("west"), 4, "wast");
  EXPECT_NE(base, Topology::parse(renamed).fingerprint());

  EXPECT_NE(Topology::regions(2).fingerprint(),
            Topology::regions(3).fingerprint());
  EXPECT_NE(Topology::regions(2).fingerprint(),
            Topology::flat().fingerprint());
}

}  // namespace
}  // namespace tifl::fl::hier
