// Aggregator-tree engine (fl/hier): the determinism oracle and the
// regional failure modes.  (The flat collapse lives in
// core::TiflSystem::run_hier; integration_test holds its oracle.)
//
//  - Multi-region runs are bit-reproducible across training thread pools
//    1/2/8.
//  - Regional outages (sim::regional_outages composition) degrade the
//    affected region gracefully and never break determinism.
//  - A run crashed mid-tree and resumed from its checkpoint reproduces
//    the uninterrupted run exactly, and a resume rejects a snapshot field
//    the loop would index out of bounds with.
#include "fl/hier/tree_engine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fl/async_engine.h"
#include "fl/client_pool.h"
#include "fl/hier/node.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/churn_model.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace tifl::fl::hier {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::TinyFederation;

constexpr std::size_t kClients = 12;

std::uint64_t weight_hash(const std::vector<float>& weights) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (float w : weights) {
    std::uint32_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// Wall clocks and checkpoint accounting (a crashed run writes
// checkpoints, the oracle run does not) are excluded; everything else
// must match bit for bit.
std::string metrics_snapshot() {
  return obs::Registry::global().to_json([](std::string_view name) {
    return !name.ends_with("_ns") && name.substr(0, 11) != "checkpoint.";
  });
}

// The 12 clients split contiguously across two regions (matching
// Topology::regions(2).assign_clients(12)), two tiers per region.
std::vector<std::vector<std::vector<std::size_t>>> two_region_tiers() {
  return {{{0, 1, 2}, {3, 4, 5}}, {{6, 7, 8}, {9, 10, 11}}};
}

AsyncConfig base_async() {
  AsyncConfig async;
  async.total_updates = 6;
  async.clients_per_tier_round = 3;
  async.eval_every = 2;
  return async;
}

HierConfig two_regions(std::vector<sim::RegionalOutage> outages = {}) {
  HierConfig hier;
  hier.topology = Topology::regions(2);
  hier.outages = std::move(outages);
  return hier;
}

struct HierOutput {
  HierRunResult run;
  std::string trace;
  std::string metrics;
};

// One tree run over the tiny federation with a fresh registry and tracer.
// Throws sim::SimulatedCrash through.
HierOutput run_tree(const HierConfig& hier, const AsyncConfig& async,
                    std::size_t threads, HierLifecycleHooks hooks = {}) {
  obs::Registry::global().reset();
  HierOutput out;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(&trace_out);
    obs::TracerScope scope(&tracer);
    TinyFederation fed =
        FederationBuilder().clients(kClients).jitter(0.05).build();
    ClientPool pool(&fed.clients);
    TreeEngine engine(tiny_engine_config(1), async, hier, tiny_factory(),
                      &pool, two_region_tiers(), &fed.data.test, fed.latency);
    engine.set_lifecycle_hooks(std::move(hooks));
    util::ThreadPool workers(threads);
    engine.set_thread_pool(&workers);
    out.run = engine.run();
    tracer.flush();
  }
  out.trace = trace_out.str();
  out.metrics = metrics_snapshot();
  return out;
}

void expect_identical(const HierOutput& a, const HierOutput& b,
                      const std::string& label) {
  EXPECT_EQ(a.run.final_weights, b.run.final_weights) << label;
  EXPECT_EQ(weight_hash(a.run.final_weights),
            weight_hash(b.run.final_weights))
      << label;
  ASSERT_EQ(a.run.result.rounds.size(), b.run.result.rounds.size()) << label;
  for (std::size_t i = 0; i < a.run.result.rounds.size(); ++i) {
    EXPECT_EQ(a.run.result.rounds[i].selected_clients,
              b.run.result.rounds[i].selected_clients)
        << label << " round " << i;
    EXPECT_DOUBLE_EQ(a.run.result.rounds[i].virtual_time,
                     b.run.result.rounds[i].virtual_time)
        << label << " round " << i;
    EXPECT_DOUBLE_EQ(a.run.result.rounds[i].global_accuracy,
                     b.run.result.rounds[i].global_accuracy)
        << label << " round " << i;
  }
  EXPECT_EQ(a.run.node_rounds, b.run.node_rounds) << label;
  EXPECT_EQ(a.run.processed_events, b.run.processed_events) << label;
  EXPECT_EQ(a.trace, b.trace) << label;
  EXPECT_EQ(a.metrics, b.metrics) << label;
}

// --- multi-region determinism ------------------------------------------------

TEST(HierDeterminism, PoolSizeInvariant) {
  const AsyncConfig async = base_async();
  const HierConfig hier = two_regions();
  const HierOutput baseline = run_tree(hier, async, 1);
  EXPECT_FALSE(baseline.run.collapsed);
  EXPECT_EQ(baseline.run.result.rounds.size(), async.total_updates);
  EXPECT_GT(baseline.run.uplinks, 0u);
  EXPECT_GT(baseline.run.downlinks, 0u);
  EXPECT_GT(baseline.run.root_link_bytes, 0u);

  for (std::size_t threads : {2u, 8u}) {
    expect_identical(baseline, run_tree(hier, async, threads),
                     "threads=" + std::to_string(threads));
  }
}

TEST(HierValidation, RunThrowsWhileAClientLeaseIsOutstanding) {
  TinyFederation fed = FederationBuilder().clients(kClients).build();
  ClientPool pool(&fed.clients);
  TreeEngine engine(tiny_engine_config(1), base_async(), two_regions(),
                    tiny_factory(), &pool, two_region_tiers(), &fed.data.test,
                    fed.latency);
  EXPECT_NO_THROW(engine.run());
  const ClientPool::Lease held = pool.lease(0);
  try {
    engine.run();
    ADD_FAILURE() << "outstanding lease not reported";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("TreeEngine: 1 client lease"),
              std::string::npos)
        << error.what();
  }
}

TEST(HierDeterminism, SeedChangesTheTrajectory) {
  const AsyncConfig async = base_async();
  const HierConfig hier = two_regions();
  obs::Registry::global().reset();
  TinyFederation fed =
      FederationBuilder().clients(kClients).jitter(0.05).build();
  ClientPool pool(&fed.clients);
  TreeEngine engine(tiny_engine_config(1), async, hier, tiny_factory(),
                    &pool, two_region_tiers(), &fed.data.test, fed.latency);
  const HierRunResult a = engine.run(std::uint64_t{111});
  const HierRunResult b = engine.run(std::uint64_t{222});
  EXPECT_NE(weight_hash(a.final_weights), weight_hash(b.final_weights));
}

// --- regional outages --------------------------------------------------------

TEST(RegionalOutages, ComposesChurnIntoCoalescedSortedWindows) {
  sim::ChurnConfig churn;
  churn.leave_rate = 0.02;
  const std::vector<sim::RegionalOutage> a =
      sim::regional_outages(churn, 99, 3, 800.0, 60.0);
  const std::vector<sim::RegionalOutage> b =
      sim::regional_outages(churn, 99, 3, 800.0, 60.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region);
    EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_LT(a[i].region, 3u);
    EXPECT_GE(a[i].start, 0.0);
    EXPECT_GE(a[i].duration, 60.0);  // coalescing can only lengthen
    if (i > 0) {
      EXPECT_GE(a[i].start, a[i - 1].start);
    }
  }
  // Same-region windows never overlap after coalescing.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if (a[i].region != a[j].region) continue;
      EXPECT_GE(a[j].start, a[i].start + a[i].duration);
    }
  }
  EXPECT_THROW(sim::regional_outages(churn, 99, 0, 800.0, 60.0),
               std::invalid_argument);
  EXPECT_THROW(sim::regional_outages(churn, 99, 3, 800.0, 0.0),
               std::invalid_argument);
}

TEST(RegionalOutages, DegradeGracefullyAndStayDeterministic) {
  const AsyncConfig async = base_async();
  // Region 0 (the fast clients, so tier rounds actually complete inside
  // the window) drops mid-run and rejoins before the end.
  const HierConfig hier =
      two_regions({sim::RegionalOutage{/*region=*/0, /*start=*/0.5,
                                       /*duration=*/1.0}});

  const HierOutput out = run_tree(hier, async, 2);
  EXPECT_EQ(out.run.outage_count, 1u);
  EXPECT_EQ(out.run.rejoin_count, 1u);
  // Graceful degradation: the federation still completes every root round.
  EXPECT_EQ(out.run.result.rounds.size(), async.total_updates);

  // The outage changes the trajectory relative to the healthy run...
  const HierOutput healthy = run_tree(two_regions(), async, 2);
  EXPECT_NE(weight_hash(out.run.final_weights),
            weight_hash(healthy.run.final_weights));
  // ...but never its reproducibility.
  expect_identical(out, run_tree(hier, async, 8), "outage threads=8");
}

// --- re-tiering hooks --------------------------------------------------------

TEST(HierRetier, PerLeafHooksFireAndStayDeterministic) {
  AsyncConfig async = base_async();
  async.total_updates = 8;
  async.reprofile_every = 3.0;

  auto leaf_tiers = two_region_tiers();
  std::size_t observed = 0;
  HierLifecycleHooks hooks;
  hooks.observe = [&observed](std::size_t, std::size_t, double) {
    ++observed;
  };
  hooks.retier = [&leaf_tiers](std::size_t leaf) { return leaf_tiers[leaf]; };

  const HierOutput out = run_tree(two_regions(), async, 2, hooks);
  EXPECT_GT(out.run.reprofile_count, 0u);
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(out.run.result.rounds.size(), async.total_updates);

  observed = 0;
  expect_identical(out, run_tree(two_regions(), async, 8, hooks),
                   "retier threads=8");
}

TEST(HierRetier, ReprofileWithoutHooksThrows) {
  AsyncConfig async = base_async();
  async.reprofile_every = 3.0;
  obs::Registry::global().reset();
  TinyFederation fed =
      FederationBuilder().clients(kClients).jitter(0.05).build();
  ClientPool pool(&fed.clients);
  TreeEngine engine(tiny_engine_config(1), async, two_regions(),
                    tiny_factory(), &pool, two_region_tiers(), &fed.data.test,
                    fed.latency);
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

// --- config validation -------------------------------------------------------

TEST(HierValidation, RejectsUnsupportedFlatEngineFacilities) {
  TinyFederation fed =
      FederationBuilder().clients(kClients).jitter(0.05).build();
  ClientPool pool(&fed.clients);
  const auto make = [&](const AsyncConfig& async) {
    return TreeEngine(tiny_engine_config(1), async, two_regions(),
                      tiny_factory(), &pool, two_region_tiers(),
                      &fed.data.test, fed.latency);
  };
  AsyncConfig churned = base_async();
  churned.churn.join_rate = 0.1;
  EXPECT_THROW(make(churned), std::invalid_argument);

  AsyncConfig logged = base_async();
  logged.event_log_path = "/tmp/hier_events.log";
  EXPECT_THROW(make(logged), std::invalid_argument);

  AsyncConfig zero = base_async();
  zero.total_updates = 0;
  EXPECT_THROW(make(zero), std::invalid_argument);

  // Outage regions must exist.
  AsyncConfig ok = base_async();
  EXPECT_THROW(
      TreeEngine(tiny_engine_config(1), ok,
                 two_regions({sim::RegionalOutage{5, 1.0, 1.0}}),
                 tiny_factory(), &pool, two_region_tiers(), &fed.data.test,
                 fed.latency),
      std::invalid_argument);

  // A flat topology is the flat federation, which has one collapse path:
  // TiflSystem::run_hier onto run_async.
  HierConfig flat;
  flat.topology = Topology::flat();
  try {
    TreeEngine(tiny_engine_config(1), ok, flat, tiny_factory(), &pool, {},
               &fed.data.test, fed.latency);
    FAIL() << "a flat topology was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("run_hier"), std::string::npos)
        << e.what();
  }
}

TEST(HierValidation, RejectsWhatAsyncEngineRejects) {
  TinyFederation fed =
      FederationBuilder().clients(kClients).jitter(0.05).build();
  ClientPool pool(&fed.clients);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Mutation = std::function<void(AsyncConfig&)>;
  const std::vector<std::pair<const char*, Mutation>> cases = {
      {"poly_alpha -1", [](AsyncConfig& a) { a.poly_alpha = -1.0; }},
      {"reprofile_every -1", [](AsyncConfig& a) { a.reprofile_every = -1.0; }},
      {"reprofile_every NaN",
       [nan](AsyncConfig& a) { a.reprofile_every = nan; }},
      {"checkpoint_every -1",
       [](AsyncConfig& a) { a.checkpoint_every = -1.0; }},
      {"checkpoint_every NaN",
       [nan](AsyncConfig& a) { a.checkpoint_every = nan; }},
      {"churn.join_rate NaN",
       [nan](AsyncConfig& a) { a.churn.join_rate = nan; }},
  };
  const EngineConfig config = tiny_engine_config(1);
  for (const auto& [label, mutate] : cases) {
    AsyncConfig async = base_async();
    mutate(async);
    EXPECT_THROW(AsyncEngine(config, async, tiny_factory(), &pool,
                             two_tiers(kClients), &fed.data.test, fed.latency),
                 std::invalid_argument)
        << label;
    EXPECT_THROW(TreeEngine(config, async, two_regions(), tiny_factory(),
                            &pool, two_region_tiers(), &fed.data.test,
                            fed.latency),
                 std::invalid_argument)
        << label;
  }
}

// --- crash + resume ----------------------------------------------------------

TEST(HierResume, CrashedRunResumesToTheUninterruptedResult) {
  const AsyncConfig async = base_async();
  const HierConfig hier = two_regions();
  const HierOutput full = run_tree(hier, async, 2);
  const double span = full.run.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/hier_resume.snap";

  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.3 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.65 * span;
  bool crashed = false;
  try {
    run_tree(hier, crashing, 2);
  } catch (const sim::SimulatedCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  AsyncConfig resuming = async;
  resuming.resume_path = snap;
  const HierOutput resumed = run_tree(hier, resuming, 2);
  EXPECT_EQ(full.run.final_weights, resumed.run.final_weights);
  ASSERT_EQ(full.run.result.rounds.size(),
            resumed.run.result.rounds.size());
  for (std::size_t i = 0; i < full.run.result.rounds.size(); ++i) {
    EXPECT_EQ(full.run.result.rounds[i].selected_clients,
              resumed.run.result.rounds[i].selected_clients);
    EXPECT_DOUBLE_EQ(full.run.result.rounds[i].virtual_time,
                     resumed.run.result.rounds[i].virtual_time);
  }
  EXPECT_EQ(full.run.processed_events, resumed.run.processed_events);
  EXPECT_EQ(full.run.node_rounds, resumed.run.node_rounds);
  // The resumed trace is a byte-exact suffix of the uninterrupted stream,
  // and the restored metrics match the oracle's totals.
  ASSERT_LE(resumed.trace.size(), full.trace.size());
  EXPECT_EQ(full.trace.substr(full.trace.size() - resumed.trace.size()),
            resumed.trace);
  EXPECT_EQ(full.metrics, resumed.metrics);

  // Resuming on another pool size is equally exact.
  const HierOutput resumed8 = run_tree(hier, resuming, 8);
  EXPECT_EQ(full.run.final_weights, resumed8.run.final_weights);
}

TEST(HierResume, SnapshotRefusesADifferentTree) {
  const AsyncConfig async = base_async();
  const HierConfig hier = two_regions();
  const std::string snap = ::testing::TempDir() + "/hier_mismatch.snap";

  AsyncConfig crashing = async;
  crashing.checkpoint_every = 1.0;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 4.0;
  try {
    run_tree(hier, crashing, 1);
  } catch (const sim::SimulatedCrash&) {
  }

  AsyncConfig resuming = async;
  resuming.resume_path = snap;
  // Different link latency = different tree fingerprint.
  HierConfig other = two_regions();
  other.topology.nodes[1].link.latency_seconds = 0.25;
  EXPECT_THROW(run_tree(other, resuming, 1), std::runtime_error);
}

// --- malformed snapshots -----------------------------------------------------

// A snapshot payload of run_tree's two-region tree, decoded field by field
// through one declaration (io below) built from the fl/snapshot pieces the
// engine uses, so that encode() writes back exactly what decode() read.
struct TreePayload {
  struct Link {
    std::uint64_t seq = 0;
    std::uint64_t from = 0;
    std::uint64_t updates = 0;
    double send_time = 0.0;
    std::vector<float> model;
  };
  // The queue's event kinds (tree_engine.cc): links, then leaf tiers.
  static constexpr std::uint64_t kUplink = 1;
  static constexpr std::uint64_t kOutage = 3;
  static constexpr std::uint64_t kRetier = 5;
  static constexpr std::uint64_t kTierBase = 0x100;

  std::array<std::uint64_t, 5> prologue{};  // tag, fingerprint, dimensions
  std::string policy;
  std::vector<AggregatorNode> nodes;
  std::uint64_t dispatch_seq = 0;
  std::vector<RoundRecord> records;
  bool last_evaluated = false;
  std::array<std::uint64_t, 8> tallies{};  // link, outage, event counts
  double checkpoint_due = 0.0;
  std::vector<Link> links;
  double now = 0.0;
  std::uint64_t next_seq = 0;
  std::vector<sim::Event> events;
  std::array<std::string, 3> blobs;  // fault model, hooks, metrics

  template <class Archive, class Payload>
  static void io(Archive& ar, Payload& p) {
    for (auto& field : p.prologue) ar.io(field);
    ar.io(p.policy);
    for (auto& node : p.nodes) io_node(ar, node);
    ar.io(p.dispatch_seq);
    io_records(ar, p.records);
    ar.io(p.last_evaluated);
    for (auto& tally : p.tallies) ar.io(tally);
    ar.io(p.checkpoint_due);
    ar.io_size(p.links, 40);
    for (auto& link : p.links) {
      ar.io(link.seq);
      ar.io(link.from);
      ar.io(link.updates);
      ar.io(link.send_time);
      ar.io(link.model);
    }
    ar.io(p.now);
    ar.io(p.next_seq);
    ar.io_size(p.events, 32);
    for (auto& event : p.events) {
      ar.io(event.time);
      ar.io(event.seq);
      ar.io(event.kind);
      ar.io(event.actor);
    }
    for (auto& blob : p.blobs) ar.io(blob);
  }

  static TreePayload decode(const std::string& payload) {
    TreePayload out;
    // Shaped as TreeEngine shapes them: the root's slot per leaf; per
    // leaf, a slot per tier plus the parent view.
    out.nodes.resize(3);
    for (std::size_t n = 0; n < out.nodes.size(); ++n) {
      AggregatorNode& node = out.nodes[n];
      const std::size_t tiers = n == 0 ? 0 : 2;
      const std::size_t slots = n == 0 ? 2 : tiers + 1;
      node.slot_models.resize(slots);
      node.slot_updates.resize(slots);
      node.slot_last_version.resize(slots);
      node.tiers.resize(tiers);
      node.pending.resize(tiers);
      node.selection_rng.resize(tiers);
      node.latency_rng.resize(tiers);
    }
    util::ByteSource source(payload);
    io(source, out);
    EXPECT_TRUE(source.exhausted());
    return out;
  }

  std::string encode() const {
    util::ByteSink sink;
    io(sink, *this);
    return sink.take();
  }

  // The first queued event matching `pred`; fails the test when none does.
  sim::Event& event_where(const std::function<bool(const sim::Event&)>& pred) {
    for (sim::Event& event : events) {
      if (pred(event)) return event;
    }
    ADD_FAILURE() << "no such event in the snapshot's queue";
    return events.front();
  }
};

TEST(HierResume, RestoredSnapshotRejectsEachMalformedField) {
  // The loop indexes per-tier vectors with a tier event's kind, slot and
  // node models with the weight count and the link counters with a
  // payload's sender, so a CRC-valid snapshot must be checked field by
  // field before any event runs.
  const AsyncConfig async = base_async();
  const HierConfig hier = two_regions();
  const HierOutput full = run_tree(hier, async, 1);
  const double span = full.run.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/hier_fields.snap";
  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.3 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.65 * span;
  EXPECT_THROW(run_tree(hier, crashing, 1), sim::SimulatedCrash);

  const TreePayload base = TreePayload::decode(load_snapshot(snap));
  ASSERT_FALSE(base.links.empty()) << "the base needs a link in flight";
  AsyncConfig resuming = async;
  resuming.resume_path = snap;

  // The valid base, written back unchanged, resumes to the uninterrupted
  // result.
  save_snapshot(snap, base.encode());
  EXPECT_EQ(run_tree(hier, resuming, 1).run.final_weights,
            full.run.final_weights);

  const auto is_tier = [](const sim::Event& e) {
    return e.kind >= TreePayload::kTierBase;
  };
  const auto is_link = [&](const sim::Event& e) {
    return e.seq == base.links.front().seq;
  };
  using Edit = std::function<void(TreePayload&)>;
  const std::vector<std::pair<const char*, Edit>> cases = {
      {"slot model length",
       [](TreePayload& p) { p.nodes[1].slot_models[0].pop_back(); }},
      {"node model length", [](TreePayload& p) { p.nodes[0].model.pop_back(); }},
      {"tier_lr length", [](TreePayload& p) { p.nodes[1].tier_lr.pop_back(); }},
      {"staleness_sum length",
       [](TreePayload& p) { p.nodes[2].staleness_sum.pop_back(); }},
      {"retry_count length",
       [](TreePayload& p) { p.nodes[1].retry_count.pop_back(); }},
      {"tier member", [](TreePayload& p) { p.nodes[2].tiers[1][0] = kClients; }},
      {"pending member",
       [](TreePayload& p) { p.nodes[1].pending[0].selected[0] = kClients; }},
      {"pending update length",
       [](TreePayload& p) {
         p.nodes[1].pending[0].updates.front().weights.pop_back();
       }},
      {"link payload sender",
       [](TreePayload& p) { p.links.front().from = p.nodes.size(); }},
      {"link payload model length",
       [](TreePayload& p) { p.links.front().model.pop_back(); }},
      {"tier event",  // a tier its leaf does not have
       [&](TreePayload& p) { p.event_where(is_tier).kind += 2; }},
      {"tier event",  // on the root, which has no tiers
       [&](TreePayload& p) { p.event_where(is_tier).actor = 0; }},
      {"tier event",  // a round with no trained updates
       [&](TreePayload& p) {
         const sim::Event& e = p.event_where(is_tier);
         p.nodes[e.actor].pending[e.kind - TreePayload::kTierBase]
             .updates.clear();
       }},
      {"link event payload",
       [](TreePayload& p) { p.links.erase(p.links.begin()); }},
      {"link event endpoints",
       [&](TreePayload& p) {
         sim::Event& e = p.event_where(is_link);
         e.actor = e.kind == TreePayload::kUplink ? p.links.front().from
                                                  : 0;
       }},
      {"outage, rejoin or retier event",
       [&](TreePayload& p) {
         sim::Event& e = p.event_where(is_tier);
         e.kind = TreePayload::kOutage;
         e.actor = 0;
       }},
      {"outage, rejoin or retier event",  // the run does not re-profile
       [&](TreePayload& p) {
         p.event_where(is_tier).kind = TreePayload::kRetier;
       }},
      {"outage, rejoin or retier event",  // no such kind
       [&](TreePayload& p) { p.event_where(is_tier).kind = 6; }},
  };
  for (const auto& [field, edit] : cases) {
    TreePayload edited = base;
    edit(edited);
    save_snapshot(snap, edited.encode());
    try {
      run_tree(hier, resuming, 1);
      ADD_FAILURE() << field << ": accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << field << ": " << error.what();
    }
  }
}

}  // namespace
}  // namespace tifl::fl::hier
