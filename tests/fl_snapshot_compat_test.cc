// Snapshots written by an older build must still resume.  fl_resume_test
// and fl_hier_engine_test write and read their snapshots with the same
// build, so a payload layout change made on both sides passes them; the
// files under tests/data/ pin the layout instead.
//
// The three snapshots were written by commit a9f144c: this file, copied
// into that tree's tests/ and built there (default Release, the CMake
// rule that defines TIFL_SOURCE_DIR included), run with
//   --gtest_also_run_disabled_tests --gtest_filter='*DISABLED_Write*'
// which crashes each configuration below after its first checkpoints and
// leaves the last snapshot in tests/data/.  Each test here resumes one of
// them and must reproduce the uninterrupted run of the same config in
// this build.  A deliberate layout change must bump kSnapshotVersion
// (fl/snapshot.h) and rewrite the files the same way.
//
// compat_dynamic.snap was written under a 0.5 s barrier window, a knob
// that build had: it deferred a cohort's training to the end of the
// window, so the file holds deferred cohorts.  This build's dynamic loop
// trains its pending cohorts in flushes and flushes before every write,
// and it trains the file's deferred ones in one flush at load.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "fl/async_engine.h"
#include "fl/client_pool.h"
#include "fl/hier/tree_engine.h"
#include "obs/metrics.h"
#include "sim/fault_model.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::TinyFederation;

// The files hold model state computed by a default x86-64 build (SSE2,
// no FMA).  A build whose GEMM kernels round differently (FMA or AVX on
// x86-64, or another ISA) continues from that state along a different
// float trajectory, so there only the schedule must match: versions,
// virtual times, tiers, selected clients and event counts.
#if defined(__x86_64__) && !defined(__FMA__) && !defined(__AVX__)
constexpr bool kWriterArithmetic = true;
#else
constexpr bool kWriterArithmetic = false;
#endif

std::string data_path(const std::string& name) {
  return std::string(TIFL_SOURCE_DIR) + "/tests/data/" + name;
}

// --- the pinned configurations ----------------------------------------------

// Static loop, update loss with retries.
AsyncConfig static_config() {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  async.fault.loss_prob = 0.2;
  async.fault.max_retries = 2;
  async.fault.backoff_base = 0.25;
  return async;
}

// Dynamic loop: churn and slowdowns.
AsyncConfig dynamic_config() {
  AsyncConfig async;
  async.total_updates = 20;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kPolynomial;
  async.churn.join_rate = 0.05;
  async.churn.leave_rate = 0.05;
  async.churn.slowdown_rate = 0.1;
  return async;
}

// Root + 2 regions, 12 clients, region 0 down for [0.5, 1.5).
AsyncConfig tree_config() {
  AsyncConfig async;
  async.total_updates = 6;
  async.clients_per_tier_round = 3;
  async.eval_every = 2;
  return async;
}

hier::HierConfig two_regions_with_outage() {
  hier::HierConfig hier;
  hier.topology = hier::Topology::regions(2);
  hier.outages = {sim::RegionalOutage{/*region=*/0, /*start=*/0.5,
                                      /*duration=*/1.0}};
  return hier;
}

struct Outcome {
  std::vector<float> final_weights;
  std::vector<RoundRecord> rounds;
  std::size_t processed_events = 0;
  // Submissions per tier (flat) or aggregations per node (tree).
  std::vector<std::size_t> counts;
};

Outcome run_flat(const AsyncConfig& async) {
  obs::Registry::global().reset();
  TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
  AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                     &fed.clients, two_tiers(10), &fed.data.test,
                     fed.latency);
  util::ThreadPool pool(2);
  engine.set_thread_pool(&pool);
  AsyncRunResult out = engine.run();
  return {std::move(out.final_weights), std::move(out.result.rounds),
          out.processed_events, std::move(out.tier_updates)};
}

Outcome run_tree(const AsyncConfig& async) {
  obs::Registry::global().reset();
  TinyFederation fed = FederationBuilder().clients(12).jitter(0.05).build();
  ClientPool pool(&fed.clients);
  hier::TreeEngine engine(
      tiny_engine_config(1), async, two_regions_with_outage(), tiny_factory(),
      &pool, {{{0, 1, 2}, {3, 4, 5}}, {{6, 7, 8}, {9, 10, 11}}},
      &fed.data.test, fed.latency);
  util::ThreadPool workers(2);
  engine.set_thread_pool(&workers);
  hier::HierRunResult out = engine.run();
  return {std::move(out.final_weights), std::move(out.result.rounds),
          out.processed_events, std::move(out.node_rounds)};
}

using Runner = Outcome (*)(const AsyncConfig&);

// `resumed` against the uninterrupted run `full`.
void expect_same_run(const Outcome& full, const Outcome& resumed,
                     const std::string& file) {
  ASSERT_EQ(full.rounds.size(), resumed.rounds.size()) << file;
  EXPECT_EQ(full.processed_events, resumed.processed_events) << file;
  EXPECT_EQ(full.counts, resumed.counts) << file;
  for (std::size_t i = 0; i < full.rounds.size(); ++i) {
    const RoundRecord& a = full.rounds[i];
    const RoundRecord& b = resumed.rounds[i];
    EXPECT_EQ(a.round, b.round) << file << " version " << i;
    EXPECT_EQ(a.virtual_time, b.virtual_time) << file << " version " << i;
    EXPECT_EQ(a.round_latency, b.round_latency) << file << " version " << i;
    EXPECT_EQ(a.selected_tier, b.selected_tier) << file << " version " << i;
    EXPECT_EQ(a.selected_clients, b.selected_clients)
        << file << " version " << i;
    if (kWriterArithmetic) {
      EXPECT_EQ(a.global_accuracy, b.global_accuracy)
          << file << " version " << i;
      EXPECT_EQ(a.global_loss, b.global_loss) << file << " version " << i;
      EXPECT_EQ(a.train_loss, b.train_loss) << file << " version " << i;
    }
  }
  if (kWriterArithmetic) {
    EXPECT_EQ(full.final_weights, resumed.final_weights) << file;
  } else {
    EXPECT_EQ(full.final_weights.size(), resumed.final_weights.size())
        << file;
  }
}

// Resumes tests/data/`file` under `async` and compares it with the
// uninterrupted run.
void expect_resumes(Runner run, const AsyncConfig& async,
                    const std::string& file) {
  const Outcome full = run(async);
  AsyncConfig resuming = async;
  resuming.resume_path = data_path(file);
  expect_same_run(full, run(resuming), file);
}

TEST(SnapshotCompat, StaticLoopWithFaultLossResumes) {
  expect_resumes(run_flat, static_config(), "compat_static.snap");
}

TEST(SnapshotCompat, DynamicLoopWithChurnResumes) {
  expect_resumes(run_flat, dynamic_config(), "compat_dynamic.snap");
}

TEST(SnapshotCompat, TwoRegionTreeWithOutageResumes) {
  expect_resumes(run_tree, tree_config(), "compat_tree.snap");
}

TEST(SnapshotCompat, DynamicLoopResumesCheckpointsAndResumesAgain) {
  // The older build's deferred cohorts train at load.  The checkpoints the
  // resumed run writes must hold this build's state only, so a second
  // resume from them reproduces the uninterrupted run too.
  const AsyncConfig async = dynamic_config();
  const Outcome full = run_flat(async);
  const double span = full.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/compat_dynamic_again.snap";
  AsyncConfig first = async;
  first.resume_path = data_path("compat_dynamic.snap");
  first.checkpoint_every = 0.1 * span;
  first.checkpoint_path = snap;
  first.fault.crash_at = 0.85 * span;
  EXPECT_THROW(run_flat(first), sim::SimulatedCrash);

  AsyncConfig second = async;
  second.resume_path = snap;
  expect_same_run(full, run_flat(second), "compat_dynamic.snap, resumed twice");
}

// Rewrites tests/data/ (see the header): checkpoints every 20% of the
// uninterrupted run's virtual span and crashes at 55% of it.
TEST(SnapshotCompat, DISABLED_WriteSnapshots) {
  const auto write = [](Runner run, const AsyncConfig& async,
                        const std::string& file) {
    const double span = run(async).rounds.back().virtual_time;
    AsyncConfig crashing = async;
    crashing.checkpoint_every = 0.2 * span;
    crashing.checkpoint_path = data_path(file);
    crashing.fault.crash_at = 0.55 * span;
    EXPECT_THROW(run(crashing), sim::SimulatedCrash) << file;
  };
  write(run_flat, static_config(), "compat_static.snap");
  write(run_flat, dynamic_config(), "compat_dynamic.snap");
  write(run_tree, tree_config(), "compat_tree.snap");
}

}  // namespace
}  // namespace tifl::fl
