// Crash-safe runs: a run killed mid-flight and resumed from its last
// checkpoint must be indistinguishable from the uninterrupted run — same
// final weights bit for bit, same per-version round series, the resumed
// trace a byte-exact suffix of the full trace, and the same metrics
// totals.  Asserted across worker-shard counts 1/2/4/8 and thread pools
// 1/2/8, on both async paths, with and without injected update loss, and
// through a stateful (adaptive) selection policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/adaptive_policy.h"
#include "fl/async_engine.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace tifl::fl {
namespace {

using testing::FederationBuilder;
using testing::tiny_engine_config;
using testing::tiny_factory;
using testing::two_tiers;
using testing::TinyFederation;

// Like the determinism suite's filter, additionally dropping the
// checkpoint instruments: the full run writes no checkpoints while the
// crashed run does, and that difference is the point, not a regression.
// The dynamic loop's flush instruments go with them: a checkpoint first
// trains the cohorts then pending, so a run that writes checkpoints
// batches its cohorts into more, smaller flushes.
std::string resume_metrics_snapshot() {
  return obs::Registry::global().to_json([](std::string_view name) {
    return !name.ends_with("_ns") && name.substr(0, 5) != "pool." &&
           name.substr(0, 11) != "checkpoint." &&
           name.substr(0, 11) != "async.flush" &&
           name != "sim.schedule_horizon";
  });
}

struct RunOutput {
  AsyncRunResult result;
  std::string trace;
  std::string metrics;
};

core::AdaptiveTierPolicy make_adaptive(const AsyncConfig& async) {
  core::TierInfo tiers;
  tiers.members = two_tiers(10);
  tiers.avg_latency = {1.0, 2.0};
  core::AdaptiveConfig adaptive;
  adaptive.clients_per_round = async.clients_per_tier_round;
  adaptive.interval = 4;
  return core::AdaptiveTierPolicy(tiers, adaptive, async.total_updates);
}

// One engine run over the 10-client tiny federation with the registry
// reset and a fresh tracer around it.  Throws SimulatedCrash through.
RunOutput run_once(const AsyncConfig& async, std::size_t threads,
                   bool adaptive_policy = false) {
  obs::Registry::global().reset();
  RunOutput out;
  std::ostringstream trace_out;
  {
    obs::Tracer tracer(&trace_out);
    obs::TracerScope scope(&tracer);
    TinyFederation fed = FederationBuilder().clients(10).jitter(0.05).build();
    AsyncEngine engine(tiny_engine_config(1), async, tiny_factory(),
                       &fed.clients, two_tiers(10), &fed.data.test,
                       fed.latency);
    std::optional<core::AdaptiveTierPolicy> policy;
    if (adaptive_policy) {
      policy.emplace(make_adaptive(async));
      engine.set_policy(&*policy);
    }
    util::ThreadPool pool(threads);
    engine.set_thread_pool(&pool);
    out.result = engine.run();
    tracer.flush();
  }
  out.trace = trace_out.str();
  out.metrics = resume_metrics_snapshot();
  return out;
}

void expect_suffix(const std::string& full, const std::string& tail,
                   const std::string& label) {
  EXPECT_FALSE(tail.empty()) << label;
  ASSERT_LE(tail.size(), full.size()) << label;
  EXPECT_EQ(full.substr(full.size() - tail.size()), tail) << label;
}

void expect_identical(const RunOutput& full, const RunOutput& resumed,
                      const std::string& label) {
  EXPECT_EQ(full.result.final_weights, resumed.result.final_weights) << label;
  ASSERT_EQ(full.result.result.rounds.size(),
            resumed.result.result.rounds.size())
      << label;
  for (std::size_t i = 0; i < full.result.result.rounds.size(); ++i) {
    EXPECT_EQ(full.result.result.rounds[i].selected_clients,
              resumed.result.result.rounds[i].selected_clients)
        << label << " round " << i;
    EXPECT_DOUBLE_EQ(full.result.result.rounds[i].virtual_time,
                     resumed.result.result.rounds[i].virtual_time)
        << label << " round " << i;
    EXPECT_DOUBLE_EQ(full.result.result.rounds[i].global_accuracy,
                     resumed.result.result.rounds[i].global_accuracy)
        << label << " round " << i;
  }
  EXPECT_EQ(full.result.processed_events, resumed.result.processed_events)
      << label;
  // The resumed run re-emits the trace from the checkpoint boundary: it
  // must be a byte-exact suffix of the uninterrupted stream.
  expect_suffix(full.trace, resumed.trace, label);
  EXPECT_EQ(full.metrics, resumed.metrics) << label;
}

// Crash the run at `crash_frac` of the full run's virtual span (with
// checkpoints every `every_frac` of it), then resume; returns the resumed
// output for comparison against `full`.
RunOutput crash_and_resume(const AsyncConfig& async, const RunOutput& full,
                           double every_frac, double crash_frac,
                           std::size_t threads, const std::string& tag,
                           bool adaptive_policy = false) {
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap =
      ::testing::TempDir() + "/resume_" + tag + ".snap";

  AsyncConfig crashing = async;
  crashing.checkpoint_every = every_frac * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = crash_frac * span;
  bool crashed = false;
  try {
    run_once(crashing, threads, adaptive_policy);
  } catch (const sim::SimulatedCrash&) {
    crashed = true;
  }
  EXPECT_TRUE(crashed) << tag << ": crash point past the end of the run";

  AsyncConfig resuming = async;
  resuming.resume_path = snap;
  return run_once(resuming, threads, adaptive_policy);
}

AsyncConfig static_config() {
  AsyncConfig async;
  async.total_updates = 16;
  async.clients_per_tier_round = 4;
  async.eval_every = 4;
  async.staleness = StalenessFn::kInverseFrequency;
  return async;
}

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

TEST(FlResume, StaticPathCrashResumeIsByteIdenticalAcrossShards) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    AsyncConfig async = static_config();
    async.shards = shards;
    const std::string tag = "static_s" + std::to_string(shards);
    const RunOutput full = run_once(async, /*threads=*/2);
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.2, /*crash_frac=*/0.6,
                         /*threads=*/2, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, StaticPathCrashResumeIsThreadPoolSizeInvariant) {
  const AsyncConfig async = static_config();
  const RunOutput full = run_once(async, /*threads=*/1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    const std::string tag = "static_t" + std::to_string(threads);
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.25, /*crash_frac=*/0.7,
                         threads, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, StaticPathWithInjectedLossCrashResume) {
  // Lost updates retry with backoff; the loss stream's RNG position rides
  // in the snapshot, so the post-resume loss pattern matches the oracle.
  AsyncConfig async = static_config();
  async.fault.loss_prob = 0.2;
  async.fault.max_retries = 2;
  async.fault.backoff_base = 0.25;
  const RunOutput full = run_once(async, /*threads=*/2);
  EXPECT_NE(full.metrics.find("fault.lost_updates"), std::string::npos);
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    AsyncConfig sharded = async;
    sharded.shards = shards;
    const std::string tag = "static_loss_s" + std::to_string(shards);
    const RunOutput sharded_full = run_once(sharded, /*threads=*/2);
    expect_identical(full, sharded_full, tag + "_full");
    const RunOutput resumed =
        crash_and_resume(sharded, full, /*every_frac=*/0.2, /*crash_frac=*/0.5,
                         /*threads=*/2, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, DynamicChurnPathCrashResumeIsByteIdenticalAcrossShards) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    AsyncConfig async = dynamic_config();
    async.shards = shards;
    const std::string tag = "dyn_s" + std::to_string(shards);
    const RunOutput full = run_once(async, /*threads=*/2);
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.15, /*crash_frac=*/0.55,
                         /*threads=*/2, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, DynamicCrashResumeWithCohortsPendingAtTheCheckpoints) {
  // Checkpoints due at every batch boundary: a batch that dispatched a
  // cohort leaves it pending there, so the loop flushes it before the
  // writer stores every flight trained.  The flushes that outnumber the
  // uninterrupted run's are those checkpoints.
  for (std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    AsyncConfig async = dynamic_config();
    async.shards = shards;
    const std::string tag = "pending_s" + std::to_string(shards);
    const RunOutput full = run_once(async, /*threads=*/2);
    obs::Registry& reg = obs::Registry::global();
    const std::uint64_t full_flushes = reg.counter("async.flushes").value();

    const double span = full.result.result.rounds.back().virtual_time;
    AsyncConfig checkpointing = async;
    checkpointing.checkpoint_every = 1e-6 * span;
    checkpointing.checkpoint_path =
        ::testing::TempDir() + "/resume_" + tag + "_full.snap";
    const RunOutput written = run_once(checkpointing, /*threads=*/2);
    EXPECT_EQ(written.result.final_weights, full.result.final_weights) << tag;
    EXPECT_GT(reg.counter("async.flushes").value(), full_flushes) << tag;

    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/1e-6,
                         /*crash_frac=*/0.55, /*threads=*/2, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, DynamicPathWithLossAndAdaptivePolicyCrashResume) {
  // The hardest composition: churn + slowdowns + update loss + a
  // stateful policy whose credits/probabilities must ride the snapshot.
  AsyncConfig async = dynamic_config();
  async.fault.loss_prob = 0.15;
  const RunOutput full = run_once(async, /*threads=*/2, /*adaptive=*/true);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::string tag = "dyn_adaptive_t" + std::to_string(threads);
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.2, /*crash_frac=*/0.6,
                         threads, tag, /*adaptive=*/true);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, RepeatedCrashesStillConvergeToTheOracle) {
  // Crash the *resumed* run again: two successive recoveries compose.
  const AsyncConfig async = static_config();
  const RunOutput full = run_once(async, /*threads=*/2);
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/resume_double.snap";

  AsyncConfig first = async;
  first.checkpoint_every = 0.15 * span;
  first.checkpoint_path = snap;
  first.fault.crash_at = 0.4 * span;
  EXPECT_THROW(run_once(first, 2), sim::SimulatedCrash);

  AsyncConfig second = async;
  second.resume_path = snap;
  second.checkpoint_every = 0.15 * span;
  second.checkpoint_path = snap;
  second.fault.crash_at = 0.8 * span;
  EXPECT_THROW(run_once(second, 2), sim::SimulatedCrash);

  AsyncConfig last = async;
  last.resume_path = snap;
  const RunOutput resumed = run_once(last, 2);
  EXPECT_EQ(full.result.final_weights, resumed.result.final_weights);
  expect_suffix(full.trace, resumed.trace, "double_crash");
}

TEST(FlResume, EventLogOfResumedRunMatchesUninterruptedRun) {
  const AsyncConfig base = static_config();
  const std::string full_log = ::testing::TempDir() + "/resume_full.elog";
  const std::string crash_log = ::testing::TempDir() + "/resume_crash.elog";
  const std::string snap = ::testing::TempDir() + "/resume_elog.snap";

  AsyncConfig full_cfg = base;
  full_cfg.event_log_path = full_log;
  const RunOutput full = run_once(full_cfg, 2);
  const double span = full.result.result.rounds.back().virtual_time;

  AsyncConfig crashing = base;
  crashing.event_log_path = crash_log;
  crashing.checkpoint_every = 0.2 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.6 * span;
  EXPECT_THROW(run_once(crashing, 2), sim::SimulatedCrash);

  AsyncConfig resuming = base;
  resuming.event_log_path = crash_log;
  resuming.resume_path = snap;
  run_once(resuming, 2);

  // After truncate-to-horizon + replay, the two logs are byte-identical.
  std::ifstream a(full_log, std::ios::binary);
  std::ifstream b(crash_log, std::ios::binary);
  ASSERT_TRUE(a && b);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

TEST(FlResume, ResumeRejectsMismatchedConfigOrPolicy) {
  const AsyncConfig async = static_config();
  const RunOutput full = run_once(async, 2);
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/resume_reject.snap";

  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.2 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.6 * span;
  EXPECT_THROW(run_once(crashing, 2), sim::SimulatedCrash);

  // A different staleness function changes the config fingerprint.
  AsyncConfig wrong_config = async;
  wrong_config.resume_path = snap;
  wrong_config.staleness = StalenessFn::kPolynomial;
  EXPECT_THROW(run_once(wrong_config, 2), std::runtime_error);

  // A different policy is rejected by name even with the same fingerprint.
  AsyncConfig wrong_policy = async;
  wrong_policy.resume_path = snap;
  EXPECT_THROW(run_once(wrong_policy, 2, /*adaptive=*/true),
               std::runtime_error);

  // Resuming a static-path snapshot on the dynamic path must be rejected
  // (the churn rates change the fingerprint before the path tag is hit).
  AsyncConfig wrong_path = dynamic_config();
  wrong_path.resume_path = snap;
  EXPECT_THROW(run_once(wrong_path, 2), std::runtime_error);

  // The shard count is deliberately NOT fingerprinted: resuming under a
  // different partitioning must replay byte for byte.
  AsyncConfig resharded = async;
  resharded.resume_path = snap;
  resharded.shards = 4;
  const RunOutput resumed = run_once(resharded, 2);
  EXPECT_EQ(full.result.final_weights, resumed.result.final_weights);
}

TEST(FlResume, DynamicSnapshotWithBadInFlightEntryIsRejected) {
  // A CRC-valid snapshot can still hold values the run cannot index with.
  // Patch the first in-flight entry's tier, and separately its client,
  // then re-wrap the payload with a valid CRC: the resume must refuse it
  // cleanly instead of crashing.
  const AsyncConfig async = dynamic_config();
  const RunOutput full = run_once(async, /*threads=*/2);
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/resume_bad_flight.snap";
  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.15 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.55 * span;
  EXPECT_THROW(run_once(crashing, 2), sim::SimulatedCrash);

  // Walk the payload to the first in-flight entry: the prologue, the
  // shared head, the tier lists and the latency multipliers precede it.
  const std::string payload = load_snapshot(snap);
  util::ByteSource source(payload);
  for (int field = 0; field < 5; ++field) source.get_u64();
  source.get_string();  // policy name
  constexpr std::size_t kTiers = 2;
  util::Rng rng(0);
  for (std::size_t t = 0; t < 2 * kTiers; ++t) get_rng(source, rng);
  for (std::size_t m = 0; m < 1 + kTiers; ++m) source.get_f32_vec();
  source.get_size_vec();  // tier_updates
  source.get_size_vec();  // last_submit_version
  source.get_f64_vec();   // tier_lr
  source.get_f64_vec();   // staleness_sum
  get_records(source);
  source.get_f64_vec();  // current_weights
  source.get_u64();      // dispatch_seq
  std::vector<bool> tiered(10, false);
  for (std::size_t t = 0; t < kTiers; ++t) {
    for (std::size_t id : source.get_size_vec()) tiered.at(id) = true;
  }
  const std::uint64_t scaled = source.get_u64();
  for (std::uint64_t i = 0; i < scaled; ++i) {
    source.get_u64();
    source.get_f64();
  }
  ASSERT_GT(source.get_u64(), 0u) << "no client in flight at the snapshot";
  const std::size_t client_at = source.offset();
  const std::size_t tier_at = client_at + 8;
  const auto reserve =
      std::find(tiered.begin(), tiered.end(), false) - tiered.begin();
  ASSERT_LT(reserve, 10) << "no client left before the snapshot";

  const auto expect_rejected = [&](std::size_t at, std::uint64_t value,
                                   const std::string& field) {
    std::string patched = payload;
    for (std::size_t i = 0; i < 8; ++i) {
      patched[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    const std::string path = ::testing::TempDir() + "/resume_patched.snap";
    save_snapshot(path, patched);
    AsyncConfig resuming = async;
    resuming.resume_path = path;
    try {
      run_once(resuming, 2);
      ADD_FAILURE() << field << ": the patched snapshot resumed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(tier_at, kTiers, "in-flight tier");
  expect_rejected(client_at, static_cast<std::uint64_t>(reserve),
                  "in-flight client");
}

TEST(FlResume, CheckpointConfigIsValidated) {
  TinyFederation fed = FederationBuilder().clients(10).build();
  AsyncConfig async = static_config();
  async.checkpoint_every = 1.0;  // no checkpoint_path
  EXPECT_THROW(AsyncEngine(tiny_engine_config(1), async, tiny_factory(),
                           &fed.clients, two_tiers(10), &fed.data.test,
                           fed.latency),
               std::invalid_argument);
  AsyncConfig negative = static_config();
  negative.checkpoint_every = -1.0;
  negative.checkpoint_path = "x.snap";
  EXPECT_THROW(AsyncEngine(tiny_engine_config(1), negative, tiny_factory(),
                           &fed.clients, two_tiers(10), &fed.data.test,
                           fed.latency),
               std::invalid_argument);
}

}  // namespace
}  // namespace tifl::fl
