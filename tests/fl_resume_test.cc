// Crash-safe runs: a run killed mid-flight and resumed from its last
// checkpoint must be indistinguishable from the uninterrupted run — same
// final weights bit for bit, same per-version round series, the resumed
// trace a byte-exact suffix of the full trace, and the same metrics
// totals.  Asserted across thread pools 1/2/8, on both async paths, with
// and without injected update loss, and through a stateful (adaptive)
// selection policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/adaptive_policy.h"
#include "fl/async_engine.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
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
// batches its cohorts into more, smaller flushes.  The pool.* cache
// counters go too: a resumed run starts with a cold client cache.
std::string resume_metrics_snapshot() {
  return obs::Registry::global().to_json([](std::string_view name) {
    return !name.ends_with("_ns") && name.substr(0, 5) != "pool." &&
           name.substr(0, 11) != "checkpoint." &&
           name.substr(0, 11) != "async.flush";
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

// The prologue and shared head of a flat loop's payload over the two-tier
// federation (async_engine.cc's io_head), decoded through the fl/snapshot
// pieces the engine uses.
constexpr std::size_t kTiers = 2;
struct FlatHead {
  std::array<std::uint64_t, 5> prologue{};  // tag, fingerprint, dimensions
  std::string policy;
  std::array<util::Rng, 2 * kTiers> streams;  // selection, latency per tier
  std::vector<float> global;
  std::array<std::vector<float>, kTiers> tier_models;
  std::vector<std::size_t> tier_updates;
  std::vector<std::size_t> last_submit_version;
  std::vector<double> tier_lr;
  std::vector<double> staleness_sum;
  std::vector<RoundRecord> records;
  std::vector<double> current_weights;
  std::uint64_t dispatch_seq = 0;

  template <class Archive, class Head>
  static void io(Archive& ar, Head& h) {
    for (auto& field : h.prologue) ar.io(field);
    ar.io(h.policy);
    for (auto& stream : h.streams) io_rng(ar, stream);
    ar.io(h.global);
    for (auto& model : h.tier_models) ar.io(model);
    ar.io(h.tier_updates);
    ar.io(h.last_submit_version);
    ar.io(h.tier_lr);
    ar.io(h.staleness_sum);
    io_records(ar, h.records);
    ar.io(h.current_weights);
    ar.io(h.dispatch_seq);
  }
};

// A static-loop payload, decoded field by field through one declaration
// (io below) so that encode() writes back exactly what decode() read.
struct StaticPayload {
  FlatHead head;
  std::uint64_t scheduled = 0;
  std::array<bool, kTiers> parked{};
  std::vector<std::size_t> parked_at;
  std::vector<std::size_t> retry_count;
  std::array<PendingTierRound, kTiers> pending;
  bool last_evaluated = false;
  std::array<std::uint64_t, 2> tallies{};  // processed events, max batch
  double checkpoint_due = 0.0;
  double now = 0.0;
  std::uint64_t next_seq = 0;
  std::vector<sim::Event> events;
  std::array<std::string, 3> blobs;  // fault model, policy, metrics

  template <class Archive, class Payload>
  static void io(Archive& ar, Payload& p) {
    FlatHead::io(ar, p.head);
    ar.io(p.scheduled);
    for (auto& parked : p.parked) ar.io(parked);
    ar.io(p.parked_at);
    ar.io(p.retry_count);
    for (auto& round : p.pending) io_pending(ar, round);
    ar.io(p.last_evaluated);
    for (auto& tally : p.tallies) ar.io(tally);
    ar.io(p.checkpoint_due);
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

  static StaticPayload decode(const std::string& payload) {
    StaticPayload out;
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
};

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
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string tag = "static_loss_t" + std::to_string(threads);
    expect_identical(full, run_once(async, threads), tag + "_full");
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.2, /*crash_frac=*/0.5,
                         threads, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, DynamicChurnPathCrashResumeIsThreadPoolSizeInvariant) {
  const AsyncConfig async = dynamic_config();
  const RunOutput full = run_once(async, /*threads=*/1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    const std::string tag = "dyn_t" + std::to_string(threads);
    const RunOutput resumed =
        crash_and_resume(async, full, /*every_frac=*/0.15, /*crash_frac=*/0.55,
                         threads, tag);
    expect_identical(full, resumed, tag);
  }
}

TEST(FlResume, DynamicCrashResumeWithCohortsPendingAtTheCheckpoints) {
  // Checkpoints due at every batch boundary: a batch that dispatched a
  // cohort leaves it pending there, so the loop flushes it before the
  // writer stores every flight trained.  The flushes that outnumber the
  // uninterrupted run's are those checkpoints.
  const AsyncConfig async = dynamic_config();
  const RunOutput full = run_once(async, /*threads=*/2);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t full_flushes = reg.counter("async.flushes").value();

  const double span = full.result.result.rounds.back().virtual_time;
  AsyncConfig checkpointing = async;
  checkpointing.checkpoint_every = 1e-6 * span;
  checkpointing.checkpoint_path =
      ::testing::TempDir() + "/resume_pending_full.snap";
  const RunOutput written = run_once(checkpointing, /*threads=*/2);
  EXPECT_EQ(written.result.final_weights, full.result.final_weights);
  EXPECT_GT(reg.counter("async.flushes").value(), full_flushes);

  const RunOutput resumed =
      crash_and_resume(async, full, /*every_frac=*/1e-6,
                       /*crash_frac=*/0.55, /*threads=*/2, "pending");
  expect_identical(full, resumed, "pending");
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

TEST(FlResume, StaticPathWithAdaptivePolicyCrashResume) {
  // The static twin of the test above: update loss and a stateful policy
  // whose credits and probabilities must ride the snapshot.
  AsyncConfig async = static_config();
  async.fault.loss_prob = 0.15;
  const RunOutput full = run_once(async, /*threads=*/2, /*adaptive=*/true);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::string tag = "static_adaptive_t" + std::to_string(threads);
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
  FlatHead head;
  FlatHead::io(source, head);
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

TEST(FlResume, DynamicSnapshotWithBadOpenRoundIsRejected) {
  // Each tier's open round awaits exactly the restored flights it
  // dispatched, is active while it awaits any, and holds one accumulator
  // entry per weight.  A CRC-valid snapshot whose count is off would wrap
  // it at the next arrival (0) or never drain the round (1000), and one
  // entry short the next arrival would write past the accumulator: the
  // resume must refuse each before any event.
  const AsyncConfig async = dynamic_config();
  const RunOutput full = run_once(async, /*threads=*/2);
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/resume_bad_round.snap";
  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.15 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.55 * span;
  EXPECT_THROW(run_once(crashing, 2), sim::SimulatedCrash);

  // Walk the payload to the open rounds: the prologue, the shared head,
  // the tier lists, the latency multipliers and the flights precede them.
  const std::string payload = load_snapshot(snap);
  util::ByteSource source(payload);
  FlatHead head;
  FlatHead::io(source, head);
  for (std::size_t t = 0; t < kTiers; ++t) source.get_size_vec();
  const std::uint64_t scaled = source.get_u64();
  for (std::uint64_t i = 0; i < scaled; ++i) {
    source.get_u64();
    source.get_f64();
  }
  std::array<std::size_t, kTiers> flying{};
  const std::uint64_t flights = source.get_u64();
  for (std::uint64_t i = 0; i < flights; ++i) {
    source.get_u64();               // client
    ++flying.at(source.get_u64());  // dispatching tier
    source.get_f64();               // dispatch time
    source.get_u64();               // dispatch version
    source.get_f64();               // arrival
    source.get_u64();               // retries
    if (source.get_bool()) {
      LocalUpdate update;
      io_update(source, update);
    }
  }
  std::array<std::size_t, kTiers> active_at{}, awaiting_at{}, accum_at{};
  std::array<std::size_t, kTiers> accum_len{};
  for (std::size_t t = 0; t < kTiers; ++t) {
    active_at[t] = source.offset();
    const bool active = source.get_bool();
    awaiting_at[t] = source.offset();
    EXPECT_EQ(source.get_u64(), flying[t]) << "tier " << t;
    EXPECT_TRUE(active || flying[t] == 0) << "tier " << t;
    source.get_u64();  // arrivals
    source.get_f64();  // weight total
    accum_at[t] = source.offset();
    accum_len[t] = source.get_f64_vec().size();
  }
  const auto open = std::find_if(flying.begin(), flying.end(),
                                 [](std::size_t n) { return n > 0; });
  ASSERT_NE(open, flying.end()) << "no round open at the snapshot";
  const std::size_t tier = static_cast<std::size_t>(open - flying.begin());

  const std::string path = ::testing::TempDir() + "/resume_round.snap";
  AsyncConfig resuming = async;
  resuming.resume_path = path;
  // The unpatched payload, re-wrapped, resumes to the uninterrupted run.
  save_snapshot(path, payload);
  EXPECT_EQ(run_once(resuming, 2).result.final_weights,
            full.result.final_weights);

  const auto expect_rejected = [&](const std::string& patched,
                                   const std::string& field) {
    save_snapshot(path, patched);
    try {
      run_once(resuming, 2);
      ADD_FAILURE() << field << ": the patched snapshot resumed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const auto put_u64_at = [](std::string& bytes, std::size_t at,
                             std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  };
  for (const std::uint64_t awaiting : {std::uint64_t{0}, std::uint64_t{1000}}) {
    std::string patched = payload;
    put_u64_at(patched, awaiting_at[tier], awaiting);
    expect_rejected(patched, "open round awaiting count");
  }
  std::string inactive = payload;
  inactive[active_at[tier]] = 0;
  expect_rejected(inactive, "open round active flag");
  // One accumulator entry short: the length prefix and the last entry
  // both go.
  std::string shortened = payload;
  ASSERT_GT(accum_len[tier], 0u);
  put_u64_at(shortened, accum_at[tier], accum_len[tier] - 1);
  shortened.erase(accum_at[tier] + 8 * accum_len[tier], 8);
  expect_rejected(shortened, "round model length");
}

TEST(FlResume, StaticSnapshotRejectsEachMalformedPendingField) {
  // The static loop folds a completed tier's pending updates into its
  // tier model and averages that over every weight, so a CRC-valid
  // snapshot's pending rounds must be checked field by field before any
  // event runs.
  const AsyncConfig async = static_config();
  const RunOutput full = run_once(async, /*threads=*/2);
  const double span = full.result.result.rounds.back().virtual_time;
  const std::string snap = ::testing::TempDir() + "/resume_static_fields.snap";
  AsyncConfig crashing = async;
  crashing.checkpoint_every = 0.15 * span;
  crashing.checkpoint_path = snap;
  crashing.fault.crash_at = 0.55 * span;
  EXPECT_THROW(run_once(crashing, 2), sim::SimulatedCrash);

  const StaticPayload base = StaticPayload::decode(load_snapshot(snap));
  ASSERT_FALSE(base.events.empty()) << "the base needs a tier round queued";
  const std::size_t tier = base.events.front().actor;
  ASSERT_LT(tier, kTiers);
  AsyncConfig resuming = async;
  resuming.resume_path = snap;

  // The valid base, written back unchanged, resumes to the uninterrupted
  // result.
  save_snapshot(snap, base.encode());
  EXPECT_EQ(run_once(resuming, 2).result.final_weights,
            full.result.final_weights);

  using Edit = std::function<void(StaticPayload&)>;
  const std::vector<std::pair<const char*, Edit>> cases = {
      {"pending update length",  // every update one weight short
       [&](StaticPayload& p) {
         for (LocalUpdate& update : p.pending[tier].updates) {
           update.weights.pop_back();
         }
       }},
      {"pending member",
       [&](StaticPayload& p) { p.pending[tier].selected.front() = 10; }},
      {"tier event",  // a queued round with no update to fold
       [&](StaticPayload& p) { p.pending[tier].updates.clear(); }},
  };
  for (const auto& [field, edit] : cases) {
    StaticPayload edited = base;
    edit(edited);
    save_snapshot(snap, edited.encode());
    try {
      run_once(resuming, 2);
      ADD_FAILURE() << field << ": accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << field << ": " << error.what();
    }
  }
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
