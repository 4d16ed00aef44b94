// Snapshot container hardening: every single-bit flip and every
// truncation of a golden snapshot must surface as a clean
// std::runtime_error — never a crash, hang, giant allocation or silently
// wrong payload.  Plus round-trip equality for the serialized substates
// the engine snapshot is built from: the shared payload pieces (RNG
// streams, local updates, pending rounds, records, aggregator nodes), the
// event-queue horizon, churn streams, fault streams and stateful policy
// state.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive_policy.h"
#include "fl/hier/node.h"
#include "fl/snapshot.h"
#include "fl/tier_rounds.h"
#include "sim/churn_model.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/serial.h"

namespace tifl {
namespace {

std::string golden_payload() {
  util::ByteSink sink;
  sink.put_u64(0xDEADBEEFCAFEF00DULL);
  sink.put_f64(3.14159);
  sink.put_string("tier state");
  sink.put_f32_vec({1.5f, -2.5f, 0.0f});
  sink.put_size_vec({7, 8, 9});
  return sink.take();
}

std::string write_golden(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fl::save_snapshot(path, golden_payload());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FlSnapshot, RoundTripsPayloadBytes) {
  const std::string path = write_golden("roundtrip.snap");
  EXPECT_EQ(fl::load_snapshot(path), golden_payload());
}

TEST(FlSnapshot, OverwriteIsAtomicReplacement) {
  const std::string path = write_golden("overwrite.snap");
  util::ByteSink next;
  next.put_string("second generation");
  fl::save_snapshot(path, next.bytes());
  EXPECT_EQ(fl::load_snapshot(path), next.bytes());
}

TEST(FlSnapshot, MissingFileThrows) {
  EXPECT_THROW(fl::load_snapshot(::testing::TempDir() + "/absent.snap"),
               std::runtime_error);
}

TEST(FlSnapshot, EveryBitFlipIsRejected) {
  const std::string path = write_golden("bitflip.snap");
  const std::string pristine = slurp(path);
  ASSERT_FALSE(pristine.empty());
  const std::string victim = ::testing::TempDir() + "/bitflip_victim.snap";
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = pristine;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ (1u << bit));
      spit(victim, corrupt);
      EXPECT_THROW(fl::load_snapshot(victim), std::runtime_error)
          << "byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(FlSnapshot, EveryTruncationIsRejected) {
  const std::string path = write_golden("truncate.snap");
  const std::string pristine = slurp(path);
  const std::string victim = ::testing::TempDir() + "/truncate_victim.snap";
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    spit(victim, pristine.substr(0, keep));
    EXPECT_THROW(fl::load_snapshot(victim), std::runtime_error)
        << "accepted at " << keep << " of " << pristine.size() << " bytes";
  }
}

TEST(FlSnapshot, TrailingGarbageIsRejected) {
  const std::string path = write_golden("trailing.snap");
  spit(::testing::TempDir() + "/trailing_victim.snap",
       slurp(path) + "extra");
  EXPECT_THROW(
      fl::load_snapshot(::testing::TempDir() + "/trailing_victim.snap"),
      std::runtime_error);
}

// --- substate round trips -----------------------------------------------------

TEST(FlSnapshot, RngStreamRoundTripsThroughStateWords) {
  util::Rng rng(util::mix_seed(42, 7));
  for (int i = 0; i < 100; ++i) rng.next();  // advance mid-stream
  const std::array<std::uint64_t, 4> words = rng.state();

  util::Rng restored(1);  // deliberately different seed
  restored.set_state(words);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next(), restored.next());
  }
}

// The shared payload pieces (fl/snapshot's io_*, hier::io_node) state
// each layout once for both directions.  Each must read back what it
// wrote, and writing what it read must reproduce the bytes it read.
// Returns the value read back into `restored`.
template <class T>
T expect_piece_round_trips(const T& value, T restored, const auto& io) {
  util::ByteSink sink;
  io(sink, value);
  util::ByteSource source(sink.bytes());
  io(source, restored);
  EXPECT_TRUE(source.exhausted());
  util::ByteSink again;
  io(again, restored);
  EXPECT_EQ(again.bytes(), sink.bytes());
  return restored;
}

fl::LocalUpdate sample_update(float base) {
  return {.weights = {base, -base, 0.5f * base},
          .num_samples = 17,
          .train_loss = 0.25 + base,
          .train_accuracy = 0.75};
}

void expect_same_update(const fl::LocalUpdate& a, const fl::LocalUpdate& b) {
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.train_accuracy, b.train_accuracy);
}

TEST(FlSnapshot, RngStreamPieceRoundTrips) {
  util::Rng rng(util::mix_seed(42, 7));
  for (int i = 0; i < 100; ++i) rng.next();
  util::Rng restored = expect_piece_round_trips(
      rng, util::Rng(1), [](auto& ar, auto& r) { fl::io_rng(ar, r); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next(), restored.next());
}

TEST(FlSnapshot, LocalUpdatePieceRoundTrips) {
  const fl::LocalUpdate update = sample_update(1.5f);
  expect_same_update(
      update, expect_piece_round_trips(update, fl::LocalUpdate{},
                                       [](auto& ar, auto& u) {
                                         fl::io_update(ar, u);
                                       }));
}

TEST(FlSnapshot, PendingRoundPieceRoundTrips) {
  fl::PendingTierRound round;
  round.selected = {4, 1, 9};
  round.updates = {sample_update(1.0f), sample_update(2.0f),
                   sample_update(3.0f)};
  round.dispatch_version = 12;
  round.latency = 3.75;
  // A reused round with more updates than the stored one is cut down.
  fl::PendingTierRound stale;
  stale.updates.assign(5, sample_update(9.0f));
  const fl::PendingTierRound restored = expect_piece_round_trips(
      round, stale, [](auto& ar, auto& r) { fl::io_pending(ar, r); });
  EXPECT_EQ(restored.selected, round.selected);
  ASSERT_EQ(restored.updates.size(), round.updates.size());
  for (std::size_t i = 0; i < round.updates.size(); ++i) {
    expect_same_update(restored.updates[i], round.updates[i]);
  }
  EXPECT_EQ(restored.dispatch_version, round.dispatch_version);
  EXPECT_EQ(restored.latency, round.latency);
}

TEST(FlSnapshot, RecordsPieceRoundTrips) {
  std::vector<fl::RoundRecord> records(2);
  records[0] = {.round = 0,
                .virtual_time = 1.5,
                .round_latency = 1.5,
                .global_accuracy = 0.25,
                .global_loss = 2.0,
                .train_loss = 2.5,
                .selected_tier = -1,  // stored as i64
                .selected_clients = {3, 0}};
  records[1] = {.round = 1,
                .virtual_time = 4.0,
                .round_latency = 2.5,
                .global_accuracy = 0.5,
                .global_loss = 1.0,
                .train_loss = 1.25,
                .selected_tier = 2,
                .selected_clients = {}};
  const std::vector<fl::RoundRecord> restored = expect_piece_round_trips(
      records, std::vector<fl::RoundRecord>{},
      [](auto& ar, auto& r) { fl::io_records(ar, r); });
  ASSERT_EQ(restored.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(restored[i].round, records[i].round);
    EXPECT_EQ(restored[i].virtual_time, records[i].virtual_time);
    EXPECT_EQ(restored[i].round_latency, records[i].round_latency);
    EXPECT_EQ(restored[i].global_accuracy, records[i].global_accuracy);
    EXPECT_EQ(restored[i].global_loss, records[i].global_loss);
    EXPECT_EQ(restored[i].train_loss, records[i].train_loss);
    EXPECT_EQ(restored[i].selected_tier, records[i].selected_tier);
    EXPECT_EQ(restored[i].selected_clients, records[i].selected_clients);
  }
}

TEST(FlSnapshot, RecordCountPrefixIsCheckedBeforeAllocating) {
  // 56 bytes is the least a record takes; a count the bytes left cannot
  // hold must throw before the vector grows.
  util::ByteSink sink;
  sink.put_u64(3);
  sink.put_bytes(std::string(2 * 56, '\0').data(), 2 * 56);
  util::ByteSource source(sink.bytes());
  std::vector<fl::RoundRecord> records;
  EXPECT_THROW(fl::io_records(source, records), std::runtime_error);
  EXPECT_TRUE(records.empty());
}

TEST(FlSnapshot, AggregatorNodePieceRoundTrips) {
  // A leaf of two tiers: a slot per tier plus the parent view.
  const auto shaped = [] {
    fl::hier::AggregatorNode node;
    node.slot_models.resize(3);
    node.slot_updates.resize(3);
    node.slot_last_version.resize(3);
    node.tiers.resize(2);
    node.rounds.pending.resize(2);
    node.rounds.selection_rng.resize(2);
    node.rounds.latency_rng.resize(2);
    return node;
  };
  fl::hier::AggregatorNode node = shaped();
  node.slot_models = {{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
  node.slot_updates = {4, 0, 7};
  node.slot_last_version = {2, 0, 5};
  node.model = {0.5f, 1.5f};
  node.version = 9;
  node.deliveries = 1;
  node.since_report = 2;
  node.update_mass = 11;
  node.offline = true;
  node.tiers = {{0, 2}, {1, 3}};
  node.rounds.tier_lr = {0.1, 0.05};
  node.rounds.staleness_sum = {3.0, 1.0};
  node.rounds.pending[1].selected = {3};
  node.rounds.pending[1].updates = {sample_update(4.0f)};
  node.rounds.pending[1].active = true;
  node.rounds.retry_count = {0, 2};
  node.rounds.selection_rng = {util::Rng(11), util::Rng(12)};
  node.rounds.latency_rng = {util::Rng(13), util::Rng(14)};
  node.link_rng = util::Rng(15);
  const fl::hier::AggregatorNode restored = expect_piece_round_trips(
      node, shaped(),
      [](auto& ar, auto& n) { fl::hier::io_node(ar, n); });
  EXPECT_EQ(restored.slot_models, node.slot_models);
  EXPECT_EQ(restored.slot_updates, node.slot_updates);
  EXPECT_EQ(restored.model, node.model);
  EXPECT_EQ(restored.update_mass, node.update_mass);
  EXPECT_TRUE(restored.offline);
  EXPECT_EQ(restored.tiers, node.tiers);
  EXPECT_TRUE(restored.rounds.pending[1].active);
  EXPECT_FALSE(restored.rounds.pending[0].active);
  EXPECT_EQ(restored.rounds.retry_count, node.rounds.retry_count);
  EXPECT_EQ(restored.link_rng.state(), node.link_rng.state());

  // A node shaped for another tree refuses the section.
  util::ByteSink sink;
  fl::hier::io_node(sink, node);
  fl::hier::AggregatorNode other = shaped();
  other.slot_models.resize(2);
  util::ByteSource source(sink.bytes());
  EXPECT_THROW(fl::hier::io_node(source, other), std::runtime_error);
}

TEST(FlSnapshot, EventQueueHorizonRoundTrips) {
  sim::EventQueue queue;
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    queue.schedule(rng.uniform() * 10.0, /*kind=*/i % 4,
                   /*actor=*/static_cast<std::uint64_t>(i % 16));
  }
  // An unavailable client's arrival: dispatched with infinite latency.
  queue.schedule(std::numeric_limits<double>::infinity(), /*kind=*/1,
                 /*actor=*/15);
  std::vector<sim::Event> drained;
  queue.pop_batch(drained);  // advance the clock mid-run

  util::ByteSink sink;
  fl::put_queue(sink, queue);
  sim::EventQueue restored;
  util::ByteSource source(sink.bytes());
  fl::get_queue(source, restored, /*actors=*/16);
  EXPECT_EQ(restored.now(), queue.now());
  EXPECT_EQ(restored.next_seq(), queue.next_seq());
  EXPECT_EQ(restored.size(), queue.size());
  while (!queue.empty()) {
    ASSERT_FALSE(restored.empty());
    const sim::Event a = queue.pop();
    const sim::Event b = restored.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.actor, b.actor);
  }
  EXPECT_TRUE(restored.empty());
}

// A queue section laid out as fl::put_queue writes it.
std::string queue_section(double now, std::uint64_t next_seq,
                          const std::vector<sim::Event>& events) {
  util::ByteSink sink;
  sink.put_f64(now);
  sink.put_u64(next_seq);
  sink.put_u64(events.size());
  for (const sim::Event& e : events) {
    sink.put_f64(e.time);
    sink.put_u64(e.seq);
    sink.put_u64(e.kind);
    sink.put_u64(e.actor);
  }
  return sink.take();
}

TEST(FlSnapshot, QueueSectionRejectsEachMalformedField) {
  // The loops index per-actor arrays with event.actor and the heap
  // compares times, so a CRC-valid section must still be checked field by
  // field.  The valid base sits on every boundary: an event at the clock,
  // the largest seq below next_seq, the largest actor below the count and
  // an event at +inf (an unavailable client's arrival).
  constexpr std::size_t kActors = 4;
  constexpr double kNow = 2.0;
  constexpr std::uint64_t kNextSeq = 10;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<sim::Event> valid = {
      {.time = kNow, .seq = 3, .kind = 0, .actor = 0},
      {.time = 2.5, .seq = 1, .kind = 0, .actor = kActors - 1},
      {.time = 2.5, .seq = kNextSeq - 1, .kind = 0, .actor = 2},
      {.time = inf, .seq = 4, .kind = 0, .actor = 1},
  };
  {
    sim::EventQueue queue;
    const std::string bytes = queue_section(kNow, kNextSeq, valid);
    util::ByteSource source(bytes);
    fl::get_queue(source, queue, kActors);
    EXPECT_EQ(queue.size(), valid.size());
  }

  const auto expect_rejected = [&](double now,
                                   const std::vector<sim::Event>& events,
                                   const char* label) {
    sim::EventQueue queue;
    const std::string bytes = queue_section(now, kNextSeq, events);
    util::ByteSource source(bytes);
    try {
      fl::get_queue(source, queue, kActors);
      ADD_FAILURE() << label << ": accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("queue event"),
                std::string::npos)
          << label << ": " << error.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan, valid, "NaN clock");
  expect_rejected(inf, valid, "infinite clock");

  const auto with = [&](std::size_t i, auto edit) {
    std::vector<sim::Event> events = valid;
    edit(events[i]);
    return events;
  };
  expect_rejected(kNow, with(1, [&](sim::Event& e) { e.time = nan; }),
                  "NaN time");
  expect_rejected(kNow, with(0, [&](sim::Event& e) { e.time = -inf; }),
                  "time at -inf");
  expect_rejected(kNow, with(0, [](sim::Event& e) { e.time = kNow - 0.5; }),
                  "time before the clock");
  expect_rejected(kNow, with(2, [](sim::Event& e) { e.seq = kNextSeq; }),
                  "seq at next_seq");
  expect_rejected(kNow, with(1, [](sim::Event& e) { e.actor = kActors; }),
                  "actor at the actor count");
  expect_rejected(kNow, {valid[1], valid[0], valid[2], valid[3]},
                  "time out of order");
  expect_rejected(kNow, {valid[0], valid[2], valid[1], valid[3]},
                  "seq out of order at one time");
  expect_rejected(kNow, {valid[0], valid[1], valid[1], valid[3]},
                  "duplicate key");
  expect_rejected(kNow, {valid[0], valid[1], valid[2], valid[3], valid[3]},
                  "duplicate key at +inf");
}

TEST(FlSnapshot, ChurnModelStreamRoundTrips) {
  sim::ChurnConfig config;
  config.join_rate = 0.1;
  config.leave_rate = 0.1;
  config.slowdown_rate = 0.2;
  sim::ChurnModel churn(config, /*run_seed=*/17);
  for (int i = 0; i < 25; ++i) churn.next();

  util::ByteSink sink;
  churn.save_state(sink);

  sim::ChurnModel restored(config, /*run_seed=*/17);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);
  for (int i = 0; i < 50; ++i) {
    const std::optional<sim::LifecycleEvent> a = churn.next();
    const std::optional<sim::LifecycleEvent> b = restored.next();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->time, b->time);
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->pick, b->pick);
    EXPECT_EQ(a->factor, b->factor);
  }
}

TEST(FlSnapshot, FaultModelStreamRoundTrips) {
  sim::FaultConfig config;
  config.loss_prob = 0.3;
  sim::FaultModel fault(config, /*run_seed=*/23);
  for (int i = 0; i < 40; ++i) fault.lose_update();

  util::ByteSink sink;
  fault.save_state(sink);

  sim::FaultModel restored(config, /*run_seed=*/23);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fault.lose_update(), restored.lose_update()) << "draw " << i;
  }
}

TEST(FlSnapshot, AdaptivePolicyStateRoundTrips) {
  core::TierInfo tiers;
  tiers.members = testing::two_tiers(10);
  tiers.avg_latency = {1.0, 2.0};
  core::AdaptiveConfig config;
  config.clients_per_round = 4;
  config.interval = 2;
  core::AdaptiveTierPolicy policy(tiers, config, /*total_rounds=*/40);

  // Drive the credit/probability state away from its initial values.
  for (std::size_t round = 0; round < 12; ++round) {
    fl::RoundFeedback feedback;
    feedback.round = round;
    feedback.submitting_tier = static_cast<int>(round % 2);
    feedback.tier_accuracies = {0.5 + 0.01 * static_cast<double>(round),
                                0.4 + 0.02 * static_cast<double>(round)};
    policy.observe(feedback);
  }

  util::ByteSink sink;
  policy.save_state(sink);

  core::AdaptiveTierPolicy restored(tiers, config, /*total_rounds=*/40);
  util::ByteSource source(sink.bytes());
  restored.restore_state(source);

  // Identical RNG streams + identical restored state => identical picks.
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  for (std::size_t round = 12; round < 24; ++round) {
    fl::SelectionContext context_a;
    context_a.round = round;
    context_a.tier = static_cast<int>(round % 2);
    context_a.candidates = fl::Candidates(tiers.members[context_a.tier]);
    context_a.rng = &rng_a;
    fl::SelectionContext context_b = context_a;
    context_b.rng = &rng_b;
    EXPECT_EQ(policy.select(context_a).clients,
              restored.select(context_b).clients)
        << "round " << round;
  }
}

}  // namespace
}  // namespace tifl
