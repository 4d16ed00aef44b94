#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace tifl::sim {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.now(), 0.0);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule_at(5.0, /*kind=*/0, /*actor=*/50);
  queue.schedule_at(1.0, 0, 10);
  queue.schedule_at(3.0, 0, 30);
  queue.schedule_at(4.0, 0, 40);
  queue.schedule_at(2.0, 0, 20);

  std::vector<std::uint64_t> actors;
  while (!queue.empty()) actors.push_back(queue.pop().actor);
  EXPECT_EQ(actors, (std::vector<std::uint64_t>{10, 20, 30, 40, 50}));
}

TEST(EventQueue, SimultaneousEventsPopInInsertionOrder) {
  // The stable tie-break: equal times resolve by seq, i.e. FIFO.
  EventQueue queue;
  for (std::uint64_t actor = 0; actor < 8; ++actor) {
    queue.schedule_at(7.0, 0, actor);
  }
  queue.schedule_at(3.0, 0, 99);
  for (std::uint64_t actor = 8; actor < 16; ++actor) {
    queue.schedule_at(7.0, 0, actor);
  }

  EXPECT_EQ(queue.pop().actor, 99u);
  for (std::uint64_t actor = 0; actor < 16; ++actor) {
    const Event event = queue.pop();
    EXPECT_EQ(event.actor, actor);
    EXPECT_EQ(event.time, 7.0);
  }
}

TEST(EventQueue, PopAdvancesNow) {
  EventQueue queue;
  queue.schedule_at(2.5, 0, 0);
  queue.schedule_at(6.0, 0, 0);
  EXPECT_EQ(queue.now(), 0.0);
  queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 2.5);
  queue.pop();
  EXPECT_DOUBLE_EQ(queue.now(), 6.0);
}

TEST(EventQueue, ScheduleIsRelativeToNow) {
  EventQueue queue;
  queue.schedule(4.0, 0, 1);
  queue.pop();  // now = 4
  queue.schedule(1.5, 0, 2);
  const Event event = queue.pop();
  EXPECT_DOUBLE_EQ(event.time, 5.5);
}

TEST(EventQueue, SeqIsMonotoneAcrossScheduleCalls) {
  EventQueue queue;
  const std::uint64_t a = queue.schedule(1.0, 0, 0);
  const std::uint64_t b = queue.schedule(0.5, 0, 0);
  const std::uint64_t c = queue.schedule_at(9.0, 0, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(EventQueue, RejectsPastAndInvalidTimes) {
  EventQueue queue;
  queue.schedule_at(5.0, 0, 0);
  queue.pop();  // now = 5
  EXPECT_THROW(queue.schedule_at(4.9, 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.schedule(-1.0, 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::nan(""), 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(queue.schedule_at(5.0, 0, 0));  // "now" itself is fine
}

TEST(EventQueue, PeekDoesNotRemoveOrAdvance) {
  EventQueue queue;
  queue.schedule_at(3.0, 7, 42);
  const Event& head = queue.peek();
  EXPECT_EQ(head.actor, 42u);
  EXPECT_EQ(head.kind, 7u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.now(), 0.0);
}

TEST(EventQueue, EmptyPeekAndPopThrow) {
  EventQueue queue;
  EXPECT_THROW(queue.peek(), std::logic_error);
  EXPECT_THROW(queue.pop(), std::logic_error);
}

TEST(EventQueue, DeterministicPopSequence) {
  // The pop sequence is a pure function of the push sequence: replaying
  // an interleaved schedule (including pushes between pops) yields the
  // identical event stream.
  const auto run = [] {
    EventQueue queue;
    std::vector<std::pair<double, std::uint64_t>> seen;
    for (std::uint64_t i = 0; i < 20; ++i) {
      queue.schedule_at(static_cast<double>((i * 7) % 5), 0, i);
    }
    for (int step = 0; step < 30; ++step) {
      const Event event = queue.pop();
      seen.emplace_back(event.time, event.seq);
      if (step < 10) {
        queue.schedule(static_cast<double>((step * 3) % 4), 0, 100 + step);
      }
    }
    return seen;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, ScheduleValidatesNegativeAndNanDelays) {
  // Regression: `schedule` documents delay >= 0 and must reject bad
  // delays like schedule_at does — a negative or NaN delay accepted here
  // would corrupt heap ordering and rewind now().
  EventQueue queue;
  queue.schedule(10.0, 0, 0);
  queue.pop();  // now = 10
  EXPECT_THROW(queue.schedule(-0.5, 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.schedule(-1e-300, 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::nan(""), 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.schedule(-std::numeric_limits<double>::infinity(), 0, 0),
               std::invalid_argument);
  // Nothing slipped in, the clock did not move.
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
  EXPECT_NO_THROW(queue.schedule(0.0, 0, 0));  // zero delay is legal
}

TEST(EventQueue, ScheduleBulkMatchesPerEventSchedule) {
  // schedule_bulk must assign the same (time, seq) keys as a loop of
  // schedule() calls, so the pop sequences are identical.
  const std::vector<PendingEvent> events{
      {.delay = 3.0, .kind = 1, .actor = 10},
      {.delay = 1.0, .kind = 2, .actor = 11},
      {.delay = 3.0, .kind = 3, .actor = 12},  // time tie with entry 0
      {.delay = 0.0, .kind = 4, .actor = 13},
  };
  EventQueue loop_queue;
  EventQueue bulk_queue;
  loop_queue.schedule(5.0, 0, 0);
  bulk_queue.schedule(5.0, 0, 0);
  for (const PendingEvent& event : events) {
    loop_queue.schedule(event.delay, event.kind, event.actor);
  }
  const std::uint64_t first = bulk_queue.schedule_bulk(events);
  EXPECT_EQ(first, 1u);  // seq 0 went to the pre-scheduled event

  while (!loop_queue.empty()) {
    const Event a = loop_queue.pop();
    const Event b = bulk_queue.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.actor, b.actor);
  }
  EXPECT_TRUE(bulk_queue.empty());
}

TEST(EventQueue, ScheduleBulkValidatesAllOrNothing) {
  EventQueue queue;
  const std::vector<PendingEvent> bad{
      {.delay = 1.0, .kind = 0, .actor = 0},
      {.delay = -2.0, .kind = 0, .actor = 1},
  };
  EXPECT_THROW(queue.schedule_bulk(bad), std::invalid_argument);
  EXPECT_TRUE(queue.empty());  // the valid prefix was not scheduled
  const std::vector<PendingEvent> nan_delay{
      {.delay = std::nan(""), .kind = 0, .actor = 0}};
  EXPECT_THROW(queue.schedule_bulk(nan_delay), std::invalid_argument);
  EXPECT_EQ(queue.schedule_bulk({}), 0u);  // empty bulk is a no-op
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PopBatchDrainsExactlyTheEarliestTimestamp) {
  EventQueue queue;
  queue.schedule_at(2.0, 0, 1);
  queue.schedule_at(1.0, 0, 2);
  queue.schedule_at(1.0, 0, 3);
  queue.schedule_at(3.0, 0, 4);
  queue.schedule_at(1.0, 0, 5);

  std::vector<Event> batch;
  queue.pop_batch(batch);
  ASSERT_EQ(batch.size(), 3u);
  // Insertion (seq) order within the shared timestamp.
  EXPECT_EQ(batch[0].actor, 2u);
  EXPECT_EQ(batch[1].actor, 3u);
  EXPECT_EQ(batch[2].actor, 5u);
  EXPECT_DOUBLE_EQ(queue.now(), 1.0);
  EXPECT_EQ(queue.size(), 2u);

  queue.pop_batch(batch);  // reuses (and clears) the out vector
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].actor, 1u);

  queue.pop_batch(batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].actor, 4u);
  EXPECT_THROW(queue.pop_batch(batch), std::logic_error);
}

TEST(EventQueue, PopBatchReplaysThePerEventPopSequence) {
  // Determinism contract for the batched engine loops: consuming the
  // queue via pop_batch — *including* schedules interleaved mid-batch,
  // as the engines do — yields the identical (time, seq, kind, actor)
  // stream as one-at-a-time pop.  Schedule times are quantized so time
  // ties (the interesting case) are common.
  const auto feed = [](EventQueue& queue, std::uint64_t i) {
    util::Rng rng(900 + i);
    std::vector<PendingEvent> burst(1 + rng.uniform_index(4));
    for (PendingEvent& event : burst) {
      event.delay = static_cast<double>(rng.uniform_index(3));
      event.kind = rng.uniform_index(3);
      event.actor = i;
    }
    queue.schedule_bulk(burst);
  };

  const auto run_single = [&] {
    EventQueue queue;
    std::vector<Event> seen;
    for (std::uint64_t i = 0; i < 16; ++i) feed(queue, i);
    std::size_t handled = 0;
    while (!queue.empty()) {
      const Event event = queue.pop();
      seen.push_back(event);
      if (handled < 40) feed(queue, 100 + handled);
      ++handled;
    }
    return seen;
  };
  const auto run_batched = [&] {
    EventQueue queue;
    std::vector<Event> seen;
    std::vector<Event> batch;
    for (std::uint64_t i = 0; i < 16; ++i) feed(queue, i);
    std::size_t handled = 0;
    while (!queue.empty()) {
      queue.pop_batch(batch);
      for (const Event& event : batch) {
        seen.push_back(event);
        if (handled < 40) feed(queue, 100 + handled);
        ++handled;
      }
    }
    return seen;
  };

  const std::vector<Event> single = run_single();
  const std::vector<Event> batched = run_batched();
  ASSERT_EQ(single.size(), batched.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].time, batched[i].time) << i;
    EXPECT_EQ(single[i].seq, batched[i].seq) << i;
    EXPECT_EQ(single[i].kind, batched[i].kind) << i;
    EXPECT_EQ(single[i].actor, batched[i].actor) << i;
  }
}

TEST(EventQueue, SingleActorAdvancesByCumulativeDelay) {
  // A single repeatedly-rescheduled actor reduces to the sync engine's
  // clock: now() is the cumulative sum of the scheduled delays.
  EventQueue queue;
  double expected = 0.0;
  for (double delay : {3.0, 1.5, 0.0, 2.25}) {
    queue.schedule(delay, 0, 0);
    queue.pop();
    expected += delay;
    EXPECT_DOUBLE_EQ(queue.now(), expected);
  }
}

}  // namespace
}  // namespace tifl::sim
