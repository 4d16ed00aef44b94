// Deterministic discrete-event scheduler — the virtual-time core of the
// asynchronous execution subsystem: where the synchronous engine advances
// time by one round-max latency at a time, the event queue lets any
// number of actors progress at their own cadence on a single shared
// timeline.
//
// Determinism: events are ordered by (time, seq) where `seq` is the
// monotone insertion index, so simultaneous events pop in the exact order
// they were scheduled (stable tie-breaking) and the pop sequence is a
// pure function of the push sequence — independent of heap layout,
// thread scheduling, or platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tifl::sim {

// Well-known values for Event::kind.  The queue itself stays agnostic —
// kind is an opaque caller tag — but the async engine, the churn model
// and the tests share this vocabulary so lifecycle events compose on one
// timeline with training completions.
enum class EventKind : std::uint64_t {
  kTierRound = 0,      // a whole tier round completed (static population)
  kClientUpdate = 1,   // one client's update arrived (dynamic lifecycle)
  kClientJoin = 2,     // a device entered the population
  kClientLeave = 3,    // a device left (possibly mid-round)
  kClientSlowdown = 4, // a mid-round straggler: latency multiplier changed
  kReProfile = 5,      // rebuild tiers from observed latencies
};

struct Event {
  double time = 0.0;        // absolute virtual seconds
  std::uint64_t seq = 0;    // insertion order; unique, breaks time ties
  std::uint64_t kind = 0;   // caller-defined event tag (see EventKind)
  std::uint64_t actor = 0;  // caller-defined actor id (tier, client, ...)
};

// One entry of a schedule_bulk() call: an event without its (time, seq)
// key, scheduled `delay` seconds from now alongside its batch siblings.
struct PendingEvent {
  double delay = 0.0;
  std::uint64_t kind = 0;
  std::uint64_t actor = 0;
};

class EventQueue {
 public:
  // Current virtual time: the timestamp of the last popped event (0
  // before any pop).
  double now() const noexcept { return now_; }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  // Schedules an event `delay >= 0` virtual seconds from now (negative
  // and NaN delays throw std::invalid_argument, exactly like
  // schedule_at); returns its seq (callers key per-event state — e.g.
  // RNG forks — off this).
  std::uint64_t schedule(double delay, std::uint64_t kind,
                         std::uint64_t actor);

  // Schedules at an absolute time; throws std::invalid_argument when the
  // time lies in the past (events cannot rewrite history).
  std::uint64_t schedule_at(double time, std::uint64_t kind,
                            std::uint64_t actor);

  // Schedules every entry in one pass, assigning consecutive seqs in span
  // order — byte-identical pop order to calling schedule() per entry, but
  // a large seed burst (e.g. one event per client of a million-client
  // federation) costs one O(n) heap rebuild instead of n O(log n)
  // sift-ups.  Validates every delay up front (all-or-nothing: a bad
  // entry throws before anything is scheduled).  Returns the seq of the
  // first entry (entry i got seq + i); 0 on an empty span.
  std::uint64_t schedule_bulk(std::span<const PendingEvent> events);

  // Earliest pending event; throws std::logic_error when empty.
  const Event& peek() const;

  // Removes and returns the earliest event, advancing now() to its time.
  Event pop();

  // Removes every event sharing the earliest pending timestamp into
  // `out` (cleared first), in exactly the order repeated pop() would
  // return them, and advances now() to that timestamp.  Events scheduled
  // *while the batch is processed* cannot land inside it: schedule_at
  // rejects times before now() and fresh seqs break any time tie after
  // the whole batch — which is what lets an event loop drain same-time
  // batches without perturbing the (time, seq) replay sequence.
  // Throws std::logic_error when empty.
  void pop_batch(std::vector<Event>& out);

  // --- checkpoint/resume surface --------------------------------------------
  // Next seq schedule() would assign; with pending() this captures the
  // queue's full deterministic state.
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  // All pending events in (time, seq) pop order, non-destructively.
  std::vector<Event> pending() const;
  // Replaces the queue's state wholesale (clock, seq counter, pending
  // set) — the restore half of a snapshot.  Deliberately records nothing
  // into the metrics registry: the checkpoint already carries the counts
  // accumulated when these events were first scheduled.
  void restore(double now, std::uint64_t next_seq,
               std::span<const Event> events);

 private:
  std::vector<Event> heap_;  // binary min-heap ordered by (time, seq)
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tifl::sim
