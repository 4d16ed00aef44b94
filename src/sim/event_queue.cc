#include "sim/event_queue.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/wall_time.h"

namespace tifl::sim {

namespace {

// std::*_heap builds a max-heap, so "after" = min-heap on (time, seq).
// (time, seq) keys are unique (seq is), making the order strict-total:
// the pop sequence is fully determined regardless of heap layout.
bool after(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

// Shared across every queue instance: at paper scale all queues of a
// process serve one engine run, and per-instance registration would churn
// instrument names.  References are resolved once and cached.
struct QueueMetrics {
  obs::Counter& scheduled;
  obs::Counter& popped;
  obs::Gauge& depth_max;
  obs::Histo& horizon;       // virtual seconds from now() to the event
  obs::Histo& schedule_ns;   // sampled wall cost of one schedule call
  obs::Histo& pop_ns;        // sampled wall cost of one pop/pop_batch
};

QueueMetrics& queue_metrics() {
  static QueueMetrics m{
      obs::Registry::global().counter("sim.events_scheduled"),
      obs::Registry::global().counter("sim.events_popped"),
      obs::Registry::global().gauge("sim.queue_depth_max"),
      obs::Registry::global().histogram("sim.schedule_horizon"),
      obs::Registry::global().histogram("sim.schedule_ns"),
      obs::Registry::global().histogram("sim.pop_ns"),
  };
  return m;
}

// Wall-clock cost sampling: timing every heap op would distort the thing
// being measured, so only every 64th call reads the clock.
constexpr std::uint64_t kLatencySampleMask = 63;

bool sample_now(std::atomic<std::uint64_t>& counter) {
  return (counter.fetch_add(1, std::memory_order_relaxed) &
          kLatencySampleMask) == 0;
}

std::atomic<std::uint64_t> g_schedule_ops{0};
std::atomic<std::uint64_t> g_pop_ops{0};

}  // namespace

std::uint64_t EventQueue::schedule(double delay, std::uint64_t kind,
                                   std::uint64_t actor) {
  if (std::isnan(delay) || delay < 0.0) {
    throw std::invalid_argument("EventQueue: negative or NaN delay");
  }
  return schedule_at(now_ + delay, kind, actor);
}

std::uint64_t EventQueue::schedule_at(double time, std::uint64_t kind,
                                      std::uint64_t actor) {
  if (std::isnan(time) || time < now_) {
    throw std::invalid_argument("EventQueue: event time in the past");
  }
  QueueMetrics& metrics = queue_metrics();
  const bool timed = sample_now(g_schedule_ops);
  const auto start = timed ? obs::wall_now() : obs::WallTime{};
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Event{.time = time, .seq = seq, .kind = kind,
                        .actor = actor});
  std::push_heap(heap_.begin(), heap_.end(), after);
  if (timed) metrics.schedule_ns.record(obs::wall_ns_since(start));
  metrics.scheduled.add();
  metrics.horizon.record(time - now_);
  metrics.depth_max.set_max(static_cast<double>(heap_.size()));
  return seq;
}

std::uint64_t EventQueue::schedule_bulk(std::span<const PendingEvent> events) {
  if (events.empty()) return 0;
  for (const PendingEvent& event : events) {
    if (std::isnan(event.delay) || event.delay < 0.0) {
      throw std::invalid_argument("EventQueue: negative or NaN delay");
    }
  }
  const std::uint64_t first_seq = next_seq_;
  heap_.reserve(heap_.size() + events.size());
  // Appending then rebuilding is O(heap + batch); per-element push_heap
  // would be O(batch log heap).  The rebuild permutes the heap *layout*
  // only — pop order is the strict total order on (time, seq) either way.
  const bool timed = sample_now(g_schedule_ops);
  const auto start = timed ? obs::wall_now() : obs::WallTime{};
  for (const PendingEvent& event : events) {
    heap_.push_back(Event{.time = now_ + event.delay, .seq = next_seq_++,
                          .kind = event.kind, .actor = event.actor});
  }
  std::make_heap(heap_.begin(), heap_.end(), after);
  QueueMetrics& metrics = queue_metrics();
  if (timed) metrics.schedule_ns.record(obs::wall_ns_since(start));
  metrics.scheduled.add(events.size());
  for (const PendingEvent& event : events) {
    metrics.horizon.record(event.delay);
  }
  metrics.depth_max.set_max(static_cast<double>(heap_.size()));
  return first_seq;
}

const Event& EventQueue::peek() const {
  if (heap_.empty()) throw std::logic_error("EventQueue: peek on empty");
  return heap_.front();
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty");
  const bool timed = sample_now(g_pop_ops);
  const auto start = timed ? obs::wall_now() : obs::WallTime{};
  std::pop_heap(heap_.begin(), heap_.end(), after);
  const Event top = heap_.back();
  heap_.pop_back();
  now_ = top.time;
  QueueMetrics& metrics = queue_metrics();
  if (timed) metrics.pop_ns.record(obs::wall_ns_since(start));
  metrics.popped.add();
  return top;
}

void EventQueue::pop_batch(std::vector<Event>& out) {
  if (heap_.empty()) throw std::logic_error("EventQueue: pop_batch on empty");
  const bool timed = sample_now(g_pop_ops);
  const auto start = timed ? obs::wall_now() : obs::WallTime{};
  out.clear();
  const double batch_time = heap_.front().time;
  // Repeated pop_heap keeps (time, seq) order within the batch — equal
  // times resolve by seq exactly as single pops would.
  while (!heap_.empty() && heap_.front().time == batch_time) {
    std::pop_heap(heap_.begin(), heap_.end(), after);
    out.push_back(heap_.back());
    heap_.pop_back();
  }
  now_ = batch_time;
  QueueMetrics& metrics = queue_metrics();
  if (timed) metrics.pop_ns.record(obs::wall_ns_since(start));
  metrics.popped.add(out.size());
}

std::vector<Event> EventQueue::pending() const {
  std::vector<Event> out = heap_;
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  return out;
}

void EventQueue::restore(double now, std::uint64_t next_seq,
                         std::span<const Event> events) {
  heap_.assign(events.begin(), events.end());
  std::make_heap(heap_.begin(), heap_.end(), after);
  now_ = now;
  next_seq_ = next_seq;
}

}  // namespace tifl::sim
