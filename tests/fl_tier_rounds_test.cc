// The pieces the async run loops share (fl/tier_rounds.h): the redelivery
// rule against a hand-rolled loop over the same seeded fault model, and
// the tier-membership check.
#include "fl/tier_rounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "util/serial.h"

namespace tifl::fl {
namespace {

// One delivery attempt as a loop saw it.
struct Attempt {
  double time = 0.0;
  std::uint64_t actor = 0;
  Delivery outcome = Delivery::kArrived;
  bool operator==(const Attempt&) const = default;
};

struct Outcome {
  std::vector<Attempt> attempts;
  std::string stream;  // the fault model's loss-stream position after
  std::uint64_t lost = 0;
  std::uint64_t dropped = 0;
};

std::string stream_of(const sim::FaultModel& fault) {
  util::ByteSink sink;
  fault.save_state(sink);
  return sink.take();
}

// `updates` updates, update i first arriving at time i on actor i.
void schedule_arrivals(sim::EventQueue& queue, std::size_t updates) {
  for (std::size_t i = 0; i < updates; ++i) {
    queue.schedule_at(static_cast<double>(i), /*kind=*/7, /*actor=*/i);
  }
}

Outcome run_redelivery(const sim::FaultConfig& config, std::size_t updates) {
  obs::Registry::global().reset();
  sim::FaultModel fault(config, /*run_seed=*/5);
  sim::EventQueue queue;
  Redelivery deliver(fault, queue);
  schedule_arrivals(queue, updates);
  std::vector<std::size_t> retries(updates, 0);
  Outcome out;
  while (!queue.empty()) {
    const sim::Event event = queue.pop();
    out.attempts.push_back(
        {event.time, event.actor, deliver(event, retries[event.actor])});
  }
  out.stream = stream_of(fault);
  out.lost = obs::Registry::global().counter("fault.lost_updates").value();
  out.dropped =
      obs::Registry::global().counter("fault.dropped_updates").value();
  return out;
}

// The rule written out: one draw per attempt; a loss is retried after
// min(max, base * factor^(k - 1)) for retry k while k <= max_retries,
// and dropped after that.
Outcome run_by_hand(const sim::FaultConfig& config, std::size_t updates) {
  sim::FaultModel fault(config, /*run_seed=*/5);
  sim::EventQueue queue;
  schedule_arrivals(queue, updates);
  std::vector<std::size_t> retries(updates, 0);
  Outcome out;
  while (!queue.empty()) {
    const sim::Event event = queue.pop();
    std::size_t& k = retries[event.actor];
    Delivery outcome = Delivery::kArrived;
    if (fault.lose_update()) {
      ++out.lost;
      if (k < config.max_retries) {
        ++k;
        const double backoff =
            std::min(config.backoff_max,
                     config.backoff_base *
                         std::pow(config.backoff_factor,
                                  static_cast<double>(k - 1)));
        queue.schedule_at(event.time + backoff, event.kind, event.actor);
        outcome = Delivery::kRetrying;
      } else {
        ++out.dropped;
        outcome = Delivery::kDropped;
      }
    }
    if (outcome != Delivery::kRetrying) k = 0;
    out.attempts.push_back({event.time, event.actor, outcome});
  }
  out.stream = stream_of(fault);
  return out;
}

sim::FaultConfig lossy() {
  sim::FaultConfig config;
  config.loss_prob = 0.45;
  config.max_retries = 2;
  config.backoff_base = 0.5;
  config.backoff_factor = 3.0;
  config.backoff_max = 4.0;
  return config;
}

TEST(Redelivery, MatchesTheRuleWrittenOut) {
  const Outcome rule = run_redelivery(lossy(), 60);
  const Outcome by_hand = run_by_hand(lossy(), 60);
  EXPECT_EQ(rule.attempts, by_hand.attempts);
  EXPECT_EQ(rule.lost, by_hand.lost);
  EXPECT_EQ(rule.dropped, by_hand.dropped);
  // One draw per attempt: both streams stand at the same position.
  EXPECT_EQ(rule.stream, by_hand.stream);
  // The paths were taken: retries and drops.
  EXPECT_GT(rule.dropped, 0u);
  EXPECT_GT(rule.lost, rule.dropped);
  EXPECT_EQ(rule.attempts.size(), 60 + rule.lost - rule.dropped);
}

TEST(Redelivery, BackoffIsCappedAndRetriesAreBounded) {
  sim::FaultConfig config = lossy();
  config.max_retries = 4;
  config.loss_prob = 0.9;
  // Retries 3 and 4 wait the 4 s cap rather than 0.5 * 3^2 and 0.5 * 3^3.
  const Outcome rule = run_redelivery(config, 40);
  EXPECT_EQ(rule.attempts, run_by_hand(config, 40).attempts);
  // No update is attempted more than max_retries + 1 times.
  std::vector<std::size_t> per_actor(40, 0);
  for (const Attempt& attempt : rule.attempts) ++per_actor[attempt.actor];
  EXPECT_EQ(*std::max_element(per_actor.begin(), per_actor.end()), 5u);
}

TEST(Redelivery, DrawsNothingWithoutLoss) {
  sim::FaultConfig config = lossy();
  config.loss_prob = 0.0;
  const Outcome rule = run_redelivery(config, 20);
  ASSERT_EQ(rule.attempts.size(), 20u);
  for (const Attempt& attempt : rule.attempts) {
    EXPECT_EQ(attempt.outcome, Delivery::kArrived);
  }
  EXPECT_EQ(rule.stream, stream_of(sim::FaultModel(config, 5)));
  EXPECT_EQ(rule.lost, 0u);
}

TEST(Redelivery, TracesLostAndDroppedInstants) {
  const auto trace = [](std::optional<std::size_t> tier) {
    sim::FaultConfig config = lossy();
    config.max_retries = 0;  // every loss is a drop
    config.loss_prob = 0.9;
    sim::FaultModel fault(config, 5);
    sim::EventQueue queue;
    Redelivery deliver(fault, queue);
    queue.schedule_at(1.0, 7, 3);
    std::ostringstream out;
    obs::Tracer tracer(&out);
    obs::TracerScope scope(&tracer);
    std::size_t retries = 0;
    EXPECT_EQ(deliver(queue.pop(), retries, tier), Delivery::kDropped);
    tracer.flush();
    return out.str();
  };
  // The flat loops name the drop's retries; a tree leaf its tier.
  EXPECT_NE(trace({}).find(R"("name": "dropped", "actor": 3, )"
                           R"("args": {"retries": 0})"),
            std::string::npos);
  EXPECT_NE(trace(2).find(R"("name": "dropped", "actor": 3, )"
                          R"("args": {"tier": 2})"),
            std::string::npos);
}

TEST(MembershipFault, NamesTheFirstFault) {
  using Tiers = std::vector<std::vector<std::size_t>>;
  EXPECT_EQ(membership_fault(Tiers{{0, 2}, {1}}, 2, 3), nullptr);
  EXPECT_STREQ(membership_fault(Tiers{{0, 2}, {1}}, 3, 3),
               "the wrong tier count");
  EXPECT_STREQ(membership_fault(Tiers{{0, 3}, {1}}, 2, 3),
               "a client id out of range");
  EXPECT_STREQ(membership_fault(Tiers{{0, 1}, {1}}, 2, 3),
               "a client listed twice");
  const auto live = [](std::size_t id) { return id != 1; };
  EXPECT_EQ(membership_fault(Tiers{{0}, {2}}, 2, 3, live, 2), nullptr);
  EXPECT_STREQ(membership_fault(Tiers{{0}, {1}}, 2, 3, live, 2),
               "a client that is not live");
  EXPECT_STREQ(membership_fault(Tiers{{0}, {}}, 2, 3, live, 2),
               "too few clients");
}

}  // namespace
}  // namespace tifl::fl
