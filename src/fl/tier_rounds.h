// What the async run loops share.  AsyncEngine's static loop and every
// leaf of hier::TreeEngine run their tiers in whole-tier rounds, each at
// its own cadence (FedAT): TierRounds holds their per-tier state and
// steps.  Redelivery is the one rule for a lost update (the dynamic
// loop's per-client arrivals follow it too), run_batches the one batch
// loop, membership_fault the one check of a tier membership.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fl/client_pool.h"
#include "fl/snapshot.h"
#include "sim/event_log.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "sim/latency_model.h"

namespace tifl::fl {

// A tier round in flight.  `active` is the tree's "completion event
// scheduled and unconsumed" flag; the static loop does not store it.
struct PendingTierRound {
  std::vector<std::size_t> selected;  // client ids, selection order
  std::vector<LocalUpdate> updates;   // same order
  std::size_t dispatch_version = 0;   // model version at dispatch
  double latency = 0.0;               // tier-round duration (max member)
  bool active = false;
};

// What every launch of a run reads besides the round state.
struct RoundInputs {
  CohortTrainer& trainer;
  ClientPool& clients;
  const sim::LatencyModel& latency_model;
  std::size_t epochs;
  std::uint64_t seed;
  obs::PhaseTimer& phases;
};

// Per tier: the selection and latency streams (forked by the owner), the
// learning rate (decayed multiplicatively per round, as the sync engine
// does), the staleness sum, the round in flight and its redelivery count.
// The dynamic loop keeps its streams, rates and sums here but runs no
// whole-tier round.
struct TierRounds {
  TierRounds() = default;
  TierRounds(std::size_t tiers, double lr)
      : tier_lr(tiers, lr),
        staleness_sum(tiers, 0.0),
        pending(tiers),
        retry_count(tiers, 0) {}

  // Launch: trains `selected` from `base` at the tier's rate with the
  // streams of dispatch `seq` (then counts `seq` up), draws each member's
  // latency from the tier's stream, and returns the slowest one: the
  // round completes when that member responds.
  double launch(const RoundInputs& in, std::size_t tier,
                std::vector<std::size_t> selected, std::size_t version,
                std::span<const float> base, std::size_t& seq);

  // Fold at `version`: the FedAvg of the round's updates into `model`,
  // their mean training loss into `*train_loss` when given, the round's
  // staleness into the tier's sum, one rate decay.  Returns the staleness.
  std::size_t fold(std::size_t tier, std::size_t version, double lr_decay,
                   std::vector<float>& model, double* train_loss = nullptr);

  // Forgets the tier's round: its updates are lost.
  void abandon(std::size_t tier);

  // What a restored snapshot's queued completion event must name.
  bool trained(std::size_t tier) const {
    return tier < pending.size() && !pending[tier].updates.empty();
  }
  // A restored state's checks, for a run's tier count, population and
  // weight count.
  void check(const SnapshotCheck& check, std::size_t tiers,
             std::size_t population, std::size_t weight_count) const;

  std::vector<util::Rng> selection_rng;
  std::vector<util::Rng> latency_rng;
  std::vector<double> tier_lr;
  std::vector<double> staleness_sum;
  std::vector<PendingTierRound> pending;
  std::vector<std::size_t> retry_count;
};

enum class Delivery { kArrived, kRetrying, kDropped };

// Each delivery attempt makes one fault.lose_update() draw, in event
// order; a lost update is rescheduled as the same event after the
// deterministic backoff while its retries stay within max_retries, then
// dropped for good.  Counts fault.lost_updates and fault.dropped_updates
// and traces the "fault" "lost" and "dropped" instants on the actor.
class Redelivery {
 public:
  Redelivery(sim::FaultModel& fault, sim::EventQueue& queue);

  // One attempt of the update `event` delivers, after `retries` retries;
  // an arrival or a drop resets them.  A tree leaf passes its `tier`,
  // which leads the instants' fields; the flat loops' instants name the
  // attempt, or the drop's retries.
  Delivery operator()(const sim::Event& event, std::size_t& retries,
                      std::optional<std::size_t> tier = {});

 private:
  sim::FaultModel& fault_;
  sim::EventQueue& queue_;
  obs::Counter& lost_;
  obs::Counter& dropped_;
};

// The batch loop.  Until the queue empties: throws the injected crash
// before the pop that would reach it, pops the next same-time batch
// (events its handlers schedule sort after it, so this replays the
// one-pop-at-a-time order), counts it in `out` and `metrics`, and hands
// each event to `handle` after appending it to `log` when that is open.
// A false from `handle` ends the run at once, one from `end_batch` after
// the batch; otherwise the batch boundary writes the due checkpoint.
template <class Metrics, class Out, class Handle, class EndBatch>
void run_batches(sim::EventQueue& queue, Checkpointer& checkpointer,
                 const sim::FaultModel& fault, sim::EventLogWriter* log,
                 Metrics& metrics, Out& out, const SaveFn& save,
                 Handle&& handle, EndBatch&& end_batch) {
  std::vector<sim::Event> batch;  // reused across pop_batch calls
  while (!queue.empty()) {
    checkpointer.crash_if_due(fault.crash_at(), queue.peek().time);
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      if (log != nullptr && log->is_open()) log->append(event);
      if (!handle(event)) return;
    }
    if (!end_batch()) return;
    checkpointer.write_if_due(queue.now(), out.result.rounds.size(),
                              out.processed_events, save);
  }
}

// What is wrong with `tiers` as `tier_count` tiers over `population`
// clients: the list count, an id out of range or listed twice, or, with
// `live`, a client it rejects or fewer than `live_count`.  Null if none.
const char* membership_fault(
    std::span<const std::vector<std::size_t>> tiers, std::size_t tier_count,
    std::size_t population, const std::function<bool(std::size_t)>& live = {},
    std::size_t live_count = 0);

}  // namespace tifl::fl
