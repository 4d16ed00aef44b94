#include "fl/tier_rounds.h"

#include <utility>

#include "fl/aggregator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tifl::fl {

double TierRounds::launch(const RoundInputs& in, std::size_t tier,
                          std::vector<std::size_t> selected,
                          std::size_t version, std::span<const float> base,
                          std::size_t& seq) {
  PendingTierRound& round = pending[tier];
  round.selected = std::move(selected);
  round.dispatch_version = version;
  in.trainer.train(in.clients, round.selected, base, tier_lr[tier], in.seed,
                   seq++, round.updates, in.phases);
  // Latency needs only pool-level state (profile and shard size), never a
  // materialized client.
  round.latency = 0.0;
  for (std::size_t id : round.selected) {
    round.latency = std::max(
        round.latency, in.latency_model.sample_latency(
                           in.clients.resource(id), in.clients.train_size(id),
                           in.epochs, latency_rng[tier]));
  }
  round.active = true;
  return round.latency;
}

std::size_t TierRounds::fold(std::size_t tier, std::size_t version,
                             double lr_decay, std::vector<float>& model,
                             double* train_loss) {
  PendingTierRound& round = pending[tier];
  round.active = false;
  std::vector<WeightedUpdate> weighted;
  double loss = 0.0;
  for (const LocalUpdate& update : round.updates) {
    weighted.push_back(
        {update.weights, static_cast<double>(update.num_samples)});
    loss += update.train_loss;
  }
  if (train_loss != nullptr) {
    *train_loss = loss / static_cast<double>(round.updates.size());
  }
  model = fedavg(weighted);
  const std::size_t staleness = version - round.dispatch_version;
  staleness_sum[tier] += static_cast<double>(staleness);
  tier_lr[tier] *= lr_decay;
  return staleness;
}

void TierRounds::abandon(std::size_t tier) {
  pending[tier].active = false;
  pending[tier].selected.clear();
  pending[tier].updates.clear();
  retry_count[tier] = 0;
}

void TierRounds::check(const SnapshotCheck& check, std::size_t tiers,
                       std::size_t population,
                       std::size_t weight_count) const {
  check(tier_lr.size() == tiers, "tier_lr length");
  check(staleness_sum.size() == tiers, "staleness_sum length");
  check(retry_count.size() == tiers, "retry_count length");
  for (const PendingTierRound& round : pending) {
    for (std::size_t id : round.selected) {
      check(id < population, "pending member");
    }
    for (const LocalUpdate& update : round.updates) {
      check(update.weights.size() == weight_count, "pending update length");
    }
  }
}

Redelivery::Redelivery(sim::FaultModel& fault, sim::EventQueue& queue)
    : fault_(fault),
      queue_(queue),
      lost_(obs::Registry::global().counter("fault.lost_updates")),
      dropped_(obs::Registry::global().counter("fault.dropped_updates")) {}

Delivery Redelivery::operator()(const sim::Event& event,
                                std::size_t& retries,
                                std::optional<std::size_t> tier) {
  if (!fault_.lose_update()) {
    retries = 0;
    return Delivery::kArrived;
  }
  lost_.add();
  const bool retry = retries < fault_.config().max_retries;
  if (retry) {
    queue_.schedule(fault_.backoff(++retries), event.kind, event.actor);
  } else {
    dropped_.add();
  }
  if (obs::Tracer* t = obs::tracer()) {
    const char* name = retry ? "lost" : "dropped";
    const auto actor = static_cast<std::int64_t>(event.actor);
    const obs::Field count = obs::field(retry ? "attempt" : "retries", retries);
    if (!tier) {
      t->instant(queue_.now(), "fault", name, actor, {count});
    } else if (retry) {
      t->instant(queue_.now(), "fault", name, actor,
                 {obs::field("tier", *tier), count});
    } else {
      t->instant(queue_.now(), "fault", name, actor,
                 {obs::field("tier", *tier)});
    }
  }
  if (retry) return Delivery::kRetrying;
  retries = 0;
  return Delivery::kDropped;
}

const char* membership_fault(std::span<const std::vector<std::size_t>> tiers,
                             std::size_t tier_count, std::size_t population,
                             const std::function<bool(std::size_t)>& live,
                             std::size_t live_count) {
  if (tiers.size() != tier_count) return "the wrong tier count";
  std::vector<char> seen(population, 0);
  std::size_t total = 0;
  for (const std::vector<std::size_t>& members : tiers) {
    for (std::size_t id : members) {
      if (id >= population) return "a client id out of range";
      if (seen[id]++ != 0) return "a client listed twice";
      if (live && !live(id)) return "a client that is not live";
      ++total;
    }
  }
  return live && total != live_count ? "too few clients" : nullptr;
}

}  // namespace tifl::fl
