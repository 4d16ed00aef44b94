#include "fl/engine.h"

#include <algorithm>
#include <stdexcept>

#include "fl/aggregator.h"
#include "fl/evaluation.h"
#include "fl/secure_aggregation.h"

#include "obs/phase.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace tifl::fl {

Engine::Engine(EngineConfig config, nn::ModelFactory factory,
               std::vector<Client> clients, const data::Dataset* test,
               sim::LatencyModel latency_model)
    : config_(config),
      factory_(std::move(factory)),
      clients_(std::move(clients)),
      test_(test),
      latency_model_(latency_model) {
  if (clients_.empty()) {
    throw std::invalid_argument("Engine: no clients");
  }
  if (test_ == nullptr) {
    throw std::invalid_argument("Engine: null test dataset");
  }
  if (config_.eval_every == 0) {
    throw std::invalid_argument("Engine: eval_every must be > 0");
  }
}

void Engine::set_tier_eval_indices(
    std::vector<std::vector<std::size_t>> indices) {
  check_tier_eval_indices("Engine", indices, test_->size());
  tier_eval_indices_ = std::move(indices);
}

RunResult Engine::run(SelectionPolicy& policy,
                      std::optional<std::uint64_t> seed_override) {
  if (!policy.supports(EngineKind::kSync)) {
    throw std::invalid_argument(
        "Engine: policy '" + policy.name() +
        "' does not support the synchronous engine");
  }
  const std::uint64_t seed = seed_override.value_or(config_.seed);
  util::Rng root(seed);
  util::Rng policy_rng = root.fork(0xF01);
  util::Rng latency_rng = root.fork(0xF02);

  std::vector<float> global = factory_(seed).weights();
  double lr = config_.local.optimizer.lr;
  double virtual_time = 0.0;

  RunResult result;
  result.policy_name = policy.name();
  result.rounds.reserve(config_.rounds);

  obs::PhaseTimer phases;
  ClientPool pool(&clients_);
  VersionRecorder recorder{
      &result.rounds, config_.eval_every, config_.rounds, "sync",
      [this](std::span<const float> w) {
        return trainer_.evaluate(w, *test_, kEvalChunk, tier_eval_indices_);
      },
      &phases};

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    Selection selection;
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      selection = policy.select(round, policy_rng);
    }
    if (selection.clients.empty()) {
      throw std::logic_error("Engine: policy selected no clients");
    }
    check_distinct_clients("Engine", selection.clients);
    const std::size_t n = selection.clients.size();

    std::vector<LocalUpdate> updates;
    trainer_.train(pool, selection.clients, global, lr, seed, round, updates,
                   phases);

    // --- simulated round latency (Eq. 1) ---------------------------------
    // With over-provisioning (aggregate_count < n) the aggregator
    // proceeds as soon as the fastest `aggregate_count` clients answer
    // and discards the stragglers' updates [Bonawitz et al.].
    std::vector<std::pair<double, std::size_t>> latency_by_slot(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Client& client = clients_.at(selection.clients[i]);
      latency_by_slot[i] = {latency_model_.sample_latency(
                                client.resource(), client.train_size(),
                                config_.local.epochs, latency_rng),
                            i};
    }
    const std::size_t keep =
        selection.aggregate_count > 0 && selection.aggregate_count < n
            ? selection.aggregate_count
            : n;
    if (keep < n) {
      std::partial_sort(latency_by_slot.begin(),
                        latency_by_slot.begin() + keep,
                        latency_by_slot.end());
    }

    double round_latency = 0.0;
    double train_loss = 0.0;
    for (std::size_t i = 0; i < keep; ++i) {
      round_latency = std::max(round_latency, latency_by_slot[i].first);
      train_loss += updates[latency_by_slot[i].second].train_loss;
    }
    train_loss /= static_cast<double>(keep);
    virtual_time += round_latency;

    // --- aggregation ------------------------------------------------------
    obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
    if (config_.secure_aggregation) {
      if (keep < n) {
        throw std::logic_error(
            "Engine: secure aggregation cannot drop stragglers — pairwise "
            "masks would not cancel (use a policy without over-"
            "provisioning, or disable secure_aggregation)");
      }
      std::vector<MaskedUpdate> masked(n);
      util::global_pool().parallel_for(0, n, [&](std::size_t i) {
        masked[i] = mask_update(
            updates[i].weights,
            static_cast<double>(updates[i].num_samples),
            selection.clients[i], selection.clients,
            config_.secure_session_key, round);
      });
      global = secure_fedavg(masked);
    } else {
      std::vector<WeightedUpdate> weighted;
      weighted.reserve(keep);
      for (std::size_t i = 0; i < keep; ++i) {
        const LocalUpdate& update = updates[latency_by_slot[i].second];
        weighted.push_back(WeightedUpdate{
            .weights = update.weights,
            .sample_count = static_cast<double>(update.num_samples)});
      }
      global = fedavg(weighted);
    }
    agg_phase.stop();
    if (obs::Tracer* t = obs::tracer()) {
      t->span(virtual_time - round_latency, round_latency, "sync", "round",
              selection.tier,
              {obs::field("round", round), obs::field("clients", n),
               obs::field("kept", keep)});
    }

    lr *= config_.lr_decay_per_round;

    // --- evaluation + feedback -------------------------------------------
    RoundRecord record;
    record.round_latency = round_latency;
    record.virtual_time = virtual_time;
    record.train_loss = train_loss;
    record.selected_tier = selection.tier;
    record.selected_clients = std::move(selection.clients);
    recorder.record(std::move(record), global, selection.tier, &policy);

    if (round % 50 == 0) {
      util::log_debug("round ", round, " policy=", policy.name(),
                      " acc=", result.rounds.back().global_accuracy,
                      " t=", result.rounds.back().virtual_time);
    }

    if (config_.time_budget_seconds > 0.0 &&
        virtual_time >= config_.time_budget_seconds) {
      util::log_info("time budget of ", config_.time_budget_seconds,
                     "s exhausted after round ", round + 1);
      break;
    }
  }
  recorder.finish(global, recorder.last_tier());
  result.phases = phases.stats();
  return result;
}

}  // namespace tifl::fl
