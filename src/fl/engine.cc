#include "fl/engine.h"

#include <algorithm>
#include <stdexcept>

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
}

void Engine::set_tier_eval_indices(
    std::vector<std::vector<std::size_t>> indices) {
  check_tier_eval_indices("Engine", indices, test_->size());
  tier_eval_indices_ = std::move(indices);
}

nn::Sequential& Engine::scratch_model(std::size_t slot) {
  while (scratch_.size() <= slot) {
    // Seed is irrelevant: scratch weights are always overwritten.
    scratch_.push_back(factory_(/*seed=*/slot + 1));
  }
  return scratch_[slot];
}

double Engine::expected_client_latency(std::size_t client_id) const {
  const Client& client = clients_.at(client_id);
  return latency_model_.expected_latency(
      client.resource(), client.train_size(), config_.local.epochs);
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

  sim::VirtualClock clock;
  RunResult result;
  result.policy_name = policy.name();
  result.rounds.reserve(config_.rounds);

  HierarchicalAggregator hierarchical(config_.aggregator_fanout);
  obs::PhaseTimer phases;

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    SelectionContext context = SelectionContext::untiered(round, policy_rng);
    context.virtual_time = clock.now();
    Selection selection;
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      selection = policy.select(context);
    }
    if (selection.clients.empty()) {
      throw std::logic_error("Engine: policy selected no clients");
    }
    check_distinct_clients("Engine", selection.clients);
    const std::size_t n = selection.clients.size();

    // Pre-create scratch models serially (lazy growth is not thread-safe).
    for (std::size_t i = 0; i < n; ++i) scratch_model(i + 1);

    LocalTrainParams params = config_.local;
    params.lr = lr;

    // --- parallel local training -----------------------------------------
    std::vector<LocalUpdate> updates(n);
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kTrain);
      util::global_pool().parallel_for(0, n, [&](std::size_t i) {
        const Client& client = clients_.at(selection.clients[i]);
        // Deterministic stream per (round, client id).
        util::Rng client_rng(util::mix_seed(seed, round, client.id()));
        updates[i] =
            client.local_update(global, scratch_[i + 1], params, client_rng);
      });
    }

    // --- simulated round latency (Eq. 1) ---------------------------------
    // With over-provisioning (aggregate_count < n) the aggregator
    // proceeds as soon as the fastest `aggregate_count` clients answer
    // and discards the stragglers' updates [Bonawitz et al.].
    std::vector<std::pair<double, std::size_t>> latency_by_slot(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Client& client = clients_.at(selection.clients[i]);
      latency_by_slot[i] = {latency_model_.sample_latency(
                                client.resource(), client.train_size(),
                                params.epochs, latency_rng),
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
    clock.advance(round_latency);

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
      global = config_.hierarchical_aggregation
                   ? hierarchical.aggregate(weighted)
                   : fedavg(weighted);
    }
    agg_phase.stop();
    if (obs::Tracer* t = obs::tracer()) {
      t->span(clock.now() - round_latency, round_latency, "sync", "round",
              selection.tier,
              {obs::field("round", round), obs::field("clients", n),
               obs::field("kept", keep)});
    }

    lr *= config_.lr_decay_per_round;

    // --- evaluation + feedback -------------------------------------------
    RoundRecord record;
    record.round = round;
    record.round_latency = round_latency;
    record.virtual_time = clock.now();
    record.train_loss = train_loss;
    record.selected_tier = selection.tier;
    record.selected_clients = selection.clients;

    RoundFeedback feedback;
    feedback.round = round;
    feedback.virtual_time = clock.now();
    feedback.submitting_tier = selection.tier;
    const bool eval_now =
        round % config_.eval_every == 0 || round + 1 == config_.rounds;
    if (eval_now) {
      obs::ScopedPhase phase(&phases, obs::Phase::kEval);
      Evaluation r = evaluate_weights(scratch_model(0), global, *test_,
                                      config_.eval_chunk, tier_eval_indices_);
      phase.stop();
      record.global_accuracy = r.accuracy;
      record.global_loss = r.loss;
      feedback.tier_accuracies = std::move(r.subset_accuracies);
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(clock.now(), "sync", "eval", selection.tier,
                   {obs::field("round", round),
                    obs::field("accuracy", r.accuracy)});
      }
    } else if (!result.rounds.empty()) {
      // Carry the last evaluation forward so curves stay well-defined.
      record.global_accuracy = result.rounds.back().global_accuracy;
      record.global_loss = result.rounds.back().global_loss;
    }
    feedback.global_accuracy = record.global_accuracy;
    feedback.global_loss = record.global_loss;
    policy.observe(feedback);

    result.rounds.push_back(std::move(record));

    if (round % 50 == 0) {
      util::log_debug("round ", round, " policy=", policy.name(),
                      " acc=", result.rounds.back().global_accuracy,
                      " t=", result.rounds.back().virtual_time);
    }

    if (config_.time_budget_seconds > 0.0 &&
        clock.now() >= config_.time_budget_seconds) {
      util::log_info("time budget of ", config_.time_budget_seconds,
                     "s exhausted after round ", round + 1);
      break;
    }
  }
  result.phases = phases.stats();
  return result;
}

}  // namespace tifl::fl
