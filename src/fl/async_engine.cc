#include "fl/async_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "fl/evaluation.h"
#include "fl/policy.h"
#include "fl/snapshot.h"
#include "fl/tier_rounds.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "obs/wall_time.h"
#include "sim/event_log.h"
#include "sim/event_queue.h"
#include "util/log.h"
#include "util/segmented_id_set.h"

namespace tifl::fl {

StalenessFn parse_staleness(const std::string& name) {
  if (name == "constant") return StalenessFn::kConstant;
  if (name == "poly" || name == "polynomial") return StalenessFn::kPolynomial;
  if (name == "invfreq" || name == "inverse-frequency" || name == "fedat") {
    return StalenessFn::kInverseFrequency;
  }
  throw std::invalid_argument(
      "unknown staleness function '" + name +
      "' (valid: constant, poly | polynomial, invfreq | inverse-frequency | "
      "fedat)");
}

std::string staleness_name(StalenessFn fn) {
  switch (fn) {
    case StalenessFn::kConstant: return "constant";
    case StalenessFn::kPolynomial: return "poly";
    case StalenessFn::kInverseFrequency: return "invfreq";
  }
  return "unknown";
}

double staleness_factor(StalenessFn fn, double alpha, std::size_t staleness) {
  if (fn == StalenessFn::kPolynomial) {
    return std::pow(1.0 + static_cast<double>(staleness), -alpha);
  }
  return 1.0;
}

std::vector<double> cross_tier_weights(
    StalenessFn fn, double alpha, std::span<const std::size_t> update_counts,
    std::span<const std::size_t> staleness) {
  if (update_counts.size() != staleness.size()) {
    throw std::invalid_argument("cross_tier_weights: size mismatch");
  }
  std::vector<double> weights(update_counts.size(), 0.0);
  std::size_t u_max = 0;
  for (std::size_t u : update_counts) u_max = std::max(u_max, u);

  double total = 0.0;
  for (std::size_t t = 0; t < update_counts.size(); ++t) {
    if (update_counts[t] == 0) continue;  // never submitted: no model yet
    double w = 1.0;
    switch (fn) {
      case StalenessFn::kConstant:
        break;
      case StalenessFn::kPolynomial:
        w = staleness_factor(fn, alpha, staleness[t]);
        break;
      case StalenessFn::kInverseFrequency:
        // FedAT-style: a tier that submitted u_max - u_t fewer times than
        // the busiest tier gets proportionally more mass, countering the
        // fast-tier bias of naive async averaging.
        w = 1.0 + static_cast<double>(u_max - update_counts[t]);
        break;
    }
    weights[t] = w;
    total += w;
  }
  if (total > 0.0) {
    for (double& w : weights) w /= total;
  }
  return weights;
}

std::vector<double> aggregate_slots(
    StalenessFn fn, double alpha, std::span<const std::size_t> update_counts,
    std::span<const std::size_t> last_version, std::size_t version,
    const std::vector<std::vector<float>>& models, std::vector<float>& global,
    std::vector<double>& accum) {
  std::vector<std::size_t> age(update_counts.size(), 0);
  for (std::size_t s = 0; s < age.size(); ++s) {
    if (update_counts[s] > 0) age[s] = version - last_version[s];
  }
  std::vector<double> weights =
      cross_tier_weights(fn, alpha, update_counts, age);
  const std::size_t weight_count = global.size();
  accum.assign(weight_count, 0.0);
  for (std::size_t s = 0; s < models.size(); ++s) {
    if (weights[s] == 0.0) continue;
    const double w = weights[s];
    const std::vector<float>& model = models[s];
    for (std::size_t i = 0; i < weight_count; ++i) {
      accum[i] += w * static_cast<double>(model[i]);
    }
  }
  for (std::size_t i = 0; i < weight_count; ++i) {
    global[i] = static_cast<float>(accum[i]);
  }
  return weights;
}

namespace {

// Engine-level instruments, resolved once.  Counter/histogram updates are
// relaxed atomics; the trace layer is a branch-on-null when disabled.
struct AsyncMetrics {
  obs::Counter& events;
  obs::Counter& tier_rounds;
  obs::Counter& parks;
  obs::Counter& park_retries;
  obs::Counter& stale_events;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& slowdowns;
  obs::Counter& reprofiles;
  // One-time run setup (per-client state arrays, membership sets, initial
  // heap fill) and end-of-run finalization (flat membership reporting) —
  // wall time, so benches can report steady-state event throughput
  // separately from the O(population) bookends.
  obs::Counter& setup_ns;
  obs::Counter& finalize_ns;
  // Cross-cohort flushes of the dynamic loop and the cohorts each trained.
  obs::Counter& flushes;
  obs::Histo& flush_cohorts;
  obs::Histo& staleness;
  obs::Histo& event_batch;
};

AsyncMetrics& async_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static AsyncMetrics m{
      reg.counter("async.events"),
      reg.counter("async.tier_rounds"),
      reg.counter("async.parks"),
      reg.counter("async.park_retries"),
      reg.counter("async.stale_events"),
      reg.counter("async.joins"),
      reg.counter("async.leaves"),
      reg.counter("async.slowdowns"),
      reg.counter("async.reprofiles"),
      reg.counter("async.setup_ns"),
      reg.counter("async.finalize_ns"),
      reg.counter("async.flushes"),
      reg.histogram("async.flush_cohorts"),
      reg.histogram("async.staleness"),
      reg.histogram("async.event_batch"),
  };
  return m;
}

// Guards a resume against a drifted configuration: every knob that shapes
// the deterministic trajectory is folded in.  Deliberately excluded:
// fault.crash_at (the crash point is process fate, not trajectory) and
// the durability paths themselves.
std::uint64_t config_fingerprint(const EngineConfig& config,
                                 const AsyncConfig& async, std::uint64_t seed,
                                 std::size_t num_tiers,
                                 std::size_t num_clients,
                                 std::size_t weight_count) {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto lifecycle = [&](std::uint64_t h) {
    h = util::mix_seed(h, f(async.churn.join_rate), f(async.churn.leave_rate));
    h = util::mix_seed(h, f(async.churn.slowdown_rate),
                       f(async.churn.slowdown_log_mu));
    h = util::mix_seed(h, f(async.churn.slowdown_log_sigma), async.churn.seed);
    return util::mix_seed(h, f(async.reprofile_every),
                          async.dynamic_lifecycle ? 1 : 0);
  };
  const std::uint64_t h = mix_shared_knobs(util::mix_seed(0xD0C5, seed),
                                           config, async, lifecycle);
  return util::mix_seed(util::mix_seed(h, num_tiers, num_clients),
                        weight_count);
}

constexpr SnapshotCheck check_snapshot{"AsyncEngine"};

}  // namespace

// One run of either flat loop: the per-tier server state both keep
// (FedAT keeps one model per tier), the queue, the fault model and
// durability state, the result and its version recorder, and the steps
// both loops take on them.  Both fork the same selection and latency
// streams, so a zero-churn dynamic configuration consumes the exact
// streams of a static run; tier 0 reuses the sync engine's fork tags
// (0xF01, 0xF02), so a single-tier async run consumes those of a sync
// VanillaPolicy run.
struct AsyncEngine::FlatRun {
  FlatRun(AsyncEngine& engine, std::uint64_t seed, const std::string& loop)
      : async(engine.async_),
        rounds(engine.tier_count(), engine.config_.local.optimizer.lr),
        global(engine.factory_(seed).weights()),
        tier_models(engine.tier_count(), global),
        tier_updates(engine.tier_count(), 0),
        last_submit_version(engine.tier_count(), 0),
        parked(engine.tier_count(), 0),
        parked_at(engine.tier_count(), 0),
        fault(async.fault, seed),
        checkpointer(async.checkpoint_every, async.checkpoint_path,
                     &event_log),
        // One pass over the test set; subset_accuracies holds the tier
        // accuracies (empty without tier eval index lists).
        recorder{&out.result.rounds, async.eval_every, async.total_updates,
                 "async",
                 [&engine](std::span<const float> w) {
                   return engine.trainer_.evaluate(w, *engine.test_,
                                                   kEvalChunk,
                                                   engine.tier_eval_indices_);
                 },
                 &phases} {
    util::Rng root(seed);
    for (std::size_t t = 0; t < engine.tier_count(); ++t) {
      rounds.selection_rng.push_back(
          root.fork(t == 0 ? 0xF01 : util::mix_seed(0xA51C, t)));
      rounds.latency_rng.push_back(
          root.fork(t == 0 ? 0xF02 : util::mix_seed(0xA51D, t)));
    }
    const SelectionPolicy* policy = engine.policy_;
    out.result.policy_name = loop + "/" +
                             (policy != nullptr ? policy->name() + "/" : "") +
                             staleness_name(async.staleness);
    out.result.rounds.reserve(async.total_updates);
  }

  // Payload head both loops declare after the prologue: stream positions,
  // the per-tier server state, the records, the dispatch counter.
  void io_head(auto& ar) {
    for (std::size_t t = 0; t < tier_models.size(); ++t) {
      io_rng(ar, rounds.selection_rng[t]);
      io_rng(ar, rounds.latency_rng[t]);
    }
    ar.io(global);
    for (auto& model : tier_models) ar.io(model);
    ar.io(tier_updates);
    ar.io(last_submit_version);
    ar.io(rounds.tier_lr);
    ar.io(rounds.staleness_sum);
    io_records(ar, out.result.rounds);
    ar.io(current_weights);  // empty before a fold
    ar.io(dispatch_seq);
  }

  // Payload tail both loops declare last: event accounting, the
  // checkpoint due point (stored for the record only: a resumed run
  // re-arms from its own cadence), the queue of `actors` actors, the
  // fault and policy state, the metrics.
  void io_tail(auto& ar, std::size_t actors, SelectionPolicy& policy) {
    ar.io(out.processed_events);
    ar.io(out.max_event_batch);
    double due = checkpointer.next_due();
    ar.io(due);
    io_queue(ar, queue, actors);
    io_state(ar, fault);
    io_state(ar, policy);
    io_metrics(ar);
  }

  // The checks of a restored head, for a run of `population` clients and
  // `weight_count` weights.
  void check_head(std::size_t population, std::size_t weight_count) const {
    const std::size_t num_tiers = tier_models.size();
    check_snapshot(global.size() == weight_count, "global model length");
    for (const std::vector<float>& model : tier_models) {
      check_snapshot(model.size() == weight_count, "tier model length");
    }
    check_snapshot(tier_updates.size() == num_tiers &&
                       last_submit_version.size() == num_tiers &&
                       parked_at.size() == num_tiers &&
                       (current_weights.empty() ||
                        current_weights.size() == num_tiers),
                   "per-tier vector (tier_updates, last_submit_version, "
                   "parked_at or current_weights) length");
    rounds.check(check_snapshot, num_tiers, population, weight_count);
  }

  // Opens the append-only event log, or on resume truncates it to the
  // restored processed-event horizon.  A fresh run clobbers any stale log
  // under the same name, as the metrics and trace outputs do.
  void open_log(bool resuming) {
    const std::string& path = async.event_log_path;
    if (path.empty()) return;
    if (resuming) {
      event_log.truncate_to(path, out.processed_events);
    } else {
      std::remove(path.c_str());
      event_log.open(path);
    }
  }

  // Asks `policy` for tier `tier`'s cohort at the current version, drawn
  // from `candidates`; an empty answer parks the tier.  Throws
  // std::logic_error on an id at or past `population` or a repeated one.
  Selection select(SelectionPolicy& policy, std::size_t tier,
                   const Candidates& candidates, std::size_t population) {
    const std::size_t version = out.result.rounds.size();
    SelectionContext context;
    context.round = version;
    context.tier = static_cast<int>(tier);
    context.candidates = candidates;
    context.rng = &rounds.selection_rng[tier];
    Selection selection;
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      selection = policy.select(context);
    }
    if (selection.clients.empty()) {
      parked[tier] = 1;
      parked_at[tier] = version;
      metrics.parks.add();
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(queue.now(), "async", "park",
                   static_cast<std::int64_t>(tier),
                   {obs::field("version", version)});
      }
    }
    for (std::size_t id : selection.clients) {
      if (id >= population) {
        throw std::logic_error(
            "AsyncEngine: policy selected a client outside the population");
      }
    }
    check_distinct_clients("AsyncEngine", selection.clients);
    return selection;
  }

  // Tier `tier`'s model moved at `version` with an update `staleness`
  // versions old: counts the submission and recomputes the global model
  // as the staleness-weighted cross-tier average.
  void submit(std::size_t tier, std::size_t version, std::size_t staleness) {
    ++tier_updates[tier];
    last_submit_version[tier] = version;
    metrics.staleness.record(static_cast<double>(staleness));
    current_weights = aggregate_slots(async.staleness, async.poly_alpha,
                                      tier_updates, last_submit_version,
                                      version, tier_models, global, accum);
  }

  // True, and logged, once virtual time has crossed the time budget.
  bool over_budget() const {
    if (async.time_budget_seconds <= 0.0 ||
        queue.now() < async.time_budget_seconds) {
      return false;
    }
    util::log_info("async time budget of ", async.time_budget_seconds,
                   "s exhausted after ", out.result.rounds.size(),
                   " updates");
    return true;
  }

  // Policy-parked tiers get another chance at a later version (a tier
  // parked at this very version waits): `dispatch` each one `idle` allows.
  void retry_parked(const auto& idle, const auto& dispatch) {
    for (std::size_t t = 0; t < parked.size(); ++t) {
      if (parked[t] && parked_at[t] < out.result.rounds.size() && idle(t)) {
        metrics.park_retries.add();
        dispatch(t);
      }
    }
  }

  // The end of either loop: the last record's evaluation, the lease
  // check, then the end-of-run accounting, timed as finalize_ns, with
  // `members` filling in the final membership.
  AsyncRunResult finish(ClientPool& clients,
                        const std::function<void(AsyncRunResult&)>& members) {
    recorder.finish(global, recorder.last_tier());
    clients.check_leases_returned("AsyncEngine");
    const auto finalize_start = obs::wall_now();
    members(out);
    const std::size_t num_tiers = tier_updates.size();
    out.final_weights = std::move(global);
    out.tier_updates = tier_updates;
    out.mean_staleness.assign(num_tiers, 0.0);
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (tier_updates[t] > 0) {
        out.mean_staleness[t] = rounds.staleness_sum[t] /
                                static_cast<double>(tier_updates[t]);
      }
    }
    out.final_tier_weights = std::move(current_weights);
    if (out.final_tier_weights.empty()) {
      out.final_tier_weights.assign(num_tiers, 0.0);
    }
    out.result.phases = phases.stats();
    metrics.finalize_ns.add(obs::wall_ns_count_since(finalize_start));
    return std::move(out);
  }

  const AsyncConfig& async;
  AsyncMetrics& metrics = async_metrics();
  const obs::WallTime setup_start = obs::wall_now();
  obs::PhaseTimer phases;
  TierRounds rounds;  // the dynamic loop runs no whole-tier round
  std::vector<float> global;
  std::vector<std::vector<float>> tier_models;
  std::vector<std::size_t> tier_updates;
  std::vector<std::size_t> last_submit_version;
  std::vector<double> current_weights;  // cross-tier weights in effect
  std::size_t dispatch_seq = 0;         // event-order dispatch counter
  // Tiers whose last selection came back empty, retried once per *later*
  // version (`parked_at` blocks a same-version re-ask).  The default
  // uniform policy never parks.
  std::vector<char> parked;
  std::vector<std::size_t> parked_at;
  std::vector<double> accum;  // aggregate_slots scratch
  sim::EventQueue queue;
  AsyncRunResult out;
  sim::FaultModel fault;
  Redelivery deliver{fault, queue};
  sim::EventLogWriter event_log;
  Checkpointer checkpointer;
  VersionRecorder recorder;
};

AsyncEngine::AsyncEngine(EngineConfig config, AsyncConfig async,
                         nn::ModelFactory factory, ClientPool* pool,
                         std::vector<std::vector<std::size_t>> tier_members,
                         const data::Dataset* test,
                         sim::LatencyModel latency_model)
    : config_(config),
      async_(async),
      factory_(std::move(factory)),
      clients_(pool),
      tier_members_(std::move(tier_members)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

AsyncEngine::AsyncEngine(EngineConfig config, AsyncConfig async,
                         nn::ModelFactory factory,
                         const std::vector<Client>* clients,
                         std::vector<std::vector<std::size_t>> tier_members,
                         const data::Dataset* test,
                         sim::LatencyModel latency_model)
    : config_(config),
      async_(async),
      factory_(std::move(factory)),
      owned_pool_(clients != nullptr && !clients->empty()
                      ? std::make_unique<ClientPool>(clients)
                      : nullptr),
      clients_(owned_pool_.get()),
      tier_members_(std::move(tier_members)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

void validate_async_config(const AsyncConfig& async, const ClientPool* clients,
                           const data::Dataset* test, const char* engine) {
  const auto bad = [](double v) { return std::isnan(v) || v < 0.0; };
  const std::pair<bool, const char*> checks[] = {
      {clients == nullptr || clients->size() == 0, "no clients"},
      {test == nullptr, "null test dataset"},
      {async.total_updates == 0, "total_updates must be > 0"},
      {async.clients_per_tier_round == 0,
       "clients_per_tier_round must be > 0"},
      {bad(async.poly_alpha), "negative or NaN poly_alpha"},
      {bad(async.time_budget_seconds), "negative or NaN time_budget_seconds"},
      {async.eval_every == 0, "eval_every must be > 0"},
      {bad(async.reprofile_every), "negative reprofile_every"},
      {bad(async.checkpoint_every), "negative or NaN checkpoint_every"},
      {async.checkpoint_every > 0.0 && async.checkpoint_path.empty(),
       "checkpoint_every > 0 requires a checkpoint_path"},
      {bad(async.churn.join_rate) || bad(async.churn.leave_rate) ||
           bad(async.churn.slowdown_rate),
       "negative or NaN churn rate"},
  };
  for (const auto& [failed, what] : checks) {
    if (failed) throw std::invalid_argument(std::string(engine) + ": " + what);
  }
}

std::uint64_t mix_shared_knobs(
    std::uint64_t h, const EngineConfig& config, const AsyncConfig& async,
    const std::function<std::uint64_t(std::uint64_t)>& lifecycle) {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  h = util::mix_seed(h, static_cast<std::uint64_t>(async.staleness),
                     f(async.poly_alpha));
  h = util::mix_seed(h, async.total_updates, async.clients_per_tier_round);
  h = util::mix_seed(h, f(async.time_budget_seconds), async.eval_every);
  h = lifecycle(h);
  h = util::mix_seed(h, f(async.fault.loss_prob), async.fault.max_retries);
  h = util::mix_seed(h, f(async.fault.backoff_base),
                     f(async.fault.backoff_factor));
  h = util::mix_seed(h, f(async.fault.backoff_max), async.fault.seed);
  h = util::mix_seed(h, config.local.epochs, config.local.batch_size);
  h = util::mix_seed(h, f(config.local.optimizer.lr),
                     f(config.lr_decay_per_round));
  h = util::mix_seed(h, static_cast<std::uint64_t>(config.local.optimizer.kind),
                     kEvalChunk);
  return util::mix_seed(h, f(config.local.dp_clip_norm),
                        f(config.local.dp_noise_sigma));
}

void AsyncEngine::validate() const {
  validate_async_config(async_, clients_, test_, "AsyncEngine");
  if (const char* wrong = membership_fault(
          tier_members_, tier_members_.size(), clients_->size())) {
    throw std::invalid_argument(
        std::string("AsyncEngine: tier membership has ") + wrong);
  }
  const auto empty = [](const auto& members) { return members.empty(); };
  if (std::ranges::all_of(tier_members_, empty)) {
    throw std::invalid_argument("AsyncEngine: every tier is empty");
  }
}

void AsyncEngine::set_lifecycle_hooks(LifecycleHooks hooks) {
  hooks_ = std::move(hooks);
}

void AsyncEngine::set_policy(SelectionPolicy* policy) {
  if (policy != nullptr && !policy->supports(EngineKind::kAsync)) {
    throw std::invalid_argument(
        "AsyncEngine: policy '" + policy->name() +
        "' does not support the async engine");
  }
  policy_ = policy;
}

void AsyncEngine::set_tier_eval_indices(
    std::vector<std::vector<std::size_t>> indices) {
  if (!indices.empty() && indices.size() != tier_members_.size()) {
    throw std::invalid_argument(
        "AsyncEngine: tier eval set count does not match tier count");
  }
  check_tier_eval_indices("AsyncEngine", indices, test_->size());
  tier_eval_indices_ = std::move(indices);
}

AsyncRunResult AsyncEngine::run(std::optional<std::uint64_t> seed_override) {
  const std::uint64_t seed = seed_override.value_or(config_.seed);
  // Default policy: uniform self-sampling — an explicit instance of the
  // same class a caller could install, so "no policy" and "uniform
  // policy" are one code path (a determinism ctest asserts the replay of
  // the pre-seam engine is bit-for-bit).
  UniformTierPolicy uniform(async_.clients_per_tier_round);
  SelectionPolicy& policy = policy_ != nullptr ? *policy_ : uniform;
  // The static path below is kept byte-for-byte: a configuration with no
  // churn and reprofile_every == 0 must replay PR 1's engine exactly.
  return dynamic() ? run_dynamic(seed, policy) : run_static(seed, policy);
}

AsyncRunResult AsyncEngine::run_static(std::uint64_t seed,
                                       SelectionPolicy& policy) {
  const std::size_t num_tiers = tier_members_.size();
  // Tier-round completions are the only scheduled events here, so tiers
  // are the actor space; the unit of delivery is the whole tier round.
  FlatRun run(*this, seed, "async");
  sim::EventQueue& queue = run.queue;
  AsyncRunResult& out = run.out;
  TierRounds& rounds = run.rounds;
  const RoundInputs round_inputs{trainer_, *clients_, latency_model_,
                                 config_.local.epochs, seed, run.phases};
  std::size_t scheduled = 0;  // dispatched tier rounds (in flight + done)

  const auto dispatch = [&](std::size_t tier) {
    run.parked[tier] = 0;
    const std::size_t version = out.result.rounds.size();
    Selection selection = run.select(
        policy, tier, Candidates(tier_members_[tier]), clients_->size());
    if (selection.clients.empty()) return;
    const std::size_t count = selection.clients.size();
    const double latency =
        rounds.launch(round_inputs, tier, std::move(selection.clients),
                      version, run.global, run.dispatch_seq);
    queue.schedule(latency, /*kind=*/0, /*actor=*/tier);
    ++scheduled;
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), latency, "async", "tier_round",
              static_cast<std::int64_t>(tier),
              {obs::field("version", version), obs::field("clients", count)});
    }
  };

  run.metrics.setup_ns.add(obs::wall_ns_count_since(run.setup_start));

  // --- snapshot payload (static path) ----------------------------------------
  // Between the shared head and tail: the cadence counters and the
  // in-flight rounds (trained at dispatch, so their updates travel with
  // the snapshot).  The checkpoint writer and the resume path both run
  // this one declaration.
  const std::size_t weight_count = run.global.size();
  const SnapshotPrologue prologue{
      kSnapStatic,
      config_fingerprint(config_, async_, seed, num_tiers, clients_->size(),
                         weight_count),
      num_tiers, clients_->size(), weight_count, policy.name()};
  const auto io_payload = [&](auto& ar) {
    io_prologue(ar, prologue, "AsyncEngine");
    run.io_head(ar);
    ar.io(scheduled);
    for (char& parked : run.parked) io_as<bool>(ar, parked);
    ar.io(run.parked_at);
    ar.io(rounds.retry_count);
    for (PendingTierRound& round : rounds.pending) io_pending(ar, round);
    ar.io(run.recorder.last_evaluated);
    run.io_tail(ar, num_tiers, policy);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    io_payload(source);
    // Everything the event handlers index with or fold, before any event
    // runs.
    run.check_head(clients_->size(), weight_count);
    for (const sim::Event& event : queue.pending()) {
      check_snapshot(rounds.trained(event.actor),
                     "tier event (a round with updates)");
    }
    run.checkpointer.resume(queue.now());
    util::log_info("async: resumed from ", async_.resume_path, " at version ",
                   out.result.rounds.size(), ", t=", queue.now());
  }
  run.open_log(resuming);

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_members_[t].empty() && scheduled < async_.total_updates) {
        dispatch(t);
      }
    }
  }

  const auto handle = [&](const sim::Event& event) {
    const std::size_t tier = static_cast<std::size_t>(event.actor);
    const Delivery delivery = run.deliver(event, rounds.retry_count[tier]);
    // A dropped round's updates are gone for good: un-count its dispatch
    // and restart the tier, so the run still records total_updates
    // versions.
    if (delivery == Delivery::kDropped) {
      --scheduled;
      dispatch(tier);
    }
    if (delivery != Delivery::kArrived) return true;
    const PendingTierRound& round = rounds.pending[tier];

    // --- tier-level FedAvg, then the staleness-weighted cross-tier
    // aggregation --------------------------------------------------------
    obs::ScopedPhase agg_phase(&run.phases, obs::Phase::kAggregate);
    double train_loss = 0.0;
    const std::size_t version = out.result.rounds.size();
    const std::size_t staleness =
        rounds.fold(tier, version, config_.lr_decay_per_round,
                    run.tier_models[tier], &train_loss);
    run.metrics.tier_rounds.add();
    run.submit(tier, version, staleness);
    agg_phase.stop();
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "async", "aggregate",
                 static_cast<std::int64_t>(tier),
                 {obs::field("version", version),
                  obs::field("staleness", staleness),
                  obs::field("weight", run.current_weights[tier])});
    }

    run.recorder.record({.virtual_time = queue.now(),
                         .round_latency = round.latency,
                         .train_loss = train_loss,
                         .selected_tier = static_cast<int>(tier),
                         .selected_clients = round.selected},
                        run.global, static_cast<std::int64_t>(tier), &policy,
                        staleness);

    if (version % 50 == 0) {
      util::log_debug("async v", version, " tier=", tier,
                      " acc=", out.result.rounds.back().global_accuracy,
                      " t=", queue.now());
    }
    if (run.over_budget()) return false;
    // Total dispatches are capped at total_updates, so draining the queue
    // records exactly that many versions (fewer on a time-budget stop).
    const auto below_cap = [&](std::size_t) {
      return scheduled < async_.total_updates;
    };
    if (below_cap(tier)) dispatch(tier);
    run.retry_parked(below_cap, dispatch);
    return true;
  };
  run_batches(queue, run.checkpointer, run.fault, &run.event_log, run.metrics,
              out, io_payload, handle, [] { return true; });

  return run.finish(*clients_, [&](AsyncRunResult& result) {
    result.final_members = tier_members_;
    for (const std::vector<std::size_t>& members : tier_members_) {
      result.final_live_clients += members.size();
    }
  });
}

// Dynamic client lifecycle: joins, leaves, mid-round slowdowns and online
// re-tiering share the event queue with training.  The unit of submission
// is the *client*, not the tier: every sampled client's update arrives as
// its own kClientUpdate event after that client's individual latency, is
// folded into its tier's running (staleness-weighted) FedAvg, and
// triggers one cross-tier aggregation — so a straggler whose multiplier
// changed mid-flight lands late and is discounted by its own age, while
// its on-time cohort already moved the model.  A tier re-dispatches when
// every awaited member has arrived or left.  Unlike the static loop and
// the tree's leaves, a cohort does not train at its dispatch: it waits,
// with a copy of the global model of that moment, until the first update
// of any waiting cohort is needed, and then every waiting cohort trains
// in one CohortTrainer call (a flush), so one fork-join serves several
// small cohorts.  A pair reads only its cohort's base model and its
// mix_seed(seed, seq, id) stream, so the bytes match training at dispatch.
AsyncRunResult AsyncEngine::run_dynamic(std::uint64_t seed,
                                        SelectionPolicy& policy) {
  const std::size_t num_tiers = tier_members_.size();
  const std::size_t num_clients = clients_->size();
  if (async_.reprofile_every > 0.0 && !hooks_.retier) {
    throw std::invalid_argument(
        "AsyncEngine: reprofile_every > 0 requires a retier hook");
  }

  // Membership evolves during the run (leaves, joins, re-tierings), so
  // work on run-local state: repeated run() calls stay a pure function
  // of the seed.  Each tier's members live in an order-statistics set
  // (SegmentedIdSet: O(block) churn instead of an O(n) memmove per event
  // at million-client scale) in ascending id order.  Selection reads it
  // through a Candidates view; the snapshot writer and the final
  // membership copy it out.

  // Same stream layout as the static path; churn draws come from the
  // ChurnModel's own forked streams, so enabling re-profiling alone does
  // not perturb selection or latency sequences.  Clients are the actor
  // space (lifecycle and reprofile events ride on actor 0).
  FlatRun run(*this, seed, "async-dyn");
  AsyncMetrics& metrics = run.metrics;
  sim::EventQueue& queue = run.queue;
  AsyncRunResult& out = run.out;
  const std::size_t weight_count = run.global.size();

  // One open round per tier, folded into incrementally as members arrive.
  struct DynRound {
    bool active = false;       // a cohort is in flight
    std::size_t awaiting = 0;  // members not yet arrived nor departed
    std::size_t arrivals = 0;
    std::vector<double> accum;  // sum of weight * update (doubles)
    double weight_total = 0.0;
  };
  std::vector<DynRound> rounds(num_tiers);

  // Per-client lifecycle state; a client is live iff it has a tier.
  constexpr std::size_t kNoTier = static_cast<std::size_t>(-1);
  std::vector<std::size_t> tier_of(num_clients, kNoTier);
  std::vector<double> latency_scale(num_clients, 1.0);

  std::vector<util::SegmentedIdSet> tier_sets;
  tier_sets.reserve(num_tiers);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    tier_sets.emplace_back(num_clients);
  }
  util::SegmentedIdSet live_set(num_clients);
  // Join reserve: the clients outside the tiers that can answer.  An
  // unavailable one (ResourceProfile::unavailable) never would: a joiner's
  // arrival would sit at +inf, and its cohort would never drain.
  util::SegmentedIdSet inactive_set(num_clients);
  const auto reserve = [&](std::size_t c) {
    if (!clients_->resource(c).unavailable) inactive_set.insert(c);
  };

  // Start, resume and re-tiering install the tier membership here: one id
  // list per tier, together covering exactly the live clients.  Each list
  // is sorted in place, so its inserts append to their set blocks and
  // on_retier sees it ascending.
  const auto set_tiers = [&](std::vector<std::vector<std::size_t>>& members) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      std::sort(members[t].begin(), members[t].end());
      tier_sets[t].clear();
      for (std::size_t id : members[t]) {
        tier_of[id] = t;
        tier_sets[t].insert(id);
      }
    }
  };

  // One record per in-flight client, keyed (and so iterated) by ascending
  // id.  Its update joins it when its cohort's flush trains it.
  struct Flight {
    std::size_t tier = 0;  // the dispatching tier
    double dispatch_time = 0.0;
    std::size_t dispatch_version = 0;
    double arrival = 0.0;  // time of the arrival event that counts
    std::size_t retries = 0;  // redeliveries of a lost update
    std::uint64_t seq = 0;    // its cohort's dispatch_seq
    bool trained = false;
    LocalUpdate update;
  };
  std::map<std::size_t, Flight> flights;

  // Dispatched cohorts waiting for the next flush: members in selection
  // order and the global model, lr and dispatch_seq of their dispatch.
  struct PendingCohort {
    std::vector<std::size_t> members;
    std::vector<float> base;
    double lr = 0.0;
    std::uint64_t seq = 0;
    std::vector<LocalUpdate> updates;  // CohortTrainer output
  };
  std::vector<PendingCohort> pending;

  const auto expected_latency = [&](std::size_t c) {
    return latency_model_.expected_latency(clients_->resource(c),
                                           clients_->train_size(c),
                                           config_.local.epochs) *
           latency_scale[c];
  };

  // Hook-free join placement: the tier whose live members' mean expected
  // latency sits nearest the joiner's.
  const auto place_fallback = [&](std::size_t c) {
    const double mine = expected_latency(c);
    std::size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (tier_sets[t].empty()) continue;
      double mean = 0.0;
      tier_sets[t].for_each(
          [&](std::size_t id) { mean += expected_latency(id); });
      mean /= static_cast<double>(tier_sets[t].size());
      const double distance = std::abs(mean - mine);
      if (distance < best_distance) {
        best_distance = distance;
        best = t;
      }
    }
    return best;
  };

  const bool resuming = !async_.resume_path.empty();

  // Trains every pending cohort in one call and hands each update to its
  // flight.  A pair whose client no longer flies under that cohort (it
  // left, or left, rejoined and flies a newer one) trains all the same, so
  // the pool leases every dispatched pair, and its update is dropped.
  const auto flush = [&]() {
    if (pending.empty()) return;
    std::vector<CohortTrainer::Cohort> cohorts;
    cohorts.reserve(pending.size());
    for (PendingCohort& cohort : pending) {
      cohorts.push_back({.ids = cohort.members,
                         .base = cohort.base,
                         .lr = cohort.lr,
                         .seq = cohort.seq,
                         .updates = &cohort.updates});
    }
    trainer_.train(*clients_, cohorts, seed, run.phases);
    metrics.flushes.add();
    metrics.flush_cohorts.record(static_cast<double>(pending.size()));
    for (PendingCohort& cohort : pending) {
      for (std::size_t i = 0; i < cohort.members.size(); ++i) {
        const auto it = flights.find(cohort.members[i]);
        if (it != flights.end() && it->second.seq == cohort.seq) {
          it->second.update = std::move(cohort.updates[i]);
          it->second.trained = true;
        }
      }
    }
    pending.clear();
  };

  const auto dispatch = [&](std::size_t tier) {
    DynRound& round = rounds[tier];
    round.active = false;
    run.parked[tier] = 0;
    if (out.result.rounds.size() >= async_.total_updates) return;
    const std::size_t version = out.result.rounds.size();

    // The tier's in-flight members are the flights whose *current* tier
    // is this one (a re-tiering can move a client mid-flight), in
    // ascending id order, so their ranks ascend too.
    std::vector<std::size_t> in_flight;
    for (const auto& [c, flight] : flights) {
      if (tier_of[c] == tier) in_flight.push_back(tier_sets[tier].rank(c));
    }
    const Candidates candidates(tier_sets[tier], in_flight);
    if (candidates.empty()) return;
    Selection selection = run.select(policy, tier, candidates, num_clients);
    if (selection.clients.empty()) return;
    for (std::size_t id : selection.clients) {
      if (tier_of[id] == kNoTier || flights.contains(id)) {
        throw std::logic_error(
            "AsyncEngine: policy selected a dead or busy client");
      }
    }
    const std::size_t count = selection.clients.size();

    round.active = true;
    round.awaiting = count;
    round.arrivals = 0;
    round.accum.assign(weight_count, 0.0);
    round.weight_total = 0.0;

    const std::uint64_t seq = run.dispatch_seq++;

    // One bulk insert for the whole cohort: same (time, seq) keys as the
    // per-client schedule_at calls this replaces, one heap rebuild.
    std::vector<sim::PendingEvent> cohort;
    cohort.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = selection.clients[i];
      const double latency =
          latency_model_.sample_latency(clients_->resource(c),
                                        clients_->train_size(c),
                                        config_.local.epochs,
                                        run.rounds.latency_rng[tier]) *
          latency_scale[c];
      flights[c] = Flight{.tier = tier,
                          .dispatch_time = queue.now(),
                          .dispatch_version = version,
                          .arrival = queue.now() + latency,
                          .seq = seq,
                          .trained = false,
                          .update = {}};
      cohort.push_back(sim::PendingEvent{
          .delay = latency,
          .kind = static_cast<std::uint64_t>(sim::EventKind::kClientUpdate),
          .actor = c});
    }
    queue.schedule_bulk(cohort);
    pending.push_back({.members = std::move(selection.clients),
                       .base = run.global,
                       .lr = run.rounds.tier_lr[tier],
                       .seq = seq,
                       .updates = {}});
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "async", "cohort",
                 static_cast<std::int64_t>(tier),
                 {obs::field("version", version),
                  obs::field("clients", count)});
    }
  };

  // A round whose last awaited member arrived or departed: decay the lr
  // (once per completed cohort, matching the static path's per-round
  // decay) and start the tier's next round.
  const auto complete_if_drained = [&](std::size_t tier) {
    if (rounds[tier].awaiting > 0) return;
    if (rounds[tier].arrivals > 0) {
      run.rounds.tier_lr[tier] *= config_.lr_decay_per_round;
      metrics.tier_rounds.add();
    }
    dispatch(tier);
  };

  // Arrival, a drop after the last retry and a mid-flight leave all end a
  // flight here: its cohort stops awaiting it.
  const auto end_flight = [&](std::map<std::size_t, Flight>::iterator it) {
    Flight flight = std::move(it->second);
    flights.erase(it);
    --rounds[flight.tier].awaiting;
    return flight;
  };

  // Lifecycle event source: exactly one churn event is scheduled at a
  // time (the queue's Event carries no payload, so the pending
  // LifecycleEvent rides alongside in `pending_churn`).
  sim::ChurnModel churn(async_.churn, seed);
  std::optional<sim::LifecycleEvent> pending_churn;
  const auto schedule_next_churn = [&]() {
    pending_churn = churn.next();
    if (pending_churn.has_value()) {
      queue.schedule_at(pending_churn->time,
                        static_cast<std::uint64_t>(pending_churn->kind),
                        /*actor=*/0);
    }
  };
  if (!resuming) {
    schedule_next_churn();
    if (async_.reprofile_every > 0.0) {
      queue.schedule_at(async_.reprofile_every,
                        static_cast<std::uint64_t>(sim::EventKind::kReProfile),
                        /*actor=*/0);
    }
  }

  // --- snapshot payload (dynamic path) ---------------------------------------
  // Between the shared head and tail: the evolved membership, the flights
  // (each with its trained update), the open rounds, and the churn and
  // re-tierer state.  The checkpoint writer and the resume path both run
  // this one declaration.  The deferred-cohort lists and the window end
  // that follow the rounds are kept for the layout: written empty (and
  // the window end as the batch time), since the loop flushes the pending
  // cohorts before it writes, and read for snapshots of older builds,
  // which could defer a cohort's training to the end of a virtual-time
  // window.  Only the reader fills `tier_lists`, `deferred` and
  // `cohort_of`, for the resume below.
  const SnapshotPrologue prologue{
      kSnapDynamic,
      config_fingerprint(config_, async_, seed, num_tiers, num_clients,
                         weight_count),
      num_tiers, num_clients, weight_count, policy.name()};
  std::vector<std::vector<std::size_t>> tier_lists(num_tiers);
  std::vector<PendingCohort> deferred;
  std::map<std::size_t, std::size_t> cohort_of;
  const auto io_payload = [&]<class Archive>(Archive& ar) {
    io_prologue(ar, prologue, "AsyncEngine");
    run.io_head(ar);
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if constexpr (Archive::reading) {
        ar.io(tier_lists[t]);
      } else {
        ar.io(tier_sets[t].to_vector());
      }
    }
    // Latency multipliers, sparse: (client, multiplier) for the clients a
    // slowdown touched.  The writer walks `c` to each of them in turn.
    std::size_t scaled = 0;
    for (double s : latency_scale) scaled += s != 1.0 ? 1 : 0;
    ar.io_count(scaled, 16);
    for (std::size_t i = 0, c = 0; i < scaled; ++i, ++c) {
      if constexpr (!Archive::reading) {
        while (latency_scale[c] == 1.0) ++c;
      }
      ar.io(c);
      check_snapshot(c < num_clients, "latency multiplier client");
      ar.io(latency_scale[c]);
    }
    io_map(ar, flights, 8, [&](Flight& flight) {
      ar.io(flight.tier);
      ar.io(flight.dispatch_time);
      ar.io(flight.dispatch_version);
      ar.io(flight.arrival);
      ar.io(flight.retries);
      ar.io(flight.trained);  // true when writing: flushed before the write
      if (flight.trained) io_update(ar, flight.update);
    });
    for (DynRound& round : rounds) {
      ar.io(round.active);
      ar.io(round.awaiting);
      ar.io(round.arrivals);
      ar.io(round.weight_total);
      ar.io(round.accum);
    }
    if constexpr (Archive::reading) {
      ar.io_size(deferred, 8);
      for (PendingCohort& cohort : deferred) {
        ar.io(cohort.members);
        ar.io(cohort.base);
        check_snapshot(cohort.base.size() == weight_count,
                       "deferred cohort model length");
        ar.io(cohort.lr);
        ar.io(cohort.seq);
        bool trained = false;
        ar.io(trained);
        if (trained) cohort.members.clear();
      }
      io_map(ar, cohort_of, 16, [&](std::size_t& index) {
        ar.io(index);
        check_snapshot(index < deferred.size(), "deferred cohort index");
      });
    } else {
      ar.io_count(0, 8);   // deferred cohorts
      ar.io_count(0, 16);  // member -> deferred cohort pairs
    }
    double window_end = queue.now();
    ar.io(window_end);
    for (char& parked : run.parked) io_as<bool>(ar, parked);
    ar.io(run.parked_at);
    io_state(ar, churn);
    bool churning = pending_churn.has_value();
    ar.io(churning);
    if (churning && !pending_churn.has_value()) pending_churn.emplace();
    if (churning) {
      ar.io(pending_churn->time);
      io_as<std::uint64_t>(ar, pending_churn->kind);
      ar.io(pending_churn->pick);
      ar.io(pending_churn->factor);
    }
    io_blob(ar, hooks_.save_state, hooks_.restore_state);
    ar.io(run.recorder.last_evaluated);
    ar.io(out.join_count);
    ar.io(out.leave_count);
    ar.io(out.slowdown_count);
    ar.io(out.reprofile_count);
    run.io_tail(ar, num_clients, policy);
  };

  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    io_payload(source);
    // Everything the event handlers index with, before any event runs.
    run.check_head(num_clients, weight_count);
    check_snapshot(!membership_fault(tier_lists, num_tiers, num_clients),
                   "tier member (in range, listed once)");
    set_tiers(tier_lists);
    tier_lists = {};  // the tier sets hold the membership now
    std::vector<std::size_t> flying(num_tiers, 0);
    for (const auto& [c, flight] : flights) {
      check_snapshot(c < num_clients && tier_of[c] != kNoTier,
                     "in-flight client (live clients only)");
      check_snapshot(flight.tier < num_tiers, "in-flight tier");
      ++flying[flight.tier];
    }
    // Each tier's open round awaits exactly the flights it dispatched,
    // and is active while it awaits any.  A count below that would wrap
    // at the next arrival; one above it would never drain.
    for (std::size_t t = 0; t < num_tiers; ++t) {
      check_snapshot(rounds[t].awaiting == flying[t],
                     "open round awaiting count");
      check_snapshot(rounds[t].active || rounds[t].awaiting == 0,
                     "open round active flag");
    }
    run.checkpointer.resume(queue.now());
    // An older build's deferred cohorts: each one's members that are
    // still flying under it train in one flush, after the payload
    // restored the metrics, so the training counts add to the restored
    // totals.  Older builds kept a member's pair until the window
    // flushed, so a pair whose client no longer flies is skipped.
    for (std::size_t index = 0; index < deferred.size(); ++index) {
      PendingCohort& cohort = deferred[index];
      std::erase_if(cohort.members, [&](std::size_t c) {
        const auto it = cohort_of.find(c);
        return !flights.contains(c) || it == cohort_of.end() ||
               it->second != index;
      });
      for (std::size_t c : cohort.members) flights[c].seq = cohort.seq;
      if (!cohort.members.empty()) pending.push_back(std::move(cohort));
    }
    flush();
    for (const auto& [c, flight] : flights) {
      check_snapshot(flight.update.weights.size() == weight_count &&
                         rounds[flight.tier].accum.size() == weight_count,
                     "in-flight update or round model length");
    }
    util::log_info("async-dyn: resumed from ", async_.resume_path,
                   " at version ", out.result.rounds.size(),
                   ", t=", queue.now());
  } else {
    std::vector<std::vector<std::size_t>> members = tier_members_;
    set_tiers(members);
  }
  for (std::size_t c = 0; c < num_clients; ++c) {
    if (tier_of[c] != kNoTier) {
      live_set.insert(c);
    } else {
      reserve(c);
    }
  }

  metrics.setup_ns.add(obs::wall_ns_count_since(run.setup_start));
  run.open_log(resuming);

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_sets[t].empty()) dispatch(t);
    }
  }

  const auto handle = [&](const sim::Event& event) {
    // Budget crossings must be caught on *any* event kind: the churn and
    // reprofile streams re-arm forever, so an update-starved run (e.g.
    // heavy leave rates) would otherwise spin on lifecycle events
    // arbitrarily far past the budget.  A client update crossing the
    // budget still falls through and is recorded before the post-record
    // check below stops the run.
    const auto kind = static_cast<sim::EventKind>(event.kind);
    if (kind != sim::EventKind::kClientUpdate && run.over_budget()) {
      return false;
    }
    switch (kind) {
      case sim::EventKind::kClientUpdate: {
        const std::size_t c = static_cast<std::size_t>(event.actor);
        const auto it = flights.find(c);
        // A leave or slowdown invalidated this arrival: the client either
        // departed or now lands at a different (rescheduled) time.
        if (it == flights.end() || event.time != it->second.arrival) {
          metrics.stale_events.add();
          break;
        }
        Flight& arriving = it->second;
        const Delivery delivery = run.deliver(event, arriving.retries);
        if (delivery == Delivery::kRetrying) {
          arriving.arrival = queue.now() + run.fault.backoff(arriving.retries);
          break;
        }
        // A dropped update is gone for good.  The client stays live and
        // eligible for its tier's next cohort.
        if (delivery == Delivery::kDropped) {
          complete_if_drained(end_flight(it).tier);
          break;
        }
        if (!it->second.trained) flush();
        const Flight flight = end_flight(it);
        const std::size_t tier = flight.tier;
        DynRound& round = rounds[tier];
        ++round.arrivals;

        const std::size_t version = out.result.rounds.size();
        const std::size_t age = version - flight.dispatch_version;
        const double observed = queue.now() - flight.dispatch_time;
        if (hooks_.observe) hooks_.observe(c, observed);

        obs::ScopedPhase agg_phase(&run.phases, obs::Phase::kAggregate);
        // Fold this client into the tier's running FedAvg, discounted by
        // the update's *own* staleness (constant/invfreq leave the
        // factor at 1 and weigh by update counts instead).
        const LocalUpdate& update = flight.update;
        const double w =
            static_cast<double>(update.num_samples) *
            staleness_factor(async_.staleness, async_.poly_alpha, age);
        if (w > 0.0) {
          for (std::size_t i = 0; i < weight_count; ++i) {
            round.accum[i] += w * static_cast<double>(update.weights[i]);
          }
          round.weight_total += w;
        }
        if (round.weight_total > 0.0) {
          for (std::size_t i = 0; i < weight_count; ++i) {
            run.tier_models[tier][i] = static_cast<float>(
                round.accum[i] / round.weight_total);
          }
        }

        run.rounds.staleness_sum[tier] += static_cast<double>(age);
        run.submit(tier, version, age);
        agg_phase.stop();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "async", "update",
                     static_cast<std::int64_t>(c),
                     {obs::field("version", version),
                      obs::field("tier", tier),
                      obs::field("staleness", age)});
        }

        run.recorder.record({.virtual_time = queue.now(),
                             .round_latency = observed,
                             .train_loss = update.train_loss,
                             .selected_tier = static_cast<int>(tier),
                             .selected_clients = {c}},
                            run.global, static_cast<std::int64_t>(tier),
                            &policy, age);

        if (version + 1 >= async_.total_updates || run.over_budget()) {
          return false;
        }

        complete_if_drained(tier);
        // A re-tiering may have parked this client's new tier with no
        // eligible members while it was in flight; revive it now.
        if (!rounds[tier_of[c]].active) dispatch(tier_of[c]);
        run.retry_parked([&](std::size_t t) { return !rounds[t].active; },
                         dispatch);
        break;
      }

      case sim::EventKind::kClientLeave: {
        const sim::LifecycleEvent churn_event = *pending_churn;
        schedule_next_churn();
        if (live_set.empty()) break;
        const std::size_t c =
            live_set.kth(churn_event.pick % live_set.size());
        const auto flight = flights.find(c);
        const bool flying = flight != flights.end();
        ++out.leave_count;
        metrics.leaves.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "churn", "leave",
                     static_cast<std::int64_t>(c),
                     {obs::field("in_flight",
                                 static_cast<std::int64_t>(flying))});
        }
        live_set.erase(c);
        reserve(c);
        tier_sets[tier_of[c]].erase(c);
        tier_of[c] = kNoTier;
        if (hooks_.left) hooks_.left(c);
        policy.on_leave(c);
        // Mid-round departure: its pending update is lost; the cohort
        // no longer waits for it.
        if (flying) complete_if_drained(end_flight(flight).tier);
        break;
      }

      case sim::EventKind::kClientJoin: {
        const sim::LifecycleEvent churn_event = *pending_churn;
        schedule_next_churn();
        if (inactive_set.empty()) break;  // nobody waiting to (re)join
        const std::size_t c =
            inactive_set.kth(churn_event.pick % inactive_set.size());
        ++out.join_count;
        inactive_set.erase(c);
        live_set.insert(c);
        const std::size_t tier = hooks_.joined
                                     ? hooks_.joined(c, expected_latency(c))
                                     : place_fallback(c);
        if (tier >= num_tiers) {
          throw std::runtime_error(
              "AsyncEngine: joined hook returned tier out of range");
        }
        tier_sets[tier].insert(c);
        tier_of[c] = tier;
        metrics.joins.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "churn", "join",
                     static_cast<std::int64_t>(c),
                     {obs::field("tier", tier)});
        }
        policy.on_join(c, tier);
        if (!rounds[tier].active) dispatch(tier);
        break;
      }

      case sim::EventKind::kClientSlowdown: {
        const sim::LifecycleEvent churn_event = *pending_churn;
        schedule_next_churn();
        if (live_set.empty()) break;
        const std::size_t c =
            live_set.kth(churn_event.pick % live_set.size());
        ++out.slowdown_count;
        // The event *sets* the multiplier relative to the client's
        // profiled baseline rather than compounding it: compounded
        // multipliers (mean ~2x) drift exponentially, and an in-flight
        // client hit repeatedly would see its arrival recede faster than
        // virtual time advances — a round that never completes.
        const double previous = latency_scale[c];
        latency_scale[c] = churn_event.factor;
        metrics.slowdowns.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "churn", "slowdown",
                     static_cast<std::int64_t>(c),
                     {obs::field("factor", churn_event.factor)});
        }
        if (const auto it = flights.find(c); it != flights.end()) {
          // Mid-round straggler: the remaining flight time rescales from
          // the old multiplier to the new one; the stale arrival event is
          // left in the queue and ignored by the time check above.
          Flight& flight = it->second;
          const double remaining = flight.arrival - queue.now();
          flight.arrival =
              queue.now() + remaining * (churn_event.factor / previous);
          queue.schedule_at(flight.arrival,
                            static_cast<std::uint64_t>(
                                sim::EventKind::kClientUpdate),
                            c);
        }
        break;
      }

      case sim::EventKind::kReProfile: {
        queue.schedule_at(queue.now() + async_.reprofile_every,
                          static_cast<std::uint64_t>(
                              sim::EventKind::kReProfile),
                          /*actor=*/0);
        if (live_set.empty()) break;  // nobody to tier until a join lands
        ++out.reprofile_count;
        metrics.reprofiles.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "churn", "reprofile", /*actor=*/0,
                     {obs::field("live",
                                 static_cast<std::int64_t>(
                                     live_set.size()))});
        }
        std::vector<std::vector<std::size_t>> members = hooks_.retier();
        if (const char* wrong = membership_fault(
                members, num_tiers, num_clients,
                [&](std::size_t id) { return tier_of[id] != kNoTier; },
                live_set.size())) {
          throw std::runtime_error(
              std::string("AsyncEngine: retier hook returned ") + wrong);
        }
        set_tiers(members);
        policy.on_retier(members);
        // Pending cohorts keep running under their dispatching tier; the
        // migrated membership only shapes future sampling.  Tiers that
        // gained their first members start their cadence now.
        for (std::size_t t = 0; t < num_tiers; ++t) {
          if (!rounds[t].active && !tier_sets[t].empty()) dispatch(t);
        }
        break;
      }

      default:
        throw std::logic_error("AsyncEngine: unexpected event kind");
    }

    // Training can die out entirely (every client left mid-run).  Churn
    // streams never end, so stop unless a join could revive the run.
    if (flights.empty() && async_.churn.join_rate <= 0.0) {
      bool any_active = false;
      for (const DynRound& round : rounds) any_active |= round.active;
      if (!any_active) {
        util::log_info("async-dyn: population died out after ",
                       out.result.rounds.size(), " updates");
        return false;
      }
    }
    return true;
  };
  // The writer stores every flight trained.
  const auto end_batch = [&] {
    if (run.checkpointer.due(queue.now())) flush();
    return true;
  };
  run_batches(queue, run.checkpointer, run.fault, &run.event_log, metrics,
              out, io_payload, handle, end_batch);
  // However the loop ended, every dispatched pair trains: the pool's
  // lease count is the run's count of trained updates.
  flush();
  return run.finish(*clients_, [&](AsyncRunResult& result) {
    for (const util::SegmentedIdSet& members : tier_sets) {
      result.final_members.push_back(members.to_vector());
    }
    result.final_live_clients = live_set.size();
  });
}

}  // namespace tifl::fl
