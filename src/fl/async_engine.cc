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

namespace {

// Per-tier server state both run paths keep (FedAT keeps one model per
// tier).  Both fork the same selection and latency streams, so a
// zero-churn dynamic configuration consumes the exact streams of a
// static run; tier 0 reuses the sync engine's fork tags (0xF01, 0xF02),
// so a single-tier async run consumes those of a sync VanillaPolicy run.
struct ServerState {
  ServerState(std::uint64_t seed, std::size_t num_tiers,
              std::vector<float> initial, double lr)
      : global(std::move(initial)),
        tier_models(num_tiers, global),
        tier_updates(num_tiers, 0),
        last_submit_version(num_tiers, 0),
        tier_lr(num_tiers, lr),
        staleness_sum(num_tiers, 0.0),
        parked(num_tiers, 0),
        parked_at(num_tiers, 0) {
    util::Rng root(seed);
    for (std::size_t t = 0; t < num_tiers; ++t) {
      selection_rng.push_back(
          root.fork(t == 0 ? 0xF01 : util::mix_seed(0xA51C, t)));
      latency_rng.push_back(
          root.fork(t == 0 ? 0xF02 : util::mix_seed(0xA51D, t)));
    }
  }

  std::vector<util::Rng> selection_rng;
  std::vector<util::Rng> latency_rng;
  std::vector<float> global;
  std::vector<std::vector<float>> tier_models;
  std::vector<std::size_t> tier_updates;
  std::vector<std::size_t> last_submit_version;
  // Iterated per-tier lr decay (multiplicative, like the sync engine, so
  // a single-tier run reproduces the sync lr sequence bit for bit).
  std::vector<double> tier_lr;
  std::vector<double> staleness_sum;
  std::vector<double> current_weights;  // cross-tier weights in effect
  std::size_t dispatch_seq = 0;         // event-order dispatch counter
  // Tiers whose last selection came back empty, retried once per *later*
  // version (`parked_at` blocks a same-version re-ask).  The default
  // uniform policy never parks.
  std::vector<char> parked;
  std::vector<std::size_t> parked_at;
  std::vector<double> accum;  // aggregate_global scratch
};

// End-of-run accounting shared by both run paths (final_members and
// final_live_clients stay path-specific).
void finalize_result(AsyncRunResult& out, ServerState& server,
                     const obs::PhaseTimer& phases) {
  const std::size_t num_tiers = server.tier_updates.size();
  out.final_weights = std::move(server.global);
  out.tier_updates = server.tier_updates;
  out.mean_staleness.assign(num_tiers, 0.0);
  for (std::size_t t = 0; t < num_tiers; ++t) {
    if (server.tier_updates[t] > 0) {
      out.mean_staleness[t] = server.staleness_sum[t] /
                              static_cast<double>(server.tier_updates[t]);
    }
  }
  out.final_tier_weights = std::move(server.current_weights);
  if (out.final_tier_weights.empty()) {
    out.final_tier_weights.assign(num_tiers, 0.0);
  }
  out.result.phases = phases.stats();
}

}  // namespace

// Recompute the global model as the staleness-weighted cross-tier average
// (double-precision reduction in tier order, shared by both run paths and
// the fl/hier aggregator tree).  `accum` is caller-owned scratch, hoisted
// out of the event loops: the dynamic path aggregates once per client
// update.
void aggregate_global(const std::vector<std::vector<float>>& tier_models,
                      const std::vector<double>& weights,
                      std::vector<float>& global, std::vector<double>& accum) {
  const std::size_t weight_count = global.size();
  accum.assign(weight_count, 0.0);
  for (std::size_t t = 0; t < tier_models.size(); ++t) {
    if (weights[t] == 0.0) continue;
    const double w = weights[t];
    const std::vector<float>& model = tier_models[t];
    for (std::size_t i = 0; i < weight_count; ++i) {
      accum[i] += w * static_cast<double>(model[i]);
    }
  }
  for (std::size_t i = 0; i < weight_count; ++i) {
    global[i] = static_cast<float>(accum[i]);
  }
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
  aggregate_global(models, weights, global, accum);
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
  // The fault model's lost-then-retried vs permanently-dropped updates.
  obs::Counter& lost_updates;
  obs::Counter& dropped_updates;
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
      reg.counter("fault.lost_updates"),
      reg.counter("fault.dropped_updates"),
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
  std::uint64_t h = util::mix_seed(0xD0C5, seed);
  h = util::mix_seed(h, static_cast<std::uint64_t>(async.staleness),
                     f(async.poly_alpha));
  h = util::mix_seed(h, async.total_updates, async.clients_per_tier_round);
  h = util::mix_seed(h, f(async.time_budget_seconds), async.eval_every);
  h = util::mix_seed(h, f(async.churn.join_rate), f(async.churn.leave_rate));
  h = util::mix_seed(h, f(async.churn.slowdown_rate),
                     f(async.churn.slowdown_log_mu));
  h = util::mix_seed(h, f(async.churn.slowdown_log_sigma), async.churn.seed);
  h = util::mix_seed(h, f(async.reprofile_every),
                     async.dynamic_lifecycle ? 1 : 0);
  h = util::mix_seed(h, f(async.fault.loss_prob), async.fault.max_retries);
  h = util::mix_seed(h, f(async.fault.backoff_base),
                     f(async.fault.backoff_factor));
  h = util::mix_seed(h, f(async.fault.backoff_max), async.fault.seed);
  h = util::mix_seed(h, config.local.epochs, config.local.batch_size);
  h = util::mix_seed(h, f(config.local.optimizer.lr),
                     f(config.lr_decay_per_round));
  h = util::mix_seed(h, static_cast<std::uint64_t>(config.local.optimizer.kind),
                     kEvalChunk);
  h = util::mix_seed(h, f(config.local.dp_clip_norm),
                     f(config.local.dp_noise_sigma));
  h = util::mix_seed(h, num_tiers, num_clients);
  h = util::mix_seed(h, weight_count);
  return h;
}

// Opens (or, on resume, truncates to the snapshot's processed-event
// horizon) the append-only event log.  A fresh run clobbers any stale log
// under the same name, mirroring how metrics/trace outputs behave.
void open_event_log(sim::EventLogWriter& log, const std::string& path,
                    bool resuming, std::uint64_t processed_events) {
  if (path.empty()) return;
  if (resuming) {
    log.truncate_to(path, processed_events);
  } else {
    std::remove(path.c_str());
    log.open(path);
  }
}

// Payload head both loops declare after the prologue: stream positions,
// the per-tier server state, the records, the dispatch counter.
void io_head(auto& ar, auto& server, auto& records) {
  for (std::size_t t = 0; t < server.tier_models.size(); ++t) {
    io_rng(ar, server.selection_rng[t]);
    io_rng(ar, server.latency_rng[t]);
  }
  ar.io(server.global);
  for (auto& model : server.tier_models) ar.io(model);
  ar.io(server.tier_updates);
  ar.io(server.last_submit_version);
  ar.io(server.tier_lr);
  ar.io(server.staleness_sum);
  io_records(ar, records);
  ar.io(server.current_weights);  // empty before a fold
  ar.io(server.dispatch_seq);
}

// A CRC-valid payload can still hold a value this run cannot index with:
// throws std::runtime_error naming the field unless `ok`.
void check_snapshot(bool ok, const char* field) {
  if (!ok) throw std::runtime_error(std::string("AsyncEngine: snapshot ") +
                                    field + " is out of range");
}

// The checks of a restored head, for a run of `weight_count` weights.
void check_head(const ServerState& server, std::size_t weight_count) {
  const std::size_t num_tiers = server.tier_models.size();
  check_snapshot(server.global.size() == weight_count, "global model length");
  for (const std::vector<float>& model : server.tier_models) {
    check_snapshot(model.size() == weight_count, "tier model length");
  }
  check_snapshot(server.tier_updates.size() == num_tiers &&
                     server.last_submit_version.size() == num_tiers &&
                     server.tier_lr.size() == num_tiers &&
                     server.staleness_sum.size() == num_tiers &&
                     (server.current_weights.empty() ||
                      server.current_weights.size() == num_tiers),
                 "per-tier vector (tier_updates, last_submit_version, "
                 "tier_lr, staleness_sum or current_weights) length");
}

// Payload tail both loops declare last: event accounting, the checkpoint
// due point (stored for the record only: a resumed run re-arms from its
// own cadence), the queue, fault and policy state, the metrics.
void io_tail(auto& ar, auto& out, double due, auto& queue, std::size_t actors,
             auto& fault, auto& policy) {
  ar.io(out.processed_events);
  ar.io(out.max_event_batch);
  ar.io(due);
  io_queue(ar, queue, actors);
  io_state(ar, fault);
  io_state(ar, policy);
  io_metrics(ar);
}

// Asks `policy` for tier `tier`'s cohort at `version`, drawn from
// `candidates`; an empty answer parks the tier.  Throws std::logic_error
// on an id at or past `population` or a repeated one.
Selection select_cohort(SelectionPolicy& policy, ServerState& server,
                        obs::PhaseTimer& phases, std::size_t tier,
                        std::size_t version, double now,
                        const Candidates& candidates,
                        std::size_t population) {
  SelectionContext context;
  context.round = version;
  context.tier = static_cast<int>(tier);
  context.candidates = candidates;
  context.rng = &server.selection_rng[tier];
  Selection selection;
  {
    obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
    selection = policy.select(context);
  }
  if (selection.clients.empty()) {
    server.parked[tier] = 1;
    server.parked_at[tier] = version;
    async_metrics().parks.add();
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(now, "async", "park", static_cast<std::int64_t>(tier),
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

}  // namespace

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
      {async.poly_alpha < 0.0, "negative poly_alpha"},
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

void AsyncEngine::validate() const {
  validate_async_config(async_, clients_, test_, "AsyncEngine");
  bool any_members = false;
  for (const std::vector<std::size_t>& members : tier_members_) {
    any_members = any_members || !members.empty();
    for (std::size_t id : members) {
      if (id >= clients_->size()) {
        throw std::invalid_argument("AsyncEngine: tier member out of range");
      }
    }
  }
  if (!any_members) {
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

Evaluation AsyncEngine::evaluate(std::span<const float> weights) {
  return trainer_.evaluate(weights, *test_, kEvalChunk, tier_eval_indices_);
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
  AsyncMetrics& metrics = async_metrics();
  const auto setup_start = obs::wall_now();
  obs::PhaseTimer phases;

  ServerState server(seed, num_tiers, factory_(seed).weights(),
                     config_.local.optimizer.lr);
  std::vector<float>& global = server.global;
  std::vector<PendingTierRound> pending(num_tiers);

  // Tier-round completions are the only scheduled events here, so tiers
  // are the actor space.
  sim::EventQueue queue;
  AsyncRunResult out;
  out.result.policy_name =
      policy_ != nullptr
          ? "async/" + policy.name() + "/" + staleness_name(async_.staleness)
          : "async/" + staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);
  VersionRecorder recorder{
      &out.result.rounds, async_.eval_every, async_.total_updates, "async",
      [this](std::span<const float> w) { return evaluate(w); }, &phases};

  std::size_t scheduled = 0;      // dispatched tier rounds (in flight + done)

  // --- durability state ------------------------------------------------------
  sim::FaultModel fault(async_.fault, seed);
  // Redelivery attempts for the tier's lost completion (the static path's
  // unit of delivery is the whole tier round).
  std::vector<std::size_t> retry_count(num_tiers, 0);
  sim::EventLogWriter event_log;
  Checkpointer checkpointer(async_.checkpoint_every, async_.checkpoint_path,
                            &event_log);
  bool budget_exhausted = false;

  const auto dispatch = [&](std::size_t tier) {
    server.parked[tier] = 0;
    const std::size_t version = out.result.rounds.size();
    Selection selection = select_cohort(
        policy, server, phases, tier, version, queue.now(),
        Candidates(tier_members_[tier]), clients_->size());
    if (selection.clients.empty()) return;
    const std::size_t count = selection.clients.size();

    PendingTierRound& round = pending[tier];
    round.selected = std::move(selection.clients);
    round.dispatch_version = version;

    trainer_.train(*clients_, round.selected, global, server.tier_lr[tier],
                   seed, server.dispatch_seq, round.updates, phases);
    ++server.dispatch_seq;

    // A tier round is internally synchronous: it completes when its
    // slowest sampled member responds.  Latency needs only pool-level
    // state (profile + shard size), never a materialized client.
    round.latency = 0.0;
    for (std::size_t id : round.selected) {
      round.latency = std::max(
          round.latency,
          latency_model_.sample_latency(clients_->resource(id),
                                        clients_->train_size(id),
                                        config_.local.epochs,
                                        server.latency_rng[tier]));
    }
    queue.schedule(round.latency, /*kind=*/0, /*actor=*/tier);
    ++scheduled;
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), round.latency, "async", "tier_round",
              static_cast<std::int64_t>(tier),
              {obs::field("version", version), obs::field("clients", count)});
    }
  };

  metrics.setup_ns.add(obs::wall_ns_count_since(setup_start));

  // --- snapshot payload (static path) ----------------------------------------
  // Between the shared head and tail: the cadence counters and the
  // in-flight rounds (trained at dispatch, so their updates travel with
  // the snapshot).  The checkpoint writer and the resume path both run
  // this one declaration.
  const std::size_t weight_count = global.size();
  const SnapshotPrologue prologue{
      kSnapStatic,
      config_fingerprint(config_, async_, seed, num_tiers, clients_->size(),
                         weight_count),
      num_tiers, clients_->size(), weight_count, policy.name()};
  const auto io_payload = [&](auto& ar) {
    io_prologue(ar, prologue, "AsyncEngine");
    io_head(ar, server, out.result.rounds);
    ar.io(scheduled);
    for (char& parked : server.parked) io_as<bool>(ar, parked);
    ar.io(server.parked_at);
    ar.io(retry_count);
    for (PendingTierRound& round : pending) io_pending(ar, round);
    ar.io(recorder.last_evaluated);
    io_tail(ar, out, checkpointer.next_due(), queue, num_tiers, fault,
            policy);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    io_payload(source);
    // Everything the event handlers index with or fold, before any event
    // runs.
    check_head(server, weight_count);
    check_snapshot(server.parked_at.size() == num_tiers &&
                       retry_count.size() == num_tiers,
                   "parked_at or retry_count length");
    for (const PendingTierRound& round : pending) {
      for (std::size_t id : round.selected) {
        check_snapshot(id < clients_->size(), "pending member");
      }
      for (const LocalUpdate& update : round.updates) {
        check_snapshot(update.weights.size() == weight_count,
                       "pending update length");
      }
    }
    for (const sim::Event& event : queue.pending()) {
      check_snapshot(!pending[event.actor].updates.empty(),
                     "tier event (a round with updates)");
    }
    checkpointer.resume(queue.now());
    util::log_info("async: resumed from ", async_.resume_path, " at version ",
                   out.result.rounds.size(), ", t=", queue.now());
  }

  open_event_log(event_log, async_.event_log_path, resuming,
                 out.processed_events);

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_members_[t].empty() && scheduled < async_.total_updates) {
        dispatch(t);
      }
    }
  }

  std::vector<sim::Event> batch;  // reused across pop_batch calls
  while (!queue.empty() && !budget_exhausted) {
    checkpointer.crash_if_due(fault.crash_at(), queue.peek().time);
    // Drain simultaneous completions in one heap pass.  Events scheduled
    // by the handlers below land at strictly later (time, seq) keys, so
    // per-event handling in batch order replays the one-pop-at-a-time
    // sequence byte for byte (see EventQueue::pop_batch).
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      if (event_log.is_open()) event_log.append(event);
      const std::size_t tier = static_cast<std::size_t>(event.actor);
      if (fault.active()) {
        if (fault.lose_update()) {
          metrics.lost_updates.add();
          if (retry_count[tier] < async_.fault.max_retries) {
            // Lost in transit: park the round and retry the delivery after
            // a deterministic backoff (no RNG draw — the rescheduled event
            // flows through the queue in (time, seq) order).
            ++retry_count[tier];
            queue.schedule(fault.backoff(retry_count[tier]), /*kind=*/0,
                           /*actor=*/tier);
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "fault", "lost",
                         static_cast<std::int64_t>(tier),
                         {obs::field("attempt", retry_count[tier])});
            }
            continue;
          }
          // Retries exhausted: the round's updates are gone for good (the
          // timeout case).  Un-count the dispatch and restart the tier so
          // the run still converges to total_updates versions.
          metrics.dropped_updates.add();
          retry_count[tier] = 0;
          --scheduled;
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "fault", "dropped",
                       static_cast<std::int64_t>(tier),
                       {obs::field("retries", async_.fault.max_retries)});
          }
          if (scheduled < async_.total_updates) dispatch(tier);
          continue;
        }
        retry_count[tier] = 0;
      }
      PendingTierRound& round = pending[tier];

      obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
      // --- tier-level FedAvg, then the staleness-weighted cross-tier
      // aggregation ------------------------------------------------------
      double train_loss = 0.0;
      server.tier_models[tier] = fold_round(round, &train_loss);

      const std::size_t version = out.result.rounds.size();
      const std::size_t staleness = version - round.dispatch_version;
      server.staleness_sum[tier] += static_cast<double>(staleness);
      ++server.tier_updates[tier];
      server.last_submit_version[tier] = version;
      server.tier_lr[tier] *= config_.lr_decay_per_round;
      metrics.tier_rounds.add();
      metrics.staleness.record(static_cast<double>(staleness));

      server.current_weights = aggregate_slots(
          async_.staleness, async_.poly_alpha, server.tier_updates,
          server.last_submit_version, version, server.tier_models, global,
          server.accum);
      agg_phase.stop();
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(queue.now(), "async", "aggregate",
                   static_cast<std::int64_t>(tier),
                   {obs::field("version", version),
                    obs::field("staleness", staleness),
                    obs::field("weight", server.current_weights[tier])});
      }

      recorder.record({.virtual_time = queue.now(),
                       .round_latency = round.latency,
                       .train_loss = train_loss,
                       .selected_tier = static_cast<int>(tier),
                       .selected_clients = round.selected},
                      global, static_cast<std::int64_t>(tier), &policy,
                      staleness);

      if (version % 50 == 0) {
        util::log_debug("async v", version, " tier=", tier,
                        " acc=", out.result.rounds.back().global_accuracy,
                        " t=", queue.now());
      }

      if (async_.time_budget_seconds > 0.0 &&
          queue.now() >= async_.time_budget_seconds) {
        util::log_info("async time budget of ", async_.time_budget_seconds,
                       "s exhausted after ", version + 1, " updates");
        budget_exhausted = true;
        break;
      }
      // Total dispatches are capped at total_updates, so draining the queue
      // records exactly that many versions (fewer on a time-budget break).
      if (scheduled < async_.total_updates) dispatch(tier);
      // Policy-parked tiers get another chance at the new global version
      // (skipping any tier parked at this very version just above).
      for (std::size_t t = 0; t < num_tiers; ++t) {
        if (server.parked[t] &&
            server.parked_at[t] < out.result.rounds.size() &&
            scheduled < async_.total_updates) {
          metrics.park_retries.add();
          dispatch(t);
        }
      }
    }
    if (!budget_exhausted) {
      checkpointer.write_if_due(queue.now(), out.result.rounds.size(),
                                out.processed_events, io_payload);
    }
  }

  recorder.finish(global, recorder.last_tier());
  clients_->check_leases_returned("AsyncEngine");

  const auto finalize_start = obs::wall_now();
  out.final_members = tier_members_;
  for (const std::vector<std::size_t>& members : tier_members_) {
    out.final_live_clients += members.size();
  }
  finalize_result(out, server, phases);
  metrics.finalize_ns.add(obs::wall_ns_count_since(finalize_start));
  return out;
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
  AsyncMetrics& metrics = async_metrics();
  const auto setup_start = obs::wall_now();
  obs::PhaseTimer phases;
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
  // not perturb selection or latency sequences.
  ServerState server(seed, num_tiers, factory_(seed).weights(),
                     config_.local.optimizer.lr);
  std::vector<float>& global = server.global;
  const std::size_t weight_count = global.size();

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

  // Clients are the actor space (lifecycle/reprofile events ride on
  // actor 0).
  sim::EventQueue queue;
  AsyncRunResult out;
  out.result.policy_name =
      policy_ != nullptr ? "async-dyn/" + policy.name() + "/" +
                               staleness_name(async_.staleness)
                         : "async-dyn/" + staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);
  VersionRecorder recorder{
      &out.result.rounds, async_.eval_every, async_.total_updates, "async",
      [this](std::span<const float> w) { return evaluate(w); }, &phases};

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

  // --- durability state ------------------------------------------------------
  sim::FaultModel fault(async_.fault, seed);
  sim::EventLogWriter event_log;
  Checkpointer checkpointer(async_.checkpoint_every, async_.checkpoint_path,
                            &event_log);
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
    trainer_.train(*clients_, cohorts, seed, phases);
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
    server.parked[tier] = 0;
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
    Selection selection =
        select_cohort(policy, server, phases, tier, version, queue.now(),
                      candidates, num_clients);
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

    const std::uint64_t seq = server.dispatch_seq++;

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
                                        server.latency_rng[tier]) *
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
                       .base = global,
                       .lr = server.tier_lr[tier],
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
      server.tier_lr[tier] *= config_.lr_decay_per_round;
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

  bool stopped = false;

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
    io_head(ar, server, out.result.rounds);
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
    for (char& parked : server.parked) io_as<bool>(ar, parked);
    ar.io(server.parked_at);
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
    ar.io(recorder.last_evaluated);
    ar.io(out.join_count);
    ar.io(out.leave_count);
    ar.io(out.slowdown_count);
    ar.io(out.reprofile_count);
    io_tail(ar, out, checkpointer.next_due(), queue, num_clients, fault,
            policy);
  };

  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    io_payload(source);
    // Everything the event handlers index with, before any event runs.
    check_head(server, weight_count);
    check_snapshot(server.parked_at.size() == num_tiers, "parked_at length");
    for (std::size_t t = 0; t < num_tiers; ++t) {
      for (std::size_t id : tier_lists[t]) {
        check_snapshot(id < num_clients && tier_of[id] == kNoTier,
                       "tier member (in range, listed once)");
        tier_of[id] = t;
      }
    }
    set_tiers(tier_lists);
    tier_lists = {};  // the tier sets hold the membership now
    for (const auto& [c, flight] : flights) {
      check_snapshot(c < num_clients && tier_of[c] != kNoTier,
                     "in-flight client (live clients only)");
      check_snapshot(flight.tier < num_tiers, "in-flight tier");
    }
    checkpointer.resume(queue.now());
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

  metrics.setup_ns.add(obs::wall_ns_count_since(setup_start));

  open_event_log(event_log, async_.event_log_path, resuming,
                 out.processed_events);

  if (!resuming) {
    for (std::size_t t = 0; t < num_tiers; ++t) {
      if (!tier_sets[t].empty()) dispatch(t);
    }
  }

  std::vector<sim::Event> batch;  // reused across pop_batch calls
  while (!queue.empty() && !stopped) {
    // Injected server crash: fires strictly between batches, so the last
    // checkpoint is a consistent prefix.
    checkpointer.crash_if_due(fault.crash_at(), queue.peek().time);
    // Same-timestamp batch drain as the static loop: in-batch order is
    // the exact (time, seq) pop order, and anything the handlers schedule
    // sorts after the whole batch, so the replay sequence is unchanged.
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      if (event_log.is_open()) event_log.append(event);
      // Budget crossings must be caught on *any* event kind: the churn and
      // reprofile streams re-arm forever, so an update-starved run (e.g.
      // heavy leave rates) would otherwise spin on lifecycle events
      // arbitrarily far past the budget.  A client update crossing the
      // budget still falls through and is recorded before the post-record
      // check below stops the run.
      if (async_.time_budget_seconds > 0.0 &&
          queue.now() >= async_.time_budget_seconds &&
          static_cast<sim::EventKind>(event.kind) !=
              sim::EventKind::kClientUpdate) {
        util::log_info("async time budget of ", async_.time_budget_seconds,
                       "s exhausted after ", out.result.rounds.size(),
                       " updates");
        stopped = true;
        break;
      }
      switch (static_cast<sim::EventKind>(event.kind)) {
        case sim::EventKind::kClientUpdate: {
          const std::size_t c = static_cast<std::size_t>(event.actor);
          const auto it = flights.find(c);
          // A leave or slowdown invalidated this arrival: the client either
          // departed or now lands at a different (rescheduled) time.
          if (it == flights.end() || event.time != it->second.arrival) {
            metrics.stale_events.add();
            break;
          }
          // Injected network loss: one Bernoulli draw per delivery attempt,
          // in pop order.
          if (fault.active() && fault.lose_update()) {
            metrics.lost_updates.add();
            Flight& lost = it->second;
            if (lost.retries < async_.fault.max_retries) {
              ++lost.retries;
              lost.arrival = queue.now() + fault.backoff(lost.retries);
              queue.schedule_at(
                  lost.arrival,
                  static_cast<std::uint64_t>(sim::EventKind::kClientUpdate),
                  event.actor);
              if (obs::Tracer* t = obs::tracer()) {
                t->instant(queue.now(), "fault", "lost",
                           static_cast<std::int64_t>(c),
                           {obs::field("attempt", lost.retries)});
              }
              break;
            }
            // Retries exhausted: the update is gone for good.  The client
            // stays live and eligible for its tier's next cohort.
            metrics.dropped_updates.add();
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "fault", "dropped",
                         static_cast<std::int64_t>(c),
                         {obs::field("retries", lost.retries)});
            }
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

          obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
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
              server.tier_models[tier][i] = static_cast<float>(
                  round.accum[i] / round.weight_total);
            }
          }

          server.staleness_sum[tier] += static_cast<double>(age);
          ++server.tier_updates[tier];
          server.last_submit_version[tier] = version;
          server.current_weights = aggregate_slots(
              async_.staleness, async_.poly_alpha, server.tier_updates,
              server.last_submit_version, version, server.tier_models, global,
              server.accum);
          agg_phase.stop();
          metrics.staleness.record(static_cast<double>(age));
          if (obs::Tracer* t = obs::tracer()) {
            t->instant(queue.now(), "async", "update",
                       static_cast<std::int64_t>(c),
                       {obs::field("version", version),
                        obs::field("tier", tier),
                        obs::field("staleness", age)});
          }

          recorder.record({.virtual_time = queue.now(),
                           .round_latency = observed,
                           .train_loss = update.train_loss,
                           .selected_tier = static_cast<int>(tier),
                           .selected_clients = {c}},
                          global, static_cast<std::int64_t>(tier), &policy,
                          age);

          if (version + 1 >= async_.total_updates) {
            stopped = true;
            break;
          }
          if (async_.time_budget_seconds > 0.0 &&
              queue.now() >= async_.time_budget_seconds) {
            util::log_info("async time budget of ", async_.time_budget_seconds,
                           "s exhausted after ", version + 1, " updates");
            stopped = true;
            break;
          }

          complete_if_drained(tier);
          // A re-tiering may have parked this client's new tier with no
          // eligible members while it was in flight; revive it now.
          if (!rounds[tier_of[c]].active) dispatch(tier_of[c]);
          // Policy-parked tiers get another chance at the new version
          // (skipping any tier parked at this very version just above).
          for (std::size_t t = 0; t < num_tiers; ++t) {
            if (server.parked[t] &&
                server.parked_at[t] < out.result.rounds.size() &&
                !rounds[t].active) {
              metrics.park_retries.add();
              dispatch(t);
            }
          }
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
          if (members.size() != num_tiers) {
            throw std::runtime_error(
                "AsyncEngine: retier hook returned wrong tier count");
          }
          std::vector<char> seen(num_clients, 0);
          std::size_t total = 0;
          for (const std::vector<std::size_t>& tier : members) {
            for (std::size_t id : tier) {
              if (id >= num_clients || tier_of[id] == kNoTier || seen[id]) {
                throw std::runtime_error(
                    "AsyncEngine: retier hook returned invalid membership");
              }
              seen[id] = 1;
              ++total;
            }
          }
          if (total != live_set.size()) {
            throw std::runtime_error(
                "AsyncEngine: retier hook dropped live clients");
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
      if (stopped) break;

      // Training can die out entirely (every client left mid-run).  Churn
      // streams never end, so stop unless a join could revive the run.
      if (flights.empty() && async_.churn.join_rate <= 0.0) {
        bool any_active = false;
        for (const DynRound& round : rounds) any_active |= round.active;
        if (!any_active) {
          util::log_info("async-dyn: population died out after ",
                         out.result.rounds.size(), " updates");
          stopped = true;
          break;
        }
      }
    }
    if (!stopped) {
      // The writer stores every flight trained.
      if (checkpointer.due(queue.now())) flush();
      checkpointer.write_if_due(queue.now(), out.result.rounds.size(),
                                out.processed_events, io_payload);
    }
  }
  // However the loop ended, every dispatched pair trains: the pool's
  // lease count is the run's count of trained updates.
  flush();

  recorder.finish(global, recorder.last_tier());
  clients_->check_leases_returned("AsyncEngine");

  const auto finalize_start = obs::wall_now();
  for (const util::SegmentedIdSet& members : tier_sets) {
    out.final_members.push_back(members.to_vector());
  }
  out.final_live_clients = live_set.size();
  finalize_result(out, server, phases);
  metrics.finalize_ns.add(obs::wall_ns_count_since(finalize_start));
  return out;
}

}  // namespace tifl::fl
