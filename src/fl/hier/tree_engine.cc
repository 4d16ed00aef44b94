#include "fl/hier/tree_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "fl/aggregator.h"
#include "fl/evaluation.h"
#include "fl/policy.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "obs/wall_time.h"
#include "sim/fault_model.h"
#include "sim/sharded_event_queue.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tifl::fl::hier {

namespace {

// Event-kind encoding on the shared queue (actor = node id).  Leaf tier
// completions fold the tier index into the kind so one actor can carry
// every tier of its region.
constexpr std::uint64_t kUplink = 1;
constexpr std::uint64_t kDownlink = 2;
constexpr std::uint64_t kOutage = 3;
constexpr std::uint64_t kRejoin = 4;
constexpr std::uint64_t kRetier = 5;
constexpr std::uint64_t kTierBase = 0x100;

// Snapshot payload tag ("HIR1") — hier snapshots are never interchangeable
// with the flat engine's.
constexpr std::uint64_t kSnapHier = 0x48495231;

// A model in transit on a tree link, keyed by its delivery event's seq.
struct LinkPayload {
  std::size_t from = 0;
  std::vector<float> model;
  std::uint64_t updates = 0;  // sender's cumulative subtree update mass
  double send_time = 0.0;
};

struct HierMetrics {
  obs::Counter& events;
  obs::Counter& node_rounds;
  obs::Counter& uplinks;
  obs::Counter& downlinks;
  obs::Counter& outages;
  obs::Counter& rejoins;
  obs::Counter& reprofiles;
  obs::Counter& root_link_bytes;
  obs::Counter& checkpoint_writes;
  obs::Counter& checkpoint_bytes;
  obs::Counter& checkpoint_write_ns;
  obs::Counter& lost_updates;
  obs::Counter& dropped_updates;
  obs::Histo& link_delay;
  obs::Histo& link_bytes;
  obs::Histo& event_batch;
};

HierMetrics& hier_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static HierMetrics m{
      reg.counter("hier.events"),
      reg.counter("hier.node_rounds"),
      reg.counter("hier.uplinks"),
      reg.counter("hier.downlinks"),
      reg.counter("hier.outages"),
      reg.counter("hier.rejoins"),
      reg.counter("hier.reprofiles"),
      reg.counter("hier.root_link_bytes"),
      reg.counter("checkpoint.writes"),
      reg.counter("checkpoint.bytes"),
      reg.counter("checkpoint.write_ns"),
      reg.counter("fault.lost_updates"),
      reg.counter("fault.dropped_updates"),
      reg.histogram("hier.link_delay"),
      reg.histogram("hier.link_bytes"),
      reg.histogram("hier.event_batch"),
  };
  return m;
}

void put_records(util::ByteSink& sink,
                 const std::vector<RoundRecord>& records) {
  sink.put_u64(records.size());
  for (const RoundRecord& r : records) {
    sink.put_u64(r.round);
    sink.put_f64(r.virtual_time);
    sink.put_f64(r.round_latency);
    sink.put_f64(r.global_accuracy);
    sink.put_f64(r.global_loss);
    sink.put_f64(r.train_loss);
    sink.put_i64(r.selected_tier);
    sink.put_size_vec(r.selected_clients);
  }
}

std::vector<RoundRecord> get_records(util::ByteSource& source) {
  const std::size_t count = source.checked_count(source.get_u64(), 8 * 7);
  std::vector<RoundRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RoundRecord r;
    r.round = static_cast<std::size_t>(source.get_u64());
    r.virtual_time = source.get_f64();
    r.round_latency = source.get_f64();
    r.global_accuracy = source.get_f64();
    r.global_loss = source.get_f64();
    r.train_loss = source.get_f64();
    r.selected_tier = static_cast<int>(source.get_i64());
    r.selected_clients = source.get_size_vec();
    records.push_back(std::move(r));
  }
  return records;
}

void put_queue(util::ByteSink& sink, const sim::ShardedEventQueue& queue) {
  sink.put_f64(queue.now());
  sink.put_u64(queue.next_seq());
  const std::vector<sim::Event> events = queue.pending();
  sink.put_u64(events.size());
  for (const sim::Event& e : events) {
    sink.put_f64(e.time);
    sink.put_u64(e.seq);
    sink.put_u64(e.kind);
    sink.put_u64(e.actor);
  }
}

void get_queue(util::ByteSource& source, sim::ShardedEventQueue& queue) {
  const double now = source.get_f64();
  const std::uint64_t next_seq = source.get_u64();
  const std::size_t count = source.checked_count(source.get_u64(), 32);
  std::vector<sim::Event> events(count);
  for (sim::Event& e : events) {
    e.time = source.get_f64();
    e.seq = source.get_u64();
    e.kind = source.get_u64();
    e.actor = source.get_u64();
  }
  queue.restore(now, next_seq, events);
}

void put_metrics(util::ByteSink& sink, const sim::ShardedEventQueue& queue) {
  obs::Registry merged;
  merged.merge_from(obs::Registry::global());
  queue.merge_metrics_into(merged);
  util::ByteSink blob;
  merged.save(blob);
  sink.put_string(blob.bytes());
}

void get_metrics(util::ByteSource& source) {
  const std::string blob = source.get_string();
  util::ByteSource blob_source(blob);
  obs::Registry::global().restore(blob_source);
}

// Every knob that shapes a hier run's deterministic trajectory, including
// the full tree shape.  Shards are deliberately excluded (bit-invariant),
// as is fault.crash_at (process fate, not trajectory).
std::uint64_t hier_fingerprint(const EngineConfig& config,
                               const AsyncConfig& async,
                               const HierConfig& hier, std::uint64_t seed,
                               std::size_t num_clients,
                               std::size_t weight_count) {
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = util::mix_seed(0x481E4, seed);
  h = util::mix_seed(h, static_cast<std::uint64_t>(async.staleness),
                     f(async.poly_alpha));
  h = util::mix_seed(h, async.total_updates, async.clients_per_tier_round);
  h = util::mix_seed(h, f(async.time_budget_seconds), async.eval_every);
  h = util::mix_seed(h, f(async.reprofile_every));
  h = util::mix_seed(h, f(async.fault.loss_prob), async.fault.max_retries);
  h = util::mix_seed(h, f(async.fault.backoff_base),
                     f(async.fault.backoff_factor));
  h = util::mix_seed(h, f(async.fault.backoff_max), async.fault.seed);
  h = util::mix_seed(h, config.local.epochs, config.local.batch_size);
  h = util::mix_seed(h, f(config.local.optimizer.lr),
                     f(config.lr_decay_per_round));
  h = util::mix_seed(h,
                     static_cast<std::uint64_t>(config.local.optimizer.kind),
                     config.eval_chunk);
  h = util::mix_seed(h, f(config.local.dp_clip_norm),
                     f(config.local.dp_noise_sigma));
  h = util::mix_seed(h, hier.topology.fingerprint(), hier.tiers_per_region);
  for (const sim::RegionalOutage& outage : hier.outages) {
    h = util::mix_seed(h, outage.region, f(outage.start));
    h = util::mix_seed(h, f(outage.duration));
  }
  h = util::mix_seed(h, num_clients, weight_count);
  return h;
}

}  // namespace

TreeEngine::TreeEngine(
    EngineConfig config, AsyncConfig async, HierConfig hier,
    nn::ModelFactory factory, ClientPool* pool,
    std::vector<std::vector<std::size_t>> flat_tiers,
    std::vector<std::vector<std::vector<std::size_t>>> leaf_tiers,
    const data::Dataset* test, sim::LatencyModel latency_model)
    : config_(config),
      async_(std::move(async)),
      hier_(std::move(hier)),
      factory_(std::move(factory)),
      clients_(pool),
      flat_tiers_(std::move(flat_tiers)),
      leaf_tiers_(std::move(leaf_tiers)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

void TreeEngine::validate() const {
  if (clients_ == nullptr || clients_->size() == 0) {
    throw std::invalid_argument("TreeEngine: no clients");
  }
  if (test_ == nullptr) {
    throw std::invalid_argument("TreeEngine: null test dataset");
  }
  if (async_.total_updates == 0) {
    throw std::invalid_argument("TreeEngine: total_updates must be > 0");
  }
  if (async_.clients_per_tier_round == 0) {
    throw std::invalid_argument(
        "TreeEngine: clients_per_tier_round must be > 0");
  }
  if (async_.eval_every == 0) {
    throw std::invalid_argument("TreeEngine: eval_every must be > 0");
  }
  if (async_.shards == 0) {
    throw std::invalid_argument("TreeEngine: shards must be > 0");
  }
  hier_.topology.validate(clients_->size());
  if (hier_.topology.is_flat()) return;  // the delegate re-validates

  if (async_.churn.active() || async_.dynamic_lifecycle) {
    throw std::invalid_argument(
        "TreeEngine: client-level churn / dynamic lifecycle is not "
        "supported on a multi-region tree — compose regional outages via "
        "sim::regional_outages instead");
  }
  if (!async_.event_log_path.empty()) {
    throw std::invalid_argument(
        "TreeEngine: the event log is a flat-engine facility; multi-region "
        "trees checkpoint through fl/snapshot only");
  }
  if (async_.checkpoint_every > 0.0 && async_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "TreeEngine: checkpoint_every > 0 requires a checkpoint_path");
  }
  const std::vector<std::size_t> leaf_nodes = hier_.topology.leaves();
  if (leaf_tiers_.size() != leaf_nodes.size()) {
    throw std::invalid_argument(
        "TreeEngine: leaf_tiers does not match the topology's leaf count");
  }
  bool any_members = false;
  for (const auto& tiers : leaf_tiers_) {
    if (tiers.empty()) {
      throw std::invalid_argument("TreeEngine: leaf with zero tiers");
    }
    for (const auto& members : tiers) {
      any_members = any_members || !members.empty();
      for (std::size_t id : members) {
        if (id >= clients_->size()) {
          throw std::invalid_argument(
              "TreeEngine: leaf tier member out of range");
        }
      }
    }
  }
  if (!any_members) {
    throw std::invalid_argument("TreeEngine: every leaf tier is empty");
  }
  for (const sim::RegionalOutage& outage : hier_.outages) {
    if (outage.region >= leaf_nodes.size()) {
      throw std::invalid_argument("TreeEngine: outage region out of range");
    }
    if (outage.start < 0.0 || outage.duration <= 0.0) {
      throw std::invalid_argument("TreeEngine: malformed outage window");
    }
  }
}

void TreeEngine::set_lifecycle_hooks(HierLifecycleHooks hooks) {
  hooks_ = std::move(hooks);
}

nn::Sequential& TreeEngine::scratch_model(std::size_t slot) {
  while (scratch_.size() <= slot) {
    scratch_.push_back(factory_(/*seed=*/slot + 1));
  }
  return scratch_[slot];
}

util::ThreadPool& TreeEngine::pool() {
  return pool_ != nullptr ? *pool_ : util::global_pool();
}

HierRunResult TreeEngine::run(std::optional<std::uint64_t> seed_override) {
  if (hier_.topology.is_flat()) return run_flat(seed_override);
  if (policy_ != nullptr) {
    throw std::invalid_argument(
        "TreeEngine: custom selection policies only drive the flat "
        "(collapse) path; multi-region leaves sample uniformly per tier");
  }
  if (async_.reprofile_every > 0.0 && !hooks_.retier) {
    throw std::invalid_argument(
        "TreeEngine: reprofile_every > 0 requires lifecycle hooks with a "
        "retier callback");
  }
  return run_tree(seed_override.value_or(config_.seed));
}

// Collapse-to-flat: a depth-1 tree IS the flat federation, so delegate to
// the flat engine with untouched configs — byte-for-byte equality with a
// direct AsyncEngine run is by construction (no extra RNG draws, metrics
// or trace events happen before or after the delegate runs).
HierRunResult TreeEngine::run_flat(std::optional<std::uint64_t> seed_override) {
  AsyncEngine engine(config_, async_, factory_, clients_, flat_tiers_, test_,
                     latency_model_);
  engine.set_policy(policy_);
  if (pool_ != nullptr) engine.set_thread_pool(pool_);
  AsyncRunResult flat = engine.run(seed_override);

  HierRunResult out;
  out.collapsed = true;
  out.result = flat.result;
  out.final_weights = flat.final_weights;
  out.processed_events = flat.processed_events;
  out.max_event_batch = flat.max_event_batch;
  out.node_rounds = {out.result.rounds.size()};
  out.node_update_mass = {0};
  for (std::size_t updates : flat.tier_updates) {
    out.node_update_mass[0] += updates;
  }
  out.flat = std::move(flat);
  return out;
}

HierRunResult TreeEngine::run_tree(std::uint64_t seed) {
  const Topology& topo = hier_.topology;
  const std::size_t num_nodes = topo.nodes.size();
  const std::vector<std::size_t> leaf_nodes = topo.leaves();
  HierMetrics& metrics = hier_metrics();
  obs::PhaseTimer phases;
  obs::Registry& reg = obs::Registry::global();

  // Per-node labelled instruments (stable refs into the registry).
  std::vector<obs::Counter*> node_round_counters;
  std::vector<obs::Counter*> node_link_bytes;
  node_round_counters.reserve(num_nodes);
  node_link_bytes.reserve(num_nodes);
  for (const NodeSpec& spec : topo.nodes) {
    node_round_counters.push_back(&reg.counter("hier.node_rounds." + spec.name));
    node_link_bytes.push_back(&reg.counter("hier.link_bytes." + spec.name));
  }

  std::vector<float> global = factory_(seed).weights();
  const std::size_t weight_count = global.size();

  // --- build the node runtime -----------------------------------------------
  std::vector<AggregatorNode> nodes(num_nodes);
  std::vector<std::size_t> ordinal_of(num_nodes, num_nodes);
  for (std::size_t i = 0; i < leaf_nodes.size(); ++i) {
    ordinal_of[leaf_nodes[i]] = i;
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    AggregatorNode& node = nodes[n];
    node.id = n;
    node.is_root = n == 0;
    node.children = topo.children_of(n);
    node.is_leaf = node.children.empty();
    const std::size_t inputs =
        node.is_leaf ? leaf_tiers_[ordinal_of[n]].size() : node.children.size();
    const std::size_t slots = inputs + (node.has_parent_view() ? 1 : 0);
    node.slot_models.assign(slots, global);
    node.slot_updates.assign(slots, 0);
    node.slot_last_version.assign(slots, 0);
    node.model = global;
    if (node.is_leaf) {
      node.tiers = leaf_tiers_[ordinal_of[n]];
      node.tier_lr.assign(inputs, config_.local.optimizer.lr);
      node.staleness_sum.assign(inputs, 0.0);
      node.pending.assign(inputs, PendingTierRound{});
      node.retry_count.assign(inputs, 0);
      node.selection_rng.reserve(inputs);
      node.latency_rng.reserve(inputs);
      for (std::size_t t = 0; t < inputs; ++t) {
        node.selection_rng.push_back(
            util::Rng(util::mix_seed(util::mix_seed(seed, 0x41E0, n), t)));
        node.latency_rng.push_back(
            util::Rng(util::mix_seed(util::mix_seed(seed, 0x41E1, n), t)));
      }
    }
    if (!node.is_root) node.link_rng = sim::link_stream(seed, n);
  }

  sim::ShardedEventQueue queue(async_.shards, num_nodes);
  sim::FaultModel fault(async_.fault, seed);
  std::map<std::uint64_t, LinkPayload> in_flight;

  HierRunResult out;
  out.result.policy_name = "hier/" + std::to_string(num_nodes) + "n/" +
                           staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);

  std::size_t dispatch_seq = 0;
  bool stopping = false;
  bool last_evaluated = false;
  double next_checkpoint_due = async_.checkpoint_every > 0.0
                                   ? async_.checkpoint_every
                                   : std::numeric_limits<double>::infinity();
  std::vector<std::size_t> age_scratch;
  std::vector<double> accum_scratch;

  const auto evaluate = [&](std::span<const float> weights) {
    return evaluate_weights(scratch_model(0), weights, *test_,
                            config_.eval_chunk);
  };

  // Staleness-weighted cross-slot aggregation — the flat engine's
  // cross-tier operator with this node's slots as the tiers.  One call =
  // one node "round" (local version).
  const auto recompute_node = [&](AggregatorNode& node) {
    age_scratch.assign(node.slot_count(), 0);
    for (std::size_t s = 0; s < node.slot_count(); ++s) {
      if (node.slot_updates[s] > 0) {
        age_scratch[s] = node.version - node.slot_last_version[s];
      }
    }
    const std::vector<double> weights = cross_tier_weights(
        async_.staleness, async_.poly_alpha, node.slot_updates, age_scratch);
    aggregate_global(node.slot_models, weights, node.model, accum_scratch);
    node.update_mass = 0;
    const std::size_t inputs =
        node.slot_count() - (node.has_parent_view() ? 1 : 0);
    for (std::size_t s = 0; s < inputs; ++s) {
      node.update_mass += node.slot_updates[s];
    }
    ++node.version;
    metrics.node_rounds.add();
    node_round_counters[node.id]->add();
  };

  const auto dispatch_tier = [&](AggregatorNode& node, std::size_t tier) {
    PendingTierRound& round = node.pending[tier];
    round.active = false;
    const std::vector<std::size_t>& members = node.tiers[tier];
    if (members.empty()) return;

    const std::size_t count =
        std::min(async_.clients_per_tier_round, members.size());
    std::vector<std::size_t> picks;
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      picks = sample_without_replacement(members.size(), count,
                                         node.selection_rng[tier]);
    }
    round.selected.clear();
    round.selected.reserve(count);
    for (std::size_t pick : picks) round.selected.push_back(members[pick]);
    round.dispatch_version = node.version;

    LocalTrainParams params = config_.local;
    params.lr = node.tier_lr[tier];

    for (std::size_t i = 0; i < count; ++i) scratch_model(i + 1);
    round.updates.assign(count, LocalUpdate{});
    std::vector<ClientPool::Lease> leases;
    leases.reserve(count);
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kTrain);
      for (std::size_t id : round.selected) {
        leases.push_back(clients_->lease(id));
      }
      pool().parallel_for(0, count, [&](std::size_t i) {
        const Client& client = *leases[i];
        util::Rng client_rng(util::mix_seed(seed, dispatch_seq, client.id()));
        round.updates[i] = client.local_update(node.model, scratch_[i + 1],
                                               params, client_rng);
      });
      leases.clear();
    }
    ++dispatch_seq;

    round.latency = 0.0;
    for (std::size_t id : round.selected) {
      round.latency = std::max(
          round.latency,
          latency_model_.sample_latency(clients_->resource(id),
                                        clients_->train_size(id),
                                        params.epochs,
                                        node.latency_rng[tier]));
    }
    queue.schedule(round.latency, kTierBase + tier, node.id);
    round.active = true;
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), round.latency, "hier", "tier_round",
              static_cast<std::int64_t>(node.id),
              {obs::field("tier", tier), obs::field("version", node.version),
               obs::field("clients", count)});
    }
  };

  const auto send_uplink = [&](AggregatorNode& node) {
    const NodeSpec& spec = topo.nodes[node.id];
    const std::size_t parent = static_cast<std::size_t>(spec.parent);
    const std::size_t bytes = node.model.size() * sizeof(float);
    const double delay =
        latency_model_.sample_link_delay(spec.link, bytes, node.link_rng);
    const std::uint64_t seq = queue.schedule(delay, kUplink, parent);
    in_flight[seq] =
        LinkPayload{node.id, node.model, node.update_mass, queue.now()};
    node.since_report = 0;
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), delay, "hier", "uplink",
              static_cast<std::int64_t>(node.id),
              {obs::field("to", parent), obs::field("bytes", bytes)});
    }
  };

  const auto send_downlinks = [&](AggregatorNode& node) {
    for (std::size_t child : node.children) {
      const NodeSpec& spec = topo.nodes[child];
      const std::size_t bytes = node.model.size() * sizeof(float);
      const double delay = latency_model_.sample_link_delay(
          spec.link, bytes, nodes[child].link_rng);
      const std::uint64_t seq = queue.schedule(delay, kDownlink, child);
      in_flight[seq] =
          LinkPayload{node.id, node.model, node.update_mass, queue.now()};
      if (obs::Tracer* t = obs::tracer()) {
        t->span(queue.now(), delay, "hier", "downlink",
                static_cast<std::int64_t>(node.id),
                {obs::field("to", child), obs::field("bytes", bytes)});
      }
    }
  };

  // The root aggregated: one global round.  Evaluation follows the flat
  // engine's cadence (eval_every + always the final round); skipped
  // versions carry the previous accuracy forward.
  const auto record_root_round = [&](std::size_t child_slot, double delay) {
    const std::size_t version = out.result.rounds.size();
    RoundRecord record;
    record.round = version;
    record.virtual_time = queue.now();
    record.round_latency = delay;
    record.selected_tier = static_cast<int>(child_slot);
    record.selected_clients = {nodes[0].children[child_slot]};
    last_evaluated = version % async_.eval_every == 0 ||
                     version + 1 == async_.total_updates;
    if (last_evaluated) {
      obs::ScopedPhase phase(&phases, obs::Phase::kEval);
      const Evaluation r = evaluate(nodes[0].model);
      phase.stop();
      record.global_accuracy = r.accuracy;
      record.global_loss = r.loss;
      if (obs::Tracer* t = obs::tracer()) {
        t->instant(queue.now(), "hier", "eval", /*actor=*/0,
                   {obs::field("version", version),
                    obs::field("accuracy", r.accuracy)});
      }
    } else if (!out.result.rounds.empty()) {
      record.global_accuracy = out.result.rounds.back().global_accuracy;
      record.global_loss = out.result.rounds.back().global_loss;
    }
    out.result.rounds.push_back(std::move(record));
    if (out.result.rounds.size() % 50 == 0) {
      util::log_debug("hier v", out.result.rounds.size(),
                      " acc=", out.result.rounds.back().global_accuracy,
                      " t=", queue.now());
    }
    if (out.result.rounds.size() >= async_.total_updates) stopping = true;
    if (async_.time_budget_seconds > 0.0 &&
        queue.now() >= async_.time_budget_seconds) {
      util::log_info("hier time budget of ", async_.time_budget_seconds,
                     "s exhausted after ", out.result.rounds.size(),
                     " root rounds");
      stopping = true;
    }
  };

  // --- snapshot payload ------------------------------------------------------
  const std::uint64_t fingerprint = hier_fingerprint(
      config_, async_, hier_, seed, clients_->size(), weight_count);
  const auto save_state = [&](util::ByteSink& sink) {
    sink.put_u64(kSnapHier);
    sink.put_u64(fingerprint);
    sink.put_u64(num_nodes);
    sink.put_u64(clients_->size());
    sink.put_u64(weight_count);
    sink.put_string(out.result.policy_name);
    for (const AggregatorNode& node : nodes) node.save_state(sink);
    sink.put_u64(dispatch_seq);
    put_records(sink, out.result.rounds);
    sink.put_bool(last_evaluated);
    sink.put_u64(out.uplinks);
    sink.put_u64(out.downlinks);
    sink.put_u64(out.outage_count);
    sink.put_u64(out.rejoin_count);
    sink.put_u64(out.reprofile_count);
    sink.put_u64(out.root_link_bytes);
    sink.put_u64(out.processed_events);
    sink.put_u64(out.max_event_batch);
    sink.put_f64(next_checkpoint_due);
    sink.put_u64(in_flight.size());
    for (const auto& [seq, payload] : in_flight) {  // map order: seq asc
      sink.put_u64(seq);
      sink.put_u64(payload.from);
      sink.put_u64(payload.updates);
      sink.put_f64(payload.send_time);
      sink.put_f32_vec(payload.model);
    }
    put_queue(sink, queue);
    {
      util::ByteSink blob;
      fault.save_state(blob);
      sink.put_string(blob.bytes());
    }
    {
      util::ByteSink blob;
      if (hooks_.save_state) hooks_.save_state(blob);
      sink.put_string(blob.bytes());
    }
    put_metrics(sink, queue);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    if (source.get_u64() != kSnapHier) {
      throw std::runtime_error(
          "TreeEngine: snapshot was not taken by the hier engine");
    }
    if (source.get_u64() != fingerprint) {
      throw std::runtime_error(
          "TreeEngine: snapshot config/topology fingerprint mismatch "
          "(resume requires the same seed, tree, schedule and fault "
          "configuration)");
    }
    if (source.get_u64() != num_nodes ||
        source.get_u64() != clients_->size() ||
        source.get_u64() != weight_count) {
      throw std::runtime_error(
          "TreeEngine: snapshot tree/population/model dimensions mismatch");
    }
    if (source.get_string() != out.result.policy_name) {
      throw std::runtime_error("TreeEngine: snapshot policy name mismatch");
    }
    for (AggregatorNode& node : nodes) node.restore_state(source);
    dispatch_seq = static_cast<std::size_t>(source.get_u64());
    out.result.rounds = get_records(source);
    last_evaluated = source.get_bool();
    out.uplinks = static_cast<std::size_t>(source.get_u64());
    out.downlinks = static_cast<std::size_t>(source.get_u64());
    out.outage_count = static_cast<std::size_t>(source.get_u64());
    out.rejoin_count = static_cast<std::size_t>(source.get_u64());
    out.reprofile_count = static_cast<std::size_t>(source.get_u64());
    out.root_link_bytes = source.get_u64();
    out.processed_events = static_cast<std::size_t>(source.get_u64());
    out.max_event_batch = static_cast<std::size_t>(source.get_u64());
    source.get_f64();  // stored checkpoint due; recomputed below
    const std::size_t flight_count =
        source.checked_count(source.get_u64(), 40);
    for (std::size_t i = 0; i < flight_count; ++i) {
      const std::uint64_t seq = source.get_u64();
      LinkPayload flight;
      flight.from = static_cast<std::size_t>(source.get_u64());
      flight.updates = source.get_u64();
      flight.send_time = source.get_f64();
      flight.model = source.get_f32_vec();
      in_flight.emplace(seq, std::move(flight));
    }
    get_queue(source, queue);
    {
      const std::string blob = source.get_string();
      util::ByteSource blob_source(blob);
      fault.restore_state(blob_source);
    }
    {
      const std::string blob = source.get_string();
      if (hooks_.restore_state) {
        util::ByteSource blob_source(blob);
        hooks_.restore_state(blob_source);
      }
    }
    get_metrics(source);
    if (async_.checkpoint_every > 0.0) {
      next_checkpoint_due =
          (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
          async_.checkpoint_every;
    }
    util::log_info("hier: resumed from ", async_.resume_path, " at root v",
                   out.result.rounds.size(), ", t=", queue.now());
  }

  const auto write_checkpoint = [&]() {
    const auto start = obs::wall_now();
    util::ByteSink sink;
    save_state(sink);
    const std::size_t bytes =
        save_snapshot(async_.checkpoint_path, sink.bytes());
    metrics.checkpoint_writes.add();
    metrics.checkpoint_bytes.add(bytes);
    metrics.checkpoint_write_ns.add(obs::wall_ns_count_since(start));
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "durability", "checkpoint", /*actor=*/0,
                 {obs::field("version", out.result.rounds.size()),
                  obs::field("events", out.processed_events)});
    }
  };

  if (!resuming) {
    for (std::size_t leaf : leaf_nodes) {
      AggregatorNode& node = nodes[leaf];
      for (std::size_t t = 0; t < node.tiers.size(); ++t) {
        dispatch_tier(node, t);
      }
    }
    // Outage windows are coalesced per region (sim::regional_outages), so
    // start/rejoin events strictly alternate per leaf.
    for (const sim::RegionalOutage& outage : hier_.outages) {
      const std::size_t leaf = leaf_nodes[outage.region];
      queue.schedule_at(outage.start, kOutage, leaf);
      queue.schedule_at(outage.start + outage.duration, kRejoin, leaf);
    }
    if (async_.reprofile_every > 0.0) {
      for (std::size_t leaf : leaf_nodes) {
        queue.schedule_at(async_.reprofile_every, kRetier, leaf);
      }
    }
  }

  // --- event loop ------------------------------------------------------------
  std::vector<sim::Event> batch;
  while (!queue.empty() && !stopping) {
    if (fault.crash_at() > 0.0 && queue.peek().time >= fault.crash_at()) {
      // Die before popping or drawing anything, so the crashed run's
      // streams stay aligned with the uninterrupted oracle (see the flat
      // engine's identical check).
      throw sim::SimulatedCrash(queue.peek().time);
    }
    queue.pop_batch(batch);
    out.max_event_batch = std::max(out.max_event_batch, batch.size());
    metrics.event_batch.record(static_cast<double>(batch.size()));
    for (const sim::Event& event : batch) {
      ++out.processed_events;
      metrics.events.add();
      AggregatorNode& node = nodes[event.actor];

      if (event.kind >= kTierBase) {
        const std::size_t tier =
            static_cast<std::size_t>(event.kind - kTierBase);
        PendingTierRound& round = node.pending[tier];
        if (node.offline) {
          // Regional outage: the round's updates are lost with the
          // region; the tier re-dispatches at rejoin.
          round.active = false;
          round.selected.clear();
          round.updates.clear();
          node.retry_count[tier] = 0;
          continue;
        }
        if (fault.active()) {
          if (fault.lose_update()) {
            metrics.lost_updates.add();
            if (node.retry_count[tier] < async_.fault.max_retries) {
              ++node.retry_count[tier];
              queue.schedule(fault.backoff(node.retry_count[tier]),
                             event.kind, node.id);
              if (obs::Tracer* t = obs::tracer()) {
                t->instant(queue.now(), "fault", "lost",
                           static_cast<std::int64_t>(node.id),
                           {obs::field("tier", tier),
                            obs::field("attempt", node.retry_count[tier])});
              }
              continue;
            }
            metrics.dropped_updates.add();
            node.retry_count[tier] = 0;
            round.active = false;
            round.selected.clear();
            round.updates.clear();
            if (obs::Tracer* t = obs::tracer()) {
              t->instant(queue.now(), "fault", "dropped",
                         static_cast<std::int64_t>(node.id),
                         {obs::field("tier", tier)});
            }
            dispatch_tier(node, tier);
            continue;
          }
          node.retry_count[tier] = 0;
        }

        // --- tier-level FedAvg into the tier's slot ----------------------
        round.active = false;
        obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
        std::vector<WeightedUpdate> weighted;
        weighted.reserve(round.updates.size());
        for (const LocalUpdate& update : round.updates) {
          weighted.push_back(WeightedUpdate{
              .weights = update.weights,
              .sample_count = static_cast<double>(update.num_samples)});
        }
        node.slot_models[tier] = fedavg(weighted);
        node.slot_updates[tier] += round.selected.size();
        node.slot_last_version[tier] = node.version;
        node.staleness_sum[tier] +=
            static_cast<double>(node.version - round.dispatch_version);
        node.tier_lr[tier] *= config_.lr_decay_per_round;
        recompute_node(node);
        agg_phase.stop();
        if (hooks_.observe) {
          for (std::size_t id : round.selected) {
            hooks_.observe(ordinal_of[node.id], id, round.latency);
          }
        }
        ++node.since_report;
        if (node.since_report >= topo.nodes[node.id].report_every) {
          send_uplink(node);
        }
        dispatch_tier(node, tier);
      } else if (event.kind == kUplink) {
        const auto it = in_flight.find(event.seq);
        if (it == in_flight.end()) {
          throw std::logic_error("TreeEngine: uplink payload missing");
        }
        LinkPayload payload = std::move(it->second);
        in_flight.erase(it);
        const double delay = queue.now() - payload.send_time;
        const std::size_t bytes = payload.model.size() * sizeof(float);
        ++out.uplinks;
        metrics.uplinks.add();
        metrics.link_delay.record(delay);
        metrics.link_bytes.record(static_cast<double>(bytes));
        node_link_bytes[payload.from]->add(bytes);
        if (node.is_root) {
          out.root_link_bytes += bytes;
          metrics.root_link_bytes.add(bytes);
        }
        const auto child_it = std::find(node.children.begin(),
                                        node.children.end(), payload.from);
        if (child_it == node.children.end()) {
          throw std::logic_error("TreeEngine: uplink from a non-child");
        }
        const std::size_t slot =
            static_cast<std::size_t>(child_it - node.children.begin());
        node.slot_models[slot] = std::move(payload.model);
        node.slot_updates[slot] = static_cast<std::size_t>(payload.updates);
        node.slot_last_version[slot] = node.version;
        ++node.deliveries;
        if (node.deliveries >= topo.nodes[node.id].agg_every) {
          node.deliveries = 0;
          obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
          recompute_node(node);
          agg_phase.stop();
          if (node.is_root) {
            record_root_round(slot, delay);
            if (stopping) break;
          } else {
            ++node.since_report;
            if (node.since_report >= topo.nodes[node.id].report_every) {
              send_uplink(node);
            }
          }
          send_downlinks(node);
        }
      } else if (event.kind == kDownlink) {
        const auto it = in_flight.find(event.seq);
        if (it == in_flight.end()) {
          throw std::logic_error("TreeEngine: downlink payload missing");
        }
        LinkPayload payload = std::move(it->second);
        in_flight.erase(it);
        const double delay = queue.now() - payload.send_time;
        const std::size_t bytes = payload.model.size() * sizeof(float);
        ++out.downlinks;
        metrics.downlinks.add();
        metrics.link_delay.record(delay);
        metrics.link_bytes.record(static_cast<double>(bytes));
        node_link_bytes[payload.from]->add(bytes);
        const std::size_t slot = node.parent_slot();
        node.slot_models[slot] = std::move(payload.model);
        node.slot_updates[slot] = static_cast<std::size_t>(payload.updates);
        node.slot_last_version[slot] = node.version;
        // A leaf folds the fresh global view into its training base right
        // away; an inner node folds it at its next cadence-triggered
        // aggregation.
        if (node.is_leaf) {
          obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
          recompute_node(node);
        }
      } else if (event.kind == kOutage) {
        node.offline = true;
        ++out.outage_count;
        metrics.outages.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "hier", "outage",
                     static_cast<std::int64_t>(node.id), {});
        }
      } else if (event.kind == kRejoin) {
        node.offline = false;
        ++out.rejoin_count;
        metrics.rejoins.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "hier", "rejoin",
                     static_cast<std::int64_t>(node.id), {});
        }
        for (std::size_t t = 0; t < node.tiers.size(); ++t) {
          if (!node.pending[t].active) dispatch_tier(node, t);
        }
      } else if (event.kind == kRetier) {
        std::vector<std::vector<std::size_t>> new_tiers =
            hooks_.retier(ordinal_of[node.id]);
        if (new_tiers.size() != node.tiers.size()) {
          throw std::logic_error(
              "TreeEngine: retier hook changed the leaf's tier count");
        }
        node.tiers = std::move(new_tiers);
        ++out.reprofile_count;
        metrics.reprofiles.add();
        if (obs::Tracer* t = obs::tracer()) {
          t->instant(queue.now(), "hier", "retier",
                     static_cast<std::int64_t>(node.id), {});
        }
        if (!node.offline) {
          for (std::size_t t = 0; t < node.tiers.size(); ++t) {
            if (!node.pending[t].active) dispatch_tier(node, t);
          }
        }
        queue.schedule(async_.reprofile_every, kRetier, node.id);
      } else {
        throw std::logic_error("TreeEngine: unknown event kind");
      }
    }
    if (async_.time_budget_seconds > 0.0 &&
        queue.now() >= async_.time_budget_seconds) {
      stopping = true;
    }
    if (!stopping && queue.now() >= next_checkpoint_due) {
      write_checkpoint();
      next_checkpoint_due =
          (std::floor(queue.now() / async_.checkpoint_every) + 1.0) *
          async_.checkpoint_every;
    }
  }

  if (!out.result.rounds.empty() && !last_evaluated) {
    obs::ScopedPhase phase(&phases, obs::Phase::kEval);
    const Evaluation r = evaluate(nodes[0].model);
    out.result.rounds.back().global_accuracy = r.accuracy;
    out.result.rounds.back().global_loss = r.loss;
  }

  out.final_weights = nodes[0].model;
  out.node_rounds.reserve(num_nodes);
  out.node_update_mass.reserve(num_nodes);
  for (const AggregatorNode& node : nodes) {
    out.node_rounds.push_back(node.version);
    out.node_update_mass.push_back(node.update_mass);
  }
  out.result.phases = phases.stats();
  queue.merge_metrics_into(obs::Registry::global());
  return out;
}

}  // namespace tifl::fl::hier
