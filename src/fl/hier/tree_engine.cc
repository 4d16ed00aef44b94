#include "fl/hier/tree_engine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "fl/evaluation.h"
#include "fl/policy.h"
#include "fl/snapshot.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "util/log.h"
#include "util/rng.h"

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
      reg.counter("fault.lost_updates"),
      reg.counter("fault.dropped_updates"),
      reg.histogram("hier.link_delay"),
      reg.histogram("hier.link_bytes"),
      reg.histogram("hier.event_batch"),
  };
  return m;
}

// Every knob that shapes a hier run's deterministic trajectory, including
// the full tree shape.  fault.crash_at is deliberately excluded (process
// fate, not trajectory).
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
                     kEvalChunk);
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

// A CRC-valid payload can still hold a value the loop would index out of
// bounds with, or an event it cannot handle: throws std::runtime_error
// naming the field unless `ok`.
void check_snapshot(bool ok, const char* field) {
  if (!ok) {
    throw std::runtime_error(std::string("TreeEngine: snapshot ") + field +
                             " does not fit the tree");
  }
}

}  // namespace

TreeEngine::TreeEngine(
    EngineConfig config, AsyncConfig async, HierConfig hier,
    nn::ModelFactory factory, ClientPool* pool,
    std::vector<std::vector<std::vector<std::size_t>>> leaf_tiers,
    const data::Dataset* test, sim::LatencyModel latency_model)
    : config_(config),
      async_(std::move(async)),
      hier_(std::move(hier)),
      factory_(std::move(factory)),
      clients_(pool),
      leaf_tiers_(std::move(leaf_tiers)),
      test_(test),
      latency_model_(latency_model) {
  validate();
}

void TreeEngine::validate() const {
  validate_async_config(async_, clients_, test_, "TreeEngine");
  hier_.topology.validate(clients_->size());
  if (hier_.topology.is_flat()) {
    throw std::invalid_argument(
        "TreeEngine: a flat topology has no regions to aggregate; run it "
        "through AsyncEngine or TiflSystem::run_hier");
  }

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

HierRunResult TreeEngine::run(std::optional<std::uint64_t> seed_override) {
  if (async_.reprofile_every > 0.0 && !hooks_.retier) {
    throw std::invalid_argument(
        "TreeEngine: reprofile_every > 0 requires lifecycle hooks with a "
        "retier callback");
  }
  return run_tree(seed_override.value_or(config_.seed));
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

  sim::EventQueue queue;
  sim::FaultModel fault(async_.fault, seed);
  std::map<std::uint64_t, LinkPayload> in_flight;

  HierRunResult out;
  out.result.policy_name = "hier/" + std::to_string(num_nodes) + "n/" +
                           staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);

  std::size_t dispatch_seq = 0;
  bool stopping = false;
  Checkpointer checkpointer(async_.checkpoint_every, async_.checkpoint_path);
  std::vector<double> accum_scratch;

  // Root versions follow the flat engine's cadence (eval_every + always
  // the final round); skipped versions carry the previous accuracy.
  VersionRecorder recorder{
      &out.result.rounds, async_.eval_every, async_.total_updates, "hier",
      [this](std::span<const float> weights) {
        return trainer_.evaluate(weights, *test_, kEvalChunk);
      },
      &phases};

  // Staleness-weighted cross-slot aggregation — the flat engine's
  // cross-tier operator with this node's slots as the tiers.  One call =
  // one node "round" (local version).
  const auto recompute_node = [&](AggregatorNode& node) {
    aggregate_slots(async_.staleness, async_.poly_alpha, node.slot_updates,
                    node.slot_last_version, node.version, node.slot_models,
                    node.model, accum_scratch);
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
    {
      obs::ScopedPhase phase(&phases, obs::Phase::kSelect);
      round.selected =
          Candidates(members).draw(count, node.selection_rng[tier]);
    }
    round.dispatch_version = node.version;

    trainer_.train(*clients_, round.selected, node.model, node.tier_lr[tier],
                   seed, dispatch_seq, round.updates, phases);
    ++dispatch_seq;

    round.latency = 0.0;
    for (std::size_t id : round.selected) {
      round.latency = std::max(
          round.latency,
          latency_model_.sample_latency(clients_->resource(id),
                                        clients_->train_size(id),
                                        config_.local.epochs,
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

  // Ships `node`'s model to node `to` over `link`, whose delay draws come
  // from `rng` (the child end's stream, in both directions).
  const auto send = [&](AggregatorNode& node, std::size_t to,
                        std::uint64_t kind, const sim::LinkProfile& link,
                        util::Rng& rng, const char* name) {
    const std::size_t bytes = node.model.size() * sizeof(float);
    const double delay = latency_model_.sample_link_delay(link, bytes, rng);
    const std::uint64_t seq = queue.schedule(delay, kind, to);
    in_flight[seq] =
        LinkPayload{node.id, node.model, node.update_mass, queue.now()};
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), delay, "hier", name,
              static_cast<std::int64_t>(node.id),
              {obs::field("to", to), obs::field("bytes", bytes)});
    }
  };
  const auto send_uplink = [&](AggregatorNode& node) {
    const NodeSpec& spec = topo.nodes[node.id];
    send(node, static_cast<std::size_t>(spec.parent), kUplink, spec.link,
         node.link_rng, "uplink");
    node.since_report = 0;
  };
  const auto send_downlinks = [&](AggregatorNode& node) {
    for (std::size_t child : node.children) {
      send(node, child, kDownlink, topo.nodes[child].link,
           nodes[child].link_rng, "downlink");
    }
  };
  // Counts an outage, rejoin or re-tiering and traces it on the node.
  const auto count_node_event = [&](const AggregatorNode& node,
                                    const char* name, obs::Counter& counter,
                                    std::size_t& count) {
    ++count;
    counter.add();
    if (obs::Tracer* t = obs::tracer()) {
      t->instant(queue.now(), "hier", name,
                 static_cast<std::int64_t>(node.id), {});
    }
  };
  // Takes the model a link delivery carries and accounts the transfer.
  const auto receive = [&](const sim::Event& event, const char* name,
                           obs::Counter& counter, std::size_t& count) {
    const auto it = in_flight.find(event.seq);
    if (it == in_flight.end()) {
      throw std::logic_error(std::string("TreeEngine: ") + name +
                             " payload missing");
    }
    LinkPayload payload = std::move(it->second);
    in_flight.erase(it);
    const std::size_t bytes = payload.model.size() * sizeof(float);
    ++count;
    counter.add();
    metrics.link_delay.record(queue.now() - payload.send_time);
    metrics.link_bytes.record(static_cast<double>(bytes));
    node_link_bytes[payload.from]->add(bytes);
    return payload;
  };

  // The root aggregated: one global round.
  const auto record_root_round = [&](std::size_t child_slot, double delay) {
    recorder.record({.virtual_time = queue.now(),
                     .round_latency = delay,
                     .selected_tier = static_cast<int>(child_slot),
                     .selected_clients = {nodes[0].children[child_slot]}},
                    nodes[0].model, /*actor=*/0);
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
  const SnapshotPrologue prologue{
      kSnapHier,
      hier_fingerprint(config_, async_, hier_, seed, clients_->size(),
                       weight_count),
      num_nodes, clients_->size(), weight_count, out.result.policy_name};
  const auto save_state = [&](util::ByteSink& sink) {
    put_prologue(sink, prologue);
    for (const AggregatorNode& node : nodes) node.save_state(sink);
    sink.put_u64(dispatch_seq);
    put_records(sink, out.result.rounds);
    sink.put_bool(recorder.last_evaluated);
    sink.put_u64(out.uplinks);
    sink.put_u64(out.downlinks);
    sink.put_u64(out.outage_count);
    sink.put_u64(out.rejoin_count);
    sink.put_u64(out.reprofile_count);
    sink.put_u64(out.root_link_bytes);
    sink.put_u64(out.processed_events);
    sink.put_u64(out.max_event_batch);
    sink.put_f64(checkpointer.next_due());
    sink.put_u64(in_flight.size());
    for (const auto& [seq, payload] : in_flight) {  // map order: seq asc
      sink.put_u64(seq);
      sink.put_u64(payload.from);
      sink.put_u64(payload.updates);
      sink.put_f64(payload.send_time);
      sink.put_f32_vec(payload.model);
    }
    put_queue(sink, queue);
    put_blob(sink, [&](util::ByteSink& blob) { fault.save_state(blob); });
    put_blob(sink, hooks_.save_state);
    put_metrics(sink);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    check_prologue(source, prologue, "TreeEngine");
    for (AggregatorNode& node : nodes) node.restore_state(source);
    dispatch_seq = static_cast<std::size_t>(source.get_u64());
    out.result.rounds = get_records(source);
    recorder.last_evaluated = source.get_bool();
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
    get_queue(source, queue, num_nodes);
    // Everything the event handlers index with or look up, before any
    // event runs.
    for (const AggregatorNode& node : nodes) {
      for (const std::vector<float>& model : node.slot_models) {
        check_snapshot(model.size() == weight_count, "slot model length");
      }
      check_snapshot(node.model.size() == weight_count, "node model length");
      const std::size_t tiers = node.tiers.size();
      check_snapshot(node.tier_lr.size() == tiers, "tier_lr length");
      check_snapshot(node.staleness_sum.size() == tiers,
                     "staleness_sum length");
      check_snapshot(node.retry_count.size() == tiers, "retry_count length");
      for (const std::vector<std::size_t>& members : node.tiers) {
        for (std::size_t id : members) {
          check_snapshot(id < clients_->size(), "tier member");
        }
      }
      for (const PendingTierRound& round : node.pending) {
        for (std::size_t id : round.selected) {
          check_snapshot(id < clients_->size(), "pending member");
        }
        for (const LocalUpdate& update : round.updates) {
          check_snapshot(update.weights.size() == weight_count,
                         "pending update length");
        }
      }
    }
    for (const auto& [seq, link] : in_flight) {
      check_snapshot(link.from < num_nodes, "link payload sender");
      check_snapshot(link.model.size() == weight_count,
                     "link payload model length");
    }
    for (const sim::Event& event : queue.pending()) {
      const AggregatorNode& node = nodes[event.actor];
      if (event.kind >= kTierBase) {
        const std::size_t tier =
            static_cast<std::size_t>(event.kind - kTierBase);
        check_snapshot(tier < node.pending.size() &&
                           !node.pending[tier].updates.empty(),
                       "tier event (a trained round of a leaf tier)");
      } else if (event.kind == kUplink || event.kind == kDownlink) {
        const auto link = in_flight.find(event.seq);
        check_snapshot(link != in_flight.end(), "link event payload");
        const bool up = event.kind == kUplink;
        const std::size_t child = up ? link->second.from : event.actor;
        const std::size_t parent = up ? event.actor : link->second.from;
        check_snapshot(topo.nodes[child].parent == static_cast<int>(parent),
                       "link event endpoints (a child and its parent)");
      } else {
        // A retier event calls the hook that only reprofile_every > 0
        // requires.
        const bool retier =
            event.kind == kRetier && async_.reprofile_every > 0.0;
        check_snapshot(
            (event.kind == kOutage || event.kind == kRejoin || retier) &&
                node.is_leaf,
            "outage, rejoin or retier event (on a leaf)");
      }
    }
    checkpointer.resume(queue.now());
    get_blob(source,
             [&](util::ByteSource& blob) { fault.restore_state(blob); });
    get_blob(source, hooks_.restore_state);
    get_metrics(source);
    util::log_info("hier: resumed from ", async_.resume_path, " at root v",
                   out.result.rounds.size(), ", t=", queue.now());
  }

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
    checkpointer.crash_if_due(fault.crash_at(), queue.peek().time);
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
        node.slot_models[tier] = fold_round(round);
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
        LinkPayload payload =
            receive(event, "uplink", metrics.uplinks, out.uplinks);
        const double delay = queue.now() - payload.send_time;
        const std::size_t bytes = payload.model.size() * sizeof(float);
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
        LinkPayload payload =
            receive(event, "downlink", metrics.downlinks, out.downlinks);
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
        count_node_event(node, "outage", metrics.outages, out.outage_count);
      } else if (event.kind == kRejoin) {
        node.offline = false;
        count_node_event(node, "rejoin", metrics.rejoins, out.rejoin_count);
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
        count_node_event(node, "retier", metrics.reprofiles,
                         out.reprofile_count);
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
    if (!stopping) {
      checkpointer.write_if_due(queue.now(), out.result.rounds.size(),
                                out.processed_events, save_state);
    }
  }

  recorder.finish(nodes[0].model, /*actor=*/0);
  clients_->check_leases_returned("TreeEngine");

  out.final_weights = nodes[0].model;
  out.node_rounds.reserve(num_nodes);
  out.node_update_mass.reserve(num_nodes);
  for (const AggregatorNode& node : nodes) {
    out.node_rounds.push_back(node.version);
    out.node_update_mass.push_back(node.update_mass);
  }
  out.result.phases = phases.stats();
  return out;
}

}  // namespace tifl::fl::hier
