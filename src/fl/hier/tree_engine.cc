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
#include "fl/tier_rounds.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "sim/event_log.h"
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
  std::uint64_t h = mix_shared_knobs(
      util::mix_seed(0x481E4, seed), config, async, [&](std::uint64_t k) {
        return util::mix_seed(k, f(async.reprofile_every));
      });
  h = util::mix_seed(h, hier.topology.fingerprint(), hier.tiers_per_region);
  for (const sim::RegionalOutage& outage : hier.outages) {
    h = util::mix_seed(h, outage.region, f(outage.start));
    h = util::mix_seed(h, f(outage.duration));
  }
  return util::mix_seed(h, num_clients, weight_count);
}

constexpr SnapshotCheck check_snapshot{"TreeEngine"};

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
  for (std::size_t leaf = 0; leaf < leaf_tiers_.size(); ++leaf) {
    const auto& tiers = leaf_tiers_[leaf];
    const char* wrong = tiers.empty() ? "no tier"
                                      : membership_fault(tiers, tiers.size(),
                                                         clients_->size());
    if (wrong != nullptr) {
      throw std::invalid_argument("TreeEngine: leaf " + std::to_string(leaf) +
                                  " has " + wrong);
    }
    for (const auto& members : tiers) any_members |= !members.empty();
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
  const std::uint64_t seed = seed_override.value_or(config_.seed);
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
      node.rounds = TierRounds(inputs, config_.local.optimizer.lr);
      for (std::size_t t = 0; t < inputs; ++t) {
        node.rounds.selection_rng.push_back(
            util::Rng(util::mix_seed(util::mix_seed(seed, 0x41E0, n), t)));
        node.rounds.latency_rng.push_back(
            util::Rng(util::mix_seed(util::mix_seed(seed, 0x41E1, n), t)));
      }
    }
    if (!node.is_root) node.link_rng = sim::link_stream(seed, n);
  }

  sim::EventQueue queue;
  sim::FaultModel fault(async_.fault, seed);
  Redelivery deliver(fault, queue);
  std::map<std::uint64_t, LinkPayload> in_flight;
  const RoundInputs round_inputs{trainer_, *clients_, latency_model_,
                                 config_.local.epochs, seed, phases};

  HierRunResult out;
  out.result.policy_name = "hier/" + std::to_string(num_nodes) + "n/" +
                           staleness_name(async_.staleness);
  out.result.rounds.reserve(async_.total_updates);

  std::size_t dispatch_seq = 0;
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
    node.rounds.pending[tier].active = false;
    const std::vector<std::size_t>& members = node.tiers[tier];
    if (members.empty()) return;

    const std::size_t count =
        std::min(async_.clients_per_tier_round, members.size());
    obs::ScopedPhase select_phase(&phases, obs::Phase::kSelect);
    std::vector<std::size_t> selected =
        Candidates(members).draw(count, node.rounds.selection_rng[tier]);
    select_phase.stop();
    const double latency =
        node.rounds.launch(round_inputs, tier, std::move(selected),
                           node.version, node.model, dispatch_seq);
    queue.schedule(latency, kTierBase + tier, node.id);
    if (obs::Tracer* t = obs::tracer()) {
      t->span(queue.now(), latency, "hier", "tier_round",
              static_cast<std::int64_t>(node.id),
              {obs::field("tier", tier), obs::field("version", node.version),
               obs::field("clients", count)});
    }
  };

  // Starts every tier of `node` with no round in flight.
  const auto dispatch_idle = [&](AggregatorNode& node) {
    for (std::size_t t = 0; t < node.tiers.size(); ++t) {
      if (!node.rounds.pending[t].active) dispatch_tier(node, t);
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

  // The root aggregated: one global round.  False once the run is over.
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
    bool more = out.result.rounds.size() < async_.total_updates;
    if (async_.time_budget_seconds > 0.0 &&
        queue.now() >= async_.time_budget_seconds) {
      util::log_info("hier time budget of ", async_.time_budget_seconds,
                     "s exhausted after ", out.result.rounds.size(),
                     " root rounds");
      more = false;
    }
    return more;
  };

  // --- snapshot payload ------------------------------------------------------
  const SnapshotPrologue prologue{
      kSnapHier,
      hier_fingerprint(config_, async_, hier_, seed, clients_->size(),
                       weight_count),
      num_nodes, clients_->size(), weight_count, out.result.policy_name};
  // The checkpoint writer and the resume path both run this one
  // declaration.
  const auto io_payload = [&](auto& ar) {
    io_prologue(ar, prologue, "TreeEngine");
    for (AggregatorNode& node : nodes) io_node(ar, node);
    ar.io(dispatch_seq);
    io_records(ar, out.result.rounds);
    ar.io(recorder.last_evaluated);
    ar.io(out.uplinks);
    ar.io(out.downlinks);
    ar.io(out.outage_count);
    ar.io(out.rejoin_count);
    ar.io(out.reprofile_count);
    ar.io(out.root_link_bytes);
    ar.io(out.processed_events);
    ar.io(out.max_event_batch);
    // Stored for the record only: a resumed run re-arms from its own
    // cadence.
    double due = checkpointer.next_due();
    ar.io(due);
    io_map(ar, in_flight, 40, [&](LinkPayload& link) {
      ar.io(link.from);
      ar.io(link.updates);
      ar.io(link.send_time);
      ar.io(link.model);
    });
    io_queue(ar, queue, num_nodes);
    io_state(ar, fault);
    io_blob(ar, hooks_.save_state, hooks_.restore_state);
    io_metrics(ar);
  };

  const bool resuming = !async_.resume_path.empty();
  if (resuming) {
    const std::string payload = load_snapshot(async_.resume_path);
    util::ByteSource source(payload);
    io_payload(source);
    // Everything the event handlers index with or look up, before any
    // event runs.
    for (const AggregatorNode& node : nodes) {
      for (const std::vector<float>& model : node.slot_models) {
        check_snapshot(model.size() == weight_count, "slot model length");
      }
      check_snapshot(node.model.size() == weight_count, "node model length");
      for (const std::vector<std::size_t>& members : node.tiers) {
        for (std::size_t id : members) {
          check_snapshot(id < clients_->size(), "tier member");
        }
      }
      node.rounds.check(check_snapshot, node.tiers.size(), clients_->size(),
                        weight_count);
    }
    for (const auto& [seq, link] : in_flight) {
      check_snapshot(link.from < num_nodes, "link payload sender");
      check_snapshot(link.model.size() == weight_count,
                     "link payload model length");
    }
    for (const sim::Event& event : queue.pending()) {
      const AggregatorNode& node = nodes[event.actor];
      if (event.kind >= kTierBase) {
        check_snapshot(node.rounds.trained(event.kind - kTierBase),
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
    util::log_info("hier: resumed from ", async_.resume_path, " at root v",
                   out.result.rounds.size(), ", t=", queue.now());
  }

  if (!resuming) {
    for (std::size_t leaf : leaf_nodes) dispatch_idle(nodes[leaf]);
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
  const auto handle = [&](const sim::Event& event) {
    AggregatorNode& node = nodes[event.actor];

    if (event.kind >= kTierBase) {
      const std::size_t tier =
          static_cast<std::size_t>(event.kind - kTierBase);
      TierRounds& rounds = node.rounds;
      // Regional outage: the round's updates are lost with the region;
      // the tier re-dispatches at rejoin.
      if (node.offline) {
        rounds.abandon(tier);
        return true;
      }
      const Delivery delivery = deliver(event, rounds.retry_count[tier], tier);
      if (delivery == Delivery::kDropped) {
        rounds.abandon(tier);
        dispatch_tier(node, tier);
      }
      if (delivery != Delivery::kArrived) return true;

      // --- tier-level FedAvg into the tier's slot ------------------------
      const PendingTierRound& round = rounds.pending[tier];
      obs::ScopedPhase agg_phase(&phases, obs::Phase::kAggregate);
      rounds.fold(tier, node.version, config_.lr_decay_per_round,
                  node.slot_models[tier]);
      node.slot_updates[tier] += round.selected.size();
      node.slot_last_version[tier] = node.version;
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
          if (!record_root_round(slot, delay)) return false;
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
      dispatch_idle(node);
    } else if (event.kind == kRetier) {
      const std::size_t leaf = ordinal_of[node.id];
      std::vector<std::vector<std::size_t>> new_tiers = hooks_.retier(leaf);
      if (const char* wrong = membership_fault(new_tiers, node.tiers.size(),
                                               clients_->size())) {
        throw std::runtime_error("TreeEngine: retier hook for leaf " +
                                 std::to_string(leaf) + " returned " + wrong);
      }
      node.tiers = std::move(new_tiers);
      count_node_event(node, "retier", metrics.reprofiles,
                       out.reprofile_count);
      if (!node.offline) dispatch_idle(node);
      queue.schedule(async_.reprofile_every, kRetier, node.id);
    } else {
      throw std::logic_error("TreeEngine: unknown event kind");
    }
    return true;
  };
  const auto end_batch = [&] {
    return async_.time_budget_seconds <= 0.0 ||
           queue.now() < async_.time_budget_seconds;
  };
  run_batches(queue, checkpointer, fault, /*log=*/nullptr, metrics, out,
              io_payload, handle, end_batch);

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
