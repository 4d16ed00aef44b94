#include "core/system.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/policy_registry.h"
#include "core/retier.h"

namespace tifl::core {

std::vector<std::vector<std::size_t>> build_tier_eval_indices(
    const TierInfo& tiers, const std::vector<fl::Client>& clients) {
  std::vector<std::vector<std::size_t>> sets;
  sets.reserve(tiers.tier_count());
  for (const std::vector<std::size_t>& member_ids : tiers.members) {
    std::vector<std::size_t>& indices = sets.emplace_back();
    for (std::size_t id : member_ids) {
      const std::vector<std::size_t>& shard = clients.at(id).test_indices();
      indices.insert(indices.end(), shard.begin(), shard.end());
    }
    std::sort(indices.begin(), indices.end());
  }
  return sets;
}

TiflSystem::TiflSystem(SystemConfig config, nn::ModelFactory factory,
                       const data::Dataset* test,
                       std::vector<fl::Client> clients,
                       sim::LatencyModel latency_model)
    : config_(config),
      latency_model_(latency_model),
      test_(test),
      factory_(std::move(factory)) {
  if (test == nullptr) {
    throw std::invalid_argument("TiflSystem: null test dataset");
  }
  register_builtin_policies();

  // Engine first (it takes ownership of the clients), then the wrapper
  // pool over its stable storage; profiling + tiering run off the pool.
  engine_ = std::make_unique<fl::Engine>(config_.engine, factory_,
                                         std::move(clients), test,
                                         latency_model);
  pool_.emplace(&engine_->clients());
  profile_and_tier();
  engine_->set_tier_eval_indices(
      build_tier_eval_indices(tiers_, engine_->clients()));
}

TiflSystem::TiflSystem(SystemConfig config, nn::ModelFactory factory,
                       const data::Dataset* test, fl::ClientPool pool,
                       sim::LatencyModel latency_model)
    : config_(config),
      latency_model_(latency_model),
      test_(test),
      factory_(std::move(factory)) {
  if (test == nullptr) {
    throw std::invalid_argument("TiflSystem: null test dataset");
  }
  register_builtin_policies();
  pool_.emplace(std::move(pool));
  profile_and_tier();
}

// Profiling (§4.2) + tiering shared by both construction modes: measure
// every client (pool-level state only — no materialization), mark
// dropouts, then histogram-split the mean latencies into m tiers.
void TiflSystem::profile_and_tier() {
  obs::ScopedPhase phase(&profile_phases_, obs::Phase::kProfile);
  util::Rng profile_rng(config_.profile_seed);
  profile_ =
      profile_clients(*pool_, latency_model_, config_.profiler, profile_rng);
  tiers_ = build_tiers(profile_, config_.num_tiers, config_.tiering);
  tiers_match_profile_ = true;
}

void TiflSystem::prepend_profile_phases(fl::RunResult& result) const {
  const std::vector<obs::PhaseStat> stats = profile_phases_.stats();
  result.phases.insert(result.phases.begin(), stats.begin(), stats.end());
}

fl::Engine& TiflSystem::engine() {
  if (engine_ == nullptr) {
    throw std::logic_error(
        "TiflSystem: the synchronous engine is unavailable on a virtualized "
        "client pool; use run_async");
  }
  return *engine_;
}

fl::PolicyContext TiflSystem::policy_context() const {
  fl::PolicyContext context;
  context.num_clients = pool_->size();
  context.clients_per_round = config_.clients_per_round;
  context.clients_per_tier_round = config_.async.clients_per_tier_round;
  context.total_rounds = config_.engine.rounds;
  context.tier_members = tiers_.members;
  context.tier_avg_latency = tiers_.avg_latency;
  context.client_mean_latency = profile_.mean_latency;
  context.client_dropout = profile_.dropout;
  return context;
}

std::unique_ptr<fl::SelectionPolicy> TiflSystem::make_policy(
    const std::string& name) const {
  return fl::make_policy(name, policy_context());
}

std::unique_ptr<fl::SelectionPolicy> TiflSystem::make_vanilla() const {
  return std::make_unique<fl::VanillaPolicy>(pool_->size(),
                                             config_.clients_per_round);
}

std::unique_ptr<fl::SelectionPolicy> TiflSystem::make_static(
    const std::string& table1_name) const {
  return make_static(table1_probs(table1_name, tiers_.tier_count()),
                     table1_name);
}

std::unique_ptr<fl::SelectionPolicy> TiflSystem::make_static(
    std::vector<double> probs, const std::string& name) const {
  return std::make_unique<StaticTierPolicy>(
      tiers_, std::move(probs), config_.clients_per_round, name);
}

std::unique_ptr<fl::SelectionPolicy> TiflSystem::make_adaptive(
    AdaptiveConfig adaptive) const {
  adaptive.clients_per_round = config_.clients_per_round;
  return std::make_unique<AdaptiveTierPolicy>(tiers_, adaptive,
                                              config_.engine.rounds);
}

fl::RunResult TiflSystem::run(fl::SelectionPolicy& policy,
                              std::optional<std::uint64_t> seed_override) {
  fl::RunResult result = engine().run(policy, seed_override);
  prepend_profile_phases(result);
  return result;
}

fl::AsyncConfig TiflSystem::resolve_async(
    std::optional<fl::AsyncConfig> async) const {
  fl::AsyncConfig resolved = async.value_or(config_.async);
  if (resolved.total_updates == 0) {
    resolved.total_updates = config_.engine.rounds;
  }
  if (resolved.clients_per_tier_round == 0) {
    resolved.clients_per_tier_round = config_.clients_per_round;
  }
  if (resolved.time_budget_seconds == 0.0) {
    resolved.time_budget_seconds = config_.engine.time_budget_seconds;
  }
  return resolved;
}

fl::AsyncRunResult TiflSystem::run_async(
    std::optional<fl::AsyncConfig> async,
    std::optional<std::uint64_t> seed_override,
    fl::SelectionPolicy* policy) {
  bool any_members = false;
  for (const std::vector<std::size_t>& members : tiers_.members) {
    any_members = any_members || !members.empty();
  }
  if (!any_members) {
    throw std::runtime_error(
        "TiflSystem::run_async: no live clients remain (a previous churned "
        "run drained the population); call reprofile() to re-admit them");
  }
  const fl::AsyncConfig resolved = resolve_async(std::move(async));
  fl::AsyncEngine engine(config_.engine, resolved, factory_, &*pool_,
                         tiers_.members, test_, latency_model_);
  if (policy != nullptr) {
    engine.set_policy(policy);
    // Feed Alg. 2-style policies their per-tier accuracies (TestData_t) —
    // but only when the policy consumes them: scoring the tier index
    // lists adds a hit flag per test row and a walk over every tier's
    // rows to each evaluated version (no extra forward pass).  A
    // virtualized pool has no matched test shards to index; the policy
    // then sees empty tier_accuracies and carries zeros forward.
    if (engine_ != nullptr && policy->needs_tier_feedback()) {
      engine.set_tier_eval_indices(
          build_tier_eval_indices(tiers_, engine_->clients()));
    }
  }

  if (!engine.dynamic()) {
    fl::AsyncRunResult out = engine.run(seed_override);
    prepend_profile_phases(out.result);
    return out;
  }

  // Dynamic lifecycle: back the engine's join/leave/reprofile events with
  // an OnlineReTierer.  The engine reports what it observes; the
  // re-tierer owns the decayed latency estimates and reruns the §4.2
  // tiering algorithm on each ReProfile event.  tiers_ tracks the
  // rebuilt membership so the caller sees the post-run tier structure —
  // and a later dynamic run continues from it: the retierer's active set
  // is derived from the *current* tiers_ (matching the engine's live
  // set), so clients who left in a previous run form the next run's
  // join reserve.  On the first run this equals the profiling dropout
  // set exactly.  reprofile() resets to a fresh profile.
  RetierConfig retier_config;
  retier_config.num_tiers = config_.num_tiers;
  retier_config.strategy = config_.tiering;
  retier_config.ema_alpha = resolved.latency_ema_alpha;
  std::vector<bool> inactive(profile_.mean_latency.size(), true);
  for (const std::vector<std::size_t>& members : tiers_.members) {
    for (std::size_t id : members) inactive[id] = false;
  }
  // When tiers_ is still verbatim build_tiers(profile_) output, the
  // rebuild the retierer's constructor would run reproduces it exactly
  // (same latencies, same inactive set) — seed it instead of paying the
  // O(n log n) tiering again, which dominated run setup at 1M clients.
  // After a dynamic run has evolved the membership the estimates no
  // longer match the profile, so fall back to the rebuilding constructor.
  std::optional<OnlineReTierer> retierer_storage;
  if (tiers_match_profile_) {
    retierer_storage.emplace(retier_config, profile_.mean_latency,
                             std::move(inactive), tiers_);
  } else {
    retierer_storage.emplace(retier_config, profile_.mean_latency,
                             std::move(inactive));
  }
  OnlineReTierer& retierer = *retierer_storage;

  fl::LifecycleHooks hooks;
  hooks.observe = [&retierer](std::size_t client, double latency) {
    retierer.observe(client, latency);
  };
  hooks.left = [&retierer](std::size_t client) {
    retierer.set_active(client, false);
  };
  hooks.joined = [&retierer](std::size_t client, double expected_latency) {
    retierer.set_active(client, true);
    // The engine's estimate carries any slowdown multiplier the client
    // picked up before leaving — a drifted rejoiner lands in a slow tier.
    retierer.seed_latency(client, expected_latency);
    return retierer.place(client);
  };
  hooks.retier = [this, &retierer]() {
    tiers_ = retierer.rebuild();
    tiers_match_profile_ = false;
    return tiers_.members;
  };
  // Durability: the retierer's decayed latency estimates and active set
  // ride inside the engine's snapshot, so a resumed run re-tiers exactly
  // as the uninterrupted one would have.
  hooks.save_state = [&retierer](util::ByteSink& sink) {
    retierer.save_state(sink);
  };
  hooks.restore_state = [&retierer](util::ByteSource& source) {
    retierer.restore_state(source);
  };
  engine.set_lifecycle_hooks(std::move(hooks));
  fl::AsyncRunResult out = engine.run(seed_override);

  // Final sync: tiers() reflects the membership the run actually ended
  // with — leavers dropped, joiners where the run placed them — taken
  // verbatim from the engine.  Deliberately NOT a rebuild(): with
  // reprofile_every == 0 the tiering must stay frozen apart from the
  // population changes, and with re-tiering on, the last ReProfile's
  // partition stands until the next one would have fired.
  tiers_ = TierInfo{};
  tiers_match_profile_ = false;
  tiers_.members = std::move(out.final_members);
  out.final_members = tiers_.members;
  tiers_.avg_latency.assign(tiers_.members.size(), 0.0);
  for (std::size_t t = 0; t < tiers_.members.size(); ++t) {
    double sum = 0.0;
    for (std::size_t id : tiers_.members[t]) sum += retierer.latency(id);
    if (!tiers_.members[t].empty()) {
      tiers_.avg_latency[t] =
          sum / static_cast<double>(tiers_.members[t].size());
    }
  }
  const std::vector<bool>& gone = retierer.inactive();
  for (std::size_t c = 0; c < gone.size(); ++c) {
    if (gone[c]) tiers_.dropouts.push_back(c);
  }
  // Keep the sync engine's per-tier evaluation sets in step with the
  // evolved membership (as reprofile() does) so a later sync run reports
  // tier accuracies over the right clients.  A virtualized pool has no
  // sync engine (and no matched test shards) to keep in step.
  if (engine_ != nullptr) {
    engine_->set_tier_eval_indices(
        build_tier_eval_indices(tiers_, engine_->clients()));
  }
  prepend_profile_phases(out.result);
  return out;
}

fl::hier::HierRunResult TiflSystem::run_hier(
    fl::hier::HierConfig hier, std::optional<fl::AsyncConfig> async,
    std::optional<std::uint64_t> seed_override, fl::SelectionPolicy* policy) {
  // A flat topology IS the flat federation: delegate to run_async so the
  // full async feature set (policies, dynamic lifecycle, event log) keeps
  // working behind `--regions 1`, byte-for-byte the non-hier run.
  if (hier.topology.is_flat()) {
    fl::AsyncRunResult flat = run_async(std::move(async), seed_override,
                                        policy);
    fl::hier::HierRunResult out;
    out.collapsed = true;
    out.result = std::move(flat.result);
    out.final_weights = std::move(flat.final_weights);
    out.processed_events = flat.processed_events;
    out.max_event_batch = flat.max_event_batch;
    out.node_rounds = {out.result.rounds.size()};
    out.node_update_mass = {0};
    for (std::size_t updates : flat.tier_updates) {
      out.node_update_mass[0] += updates;
    }
    return out;
  }
  if (policy != nullptr) {
    throw std::invalid_argument(
        "TiflSystem::run_hier: selection policies only apply to the flat "
        "(collapse) path; multi-region leaves sample uniformly per tier");
  }

  const fl::AsyncConfig resolved = resolve_async(std::move(async));
  const std::size_t num_clients = pool_->size();
  hier.topology.validate(num_clients);
  const std::vector<std::size_t> leaf_nodes = hier.topology.leaves();
  const std::vector<std::size_t> region_of =
      hier.topology.assign_clients(num_clients);

  // Live population: whatever the current tiering admits (profiling
  // dropouts — and leavers from a previous churned flat run — excluded).
  std::vector<bool> live(num_clients, false);
  for (const std::vector<std::size_t>& members : tiers_.members) {
    for (std::size_t id : members) live[id] = true;
  }

  // §4.2 tiering per region: the same build_tiers algorithm over the same
  // profiled latencies, with every client outside the region (or not
  // live) treated as a dropout.
  std::vector<std::vector<std::vector<std::size_t>>> leaf_tiers;
  std::vector<TierInfo> leaf_partitions;
  leaf_tiers.reserve(leaf_nodes.size());
  leaf_partitions.reserve(leaf_nodes.size());
  std::vector<std::vector<bool>> leaf_dropout(leaf_nodes.size());
  for (std::size_t leaf = 0; leaf < leaf_nodes.size(); ++leaf) {
    const fl::hier::NodeSpec& spec = hier.topology.nodes[leaf_nodes[leaf]];
    const std::size_t num_tiers = std::max<std::size_t>(
        1, spec.num_tiers > 0 ? spec.num_tiers : hier.tiers_per_region);
    std::vector<bool> dropout(num_clients, true);
    for (std::size_t c = 0; c < num_clients; ++c) {
      dropout[c] = !(live[c] && region_of[c] == leaf);
    }
    TierInfo partition = build_tiers(profile_.mean_latency, dropout,
                                     num_tiers, config_.tiering);
    leaf_tiers.push_back(partition.members);
    leaf_partitions.push_back(std::move(partition));
    leaf_dropout[leaf] = std::move(dropout);
  }

  fl::hier::TreeEngine engine(config_.engine, resolved, std::move(hier),
                              factory_, &*pool_, std::move(leaf_tiers), test_,
                              latency_model_);

  // One OnlineReTierer per leaf region: each rebuilds its own region's
  // tiers from what that region's training rounds observed, exactly as
  // the flat dynamic path does for the whole population.  Their EMA
  // estimates ride the run snapshot (save/restore below) so a resumed
  // run re-tiers identically.
  std::vector<OnlineReTierer> retierers;
  if (resolved.reprofile_every > 0.0) {
    retierers.reserve(leaf_nodes.size());
    for (std::size_t leaf = 0; leaf < leaf_nodes.size(); ++leaf) {
      RetierConfig retier_config;
      retier_config.num_tiers = leaf_partitions[leaf].tier_count();
      retier_config.strategy = config_.tiering;
      retier_config.ema_alpha = resolved.latency_ema_alpha;
      // The just-built partition is verbatim build_tiers output over
      // these exact inputs, so adopt it instead of re-tiering.
      retierers.emplace_back(retier_config, profile_.mean_latency,
                             std::move(leaf_dropout[leaf]),
                             std::move(leaf_partitions[leaf]));
    }
    fl::hier::HierLifecycleHooks hooks;
    hooks.observe = [&retierers](std::size_t leaf, std::size_t client,
                                 double latency) {
      retierers[leaf].observe(client, latency);
    };
    hooks.retier = [&retierers](std::size_t leaf) {
      return retierers[leaf].rebuild().members;
    };
    hooks.save_state = [&retierers](util::ByteSink& sink) {
      for (const OnlineReTierer& retierer : retierers) {
        retierer.save_state(sink);
      }
    };
    hooks.restore_state = [&retierers](util::ByteSource& source) {
      for (OnlineReTierer& retierer : retierers) {
        retierer.restore_state(source);
      }
    };
    engine.set_lifecycle_hooks(std::move(hooks));
  }

  fl::hier::HierRunResult out = engine.run(seed_override);
  prepend_profile_phases(out.result);
  return out;
}

double TiflSystem::estimate_time(const std::string& table1_name) const {
  return estimate_time(table1_probs(table1_name, tiers_.tier_count()));
}

double TiflSystem::estimate_time(std::span<const double> tier_probs) const {
  return estimate_training_time(tiers_, tier_probs, config_.engine.rounds);
}

std::vector<std::size_t> TiflSystem::tier_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(tiers_.tier_count());
  for (const auto& members : tiers_.members) sizes.push_back(members.size());
  return sizes;
}

fl::Client& TiflSystem::client(std::size_t id) {
  return engine().mutable_clients().at(id);
}

double TiflSystem::reprofile(std::uint64_t seed) {
  obs::ScopedPhase phase(&profile_phases_, obs::Phase::kProfile);
  util::Rng profile_rng(seed);
  profile_ =
      profile_clients(*pool_, latency_model_, config_.profiler, profile_rng);
  tiers_ = build_tiers(profile_, config_.num_tiers, config_.tiering);
  tiers_match_profile_ = true;
  if (engine_ != nullptr) {
    engine_->set_tier_eval_indices(
        build_tier_eval_indices(tiers_, engine_->clients()));
  }
  return profile_.profiling_time;
}

}  // namespace tifl::core
