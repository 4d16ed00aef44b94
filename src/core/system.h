// TiflSystem — the top-level public API tying the whole reproduction
// together, mirroring Fig. 2 of the paper: profiler & tiering algorithm +
// tier scheduler wrapped around a conventional FL aggregator/engine.
//
// Construction runs the profiling phase and builds the tiers; the caller
// then creates policies bound to those tiers and runs federations:
//
//   core::TiflSystem system(cfg, factory, &train, &test, clients, latency);
//   auto policy = system.make_static("uniform");
//   fl::RunResult result = system.run(*policy);
//
// TiFL is non-intrusive by design (§4.1): policies only regulate client
// selection; the underlying engine and training loop are the vanilla FL
// substrate from src/fl.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/estimator.h"
#include "core/profiler.h"
#include "core/static_policy.h"
#include "core/tiering.h"
#include "fl/async_engine.h"
#include "fl/client_pool.h"
#include "fl/engine.h"
#include "fl/hier/tree_engine.h"
#include "fl/policy_registry.h"
#include "obs/phase.h"

namespace tifl::core {

struct SystemConfig {
  std::size_t num_tiers = 5;          // m
  TieringStrategy tiering = TieringStrategy::kQuantile;
  ProfilerConfig profiler;
  fl::EngineConfig engine;
  // Defaults for run_async; zero-valued fields inherit from `engine` /
  // `clients_per_round` at run time.
  fl::AsyncConfig async;
  std::size_t clients_per_round = 5;  // |C|
  std::uint64_t profile_seed = 7;
};

class TiflSystem {
 public:
  TiflSystem(SystemConfig config, nn::ModelFactory factory,
             const data::Dataset* test, std::vector<fl::Client> clients,
             sim::LatencyModel latency_model);

  // Virtualized population (million-client federations): profiling and
  // tiering run off the pool's O(1) per-client state, and only run_async
  // is available — the synchronous engine (and its per-tier evaluation
  // sets) requires materialized clients.  engine(), run() and client()
  // throw in this mode.
  TiflSystem(SystemConfig config, nn::ModelFactory factory,
             const data::Dataset* test, fl::ClientPool pool,
             sim::LatencyModel latency_model);

  const TierInfo& tiers() const { return tiers_; }
  const ProfileResult& profile() const { return profile_; }
  fl::Engine& engine();
  const SystemConfig& config() const { return config_; }
  // The population every engine run draws from: wraps the sync engine's
  // clients in classic mode, owns the virtual population in pool mode.
  fl::ClientPool& client_pool() { return *pool_; }
  bool virtualized() const { return engine_ == nullptr; }

  // --- policy factories bound to this system's tiers ----------------------
  // The registry is the canonical way to resolve a policy by name
  // ("adaptive", "vanilla", every Table 1 preset, "deadline", …): it
  // builds the policy against this system's population, tiering and
  // profiling snapshot, and unknown names throw listing the valid
  // options.  See fl/policy_registry.h; custom policies registered there
  // resolve here too.
  std::unique_ptr<fl::SelectionPolicy> make_policy(
      const std::string& name) const;
  // The snapshot make_policy hands to registry factories — exposed so
  // callers can resolve names through fl::make_policy directly.
  fl::PolicyContext policy_context() const;

  // Typed factories for programmatic construction (custom probability
  // vectors, custom AdaptiveConfig).  For by-name lookup prefer
  // make_policy; these remain for configs the registry cannot express.
  std::unique_ptr<fl::SelectionPolicy> make_vanilla() const;
  // `table1_name` in {"slow","uniform","random","fast","fast1".."fast3"}.
  std::unique_ptr<fl::SelectionPolicy> make_static(
      const std::string& table1_name) const;
  std::unique_ptr<fl::SelectionPolicy> make_static(
      std::vector<double> probs, const std::string& name) const;
  std::unique_ptr<fl::SelectionPolicy> make_adaptive(
      AdaptiveConfig config = {}) const;

  fl::RunResult run(fl::SelectionPolicy& policy,
                    std::optional<std::uint64_t> seed_override = {});

  // Asynchronous tier execution (FedAT-style): every tier trains at its
  // own cadence on a discrete-event timeline and the server keeps
  // per-tier model versions combined by a staleness-weighted average.
  // `async` overrides config().async; zero-valued total_updates /
  // clients_per_tier_round / time_budget_seconds inherit engine.rounds /
  // clients_per_round / engine.time_budget_seconds.
  // `policy` (non-owning, optional) drives per-tier member selection: the
  // engine asks it for every tier round's sample, so Alg. 2 runs on the
  // async path (`make_policy("adaptive")`), fed by per-tier accuracies
  // scored on the tier evaluation index lists.  Null keeps the default
  // uniform self-sampling, bit-identical to the policy-free engine.
  //
  // Dynamic client lifecycle: when async.churn has a positive rate or
  // async.reprofile_every > 0, the run handles joins, leaves and
  // mid-round slowdowns on the event queue, and on every ReProfile event
  // rebuilds the tiers from an exponentially-decayed observed-latency
  // estimate (OnlineReTierer over the same build_tiers algorithm) without
  // restarting — tier models survive the migration, and tiers() reflects
  // the final membership after the run.  All-zero churn with
  // reprofile_every == 0 replays the static-population engine bit for
  // bit.
  fl::AsyncRunResult run_async(
      std::optional<fl::AsyncConfig> async = {},
      std::optional<std::uint64_t> seed_override = {},
      fl::SelectionPolicy* policy = nullptr);

  // Hierarchical multi-level aggregation (edge → regional → global):
  // splits the population across the topology's leaf regions, re-runs the
  // §4.2 tiering *per region* over the profiled latencies, and executes
  // the aggregator tree on the async discrete-event timeline
  // (fl::hier::TreeEngine).  `async` resolves exactly like run_async's;
  // `--rounds` (total_updates) counts root aggregations.  A flat (single
  // node) topology delegates to run_async outright — byte-for-byte the
  // flat federation, with full policy / dynamic-lifecycle support.  This
  // is the only flat collapse (TreeEngine rejects flat topologies), and
  // multi-region trees accept a policy only on it.
  // When async.reprofile_every > 0, one core::OnlineReTierer per leaf
  // rebuilds that region's tier membership from observed latencies; the
  // re-tierers' state rides the run snapshot, so --resume re-tiers
  // exactly as the uninterrupted run would have.
  fl::hier::HierRunResult run_hier(
      fl::hier::HierConfig hier, std::optional<fl::AsyncConfig> async = {},
      std::optional<std::uint64_t> seed_override = {},
      fl::SelectionPolicy* policy = nullptr);

  // Eq. 6 estimate for a Table 1 policy under this system's tiering.
  double estimate_time(const std::string& table1_name) const;
  double estimate_time(std::span<const double> tier_probs) const;

  // Sizes of each tier (used by privacy accounting and tests).
  std::vector<std::size_t> tier_sizes() const;

  // Re-runs profiling and tiering against the clients' *current* resource
  // profiles and rebuilds the per-tier evaluation sets (§4.2: "the
  // profiling and tiering can be conducted periodically for systems with
  // changing computation and communication performance over time").
  // Policies hold a snapshot of the tiers, so create fresh policies from
  // the factories after calling this.  Returns the new profiling cost in
  // virtual seconds.
  double reprofile(std::uint64_t seed);

  // Mutable access so callers can model mid-run resource drift before a
  // reprofile (e.g. a device heating up or moving to a slower link).
  fl::Client& client(std::size_t id);

 private:
  void profile_and_tier();
  // `async` (or config().async) with zero total_updates /
  // clients_per_tier_round / time_budget_seconds inherited from the sync
  // config; also splits a virtual pool's cache into one segment per shard.
  fl::AsyncConfig resolve_async(std::optional<fl::AsyncConfig> async);
  // Splices the profiling phase's wall time ahead of a run's own phase
  // stats, so `tifl_run --report` shows the full profile/select/train/
  // aggregate/eval breakdown.
  void prepend_profile_phases(fl::RunResult& result) const;

  SystemConfig config_;
  // Wall time spent in profile_and_tier / reprofile (obs::Phase::kProfile).
  obs::PhaseTimer profile_phases_;
  TierInfo tiers_;
  // True while tiers_ is verbatim build_tiers(profile_) output (set by
  // profile_and_tier / reprofile, cleared once a dynamic run evolves the
  // membership).  Lets run_async seed the OnlineReTierer with the
  // already-built partition instead of re-running the O(n log n) tiering
  // over a million clients — bit-identical, since build_tiers is a pure
  // function of inputs the retierer would pass unchanged.
  bool tiers_match_profile_ = false;
  ProfileResult profile_;
  sim::LatencyModel latency_model_;
  const data::Dataset* test_ = nullptr;
  nn::ModelFactory factory_;  // kept for run_async engine construction
  std::unique_ptr<fl::Engine> engine_;  // null in pool (virtualized) mode
  // Classic mode: pass-through wrapper over engine_->clients() (engine_
  // owns the vector; its heap address is stable).  Pool mode: the owned
  // virtual population.  Engaged in both modes after construction.
  std::optional<fl::ClientPool> pool_;
};

// Builds the per-tier evaluation sets (Alg. 2's TestData_t) as row index
// lists into the global test set: each tier's list is the union of its
// member clients' matched held-out shards, sorted, duplicates kept.  The
// engines score them from their global test pass.
std::vector<std::vector<std::size_t>> build_tier_eval_indices(
    const TierInfo& tiers, const std::vector<fl::Client>& clients);

}  // namespace tifl::core
