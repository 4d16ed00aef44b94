// Asynchronous tier execution engine (FedAT-style, Chai et al. 2020).
//
// Where the synchronous engine pays Eq. 1's max() over every selected
// client each round, here each *tier* trains and submits updates at its
// own cadence on a shared discrete-event timeline (sim::EventQueue):
//
//   per tier round: the selection policy samples the tier's members
//   (default: |C| uniform; see set_policy) -> train them from a
//   snapshot of the current global model -> the tier's completion event
//   fires after the slowest member's simulated latency -> FedAvg the tier
//   update into the tier's model -> recompute the global model as a
//   staleness-weighted cross-tier average -> the tier immediately starts
//   its next round from the new global model.
//
// Fast tiers therefore contribute many slightly-stale updates while slow
// tiers contribute few very-stale ones; the staleness function controls
// how the server discounts (or, for inverse-frequency, boosts) each
// tier's model in the cross-tier average.
//
// Determinism matches the sync engine's guarantee: client training RNGs
// are forked by (dispatch sequence, client id), per-tier selection and
// latency streams are forked from the run seed, and all reductions
// happen in event order — so a run is bit-reproducible regardless of
// thread scheduling.  Tier 0's selection/latency streams deliberately
// reuse the sync engine's fork tags: a single-tier async run with the
// constant staleness function replays a sync VanillaPolicy run *exactly*
// (a ctest asserts bitwise-equal weights).
//
// Both run paths (run_static, run_dynamic) and hier::TreeEngine share one
// copy of the plumbing: the cohort draw (fl::Candidates::draw, which both
// loops reach through the policy, the default UniformTierPolicy included,
// and the tree's leaves call directly), cohort training
// (fl::CohortTrainer), the tier-round fold (fl::fold_round), cross-slot
// aggregation (aggregate_slots below), the version record
// (fl::VersionRecorder), config validation (validate_async_config below),
// and the snapshot pieces and checkpointer (fl/snapshot): each loop
// declares its payload once, and its checkpoint writer and resume path
// both run that declaration.  On the dynamic loop the policy's
// candidates are a view of the tier's id set with its in-flight clients
// skipped by rank, so no selection copies a tier.
// Every cohort trains from the global model of its dispatch: run_static
// and the tree's leaves train it at dispatch, and run_dynamic keeps a
// copy of that model and trains it, together with every other waiting
// cohort, when the first of their updates is needed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <functional>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/engine.h"
#include "fl/evaluation.h"
#include "fl/metrics.h"
#include "fl/policy.h"
#include "nn/sequential.h"
#include "sim/churn_model.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "sim/latency_model.h"
#include "util/serial.h"

namespace tifl::util {
class ThreadPool;
}

namespace tifl::fl {

// How the server discounts a tier model that is `staleness` global
// versions old when recomputing the cross-tier average.
enum class StalenessFn {
  kConstant,          // every submitted tier weighs 1
  kPolynomial,        // (1 + staleness)^-alpha  [FedAsync, Xie et al.]
  kInverseFrequency,  // 1 + (u_max - u_t): boost rarely-updating (slow)
                      // tiers to counter fast-tier bias [FedAT]
};

StalenessFn parse_staleness(const std::string& name);
std::string staleness_name(StalenessFn fn);

// Decay factor for one tier model: 1 for kConstant/kInverseFrequency
// (which weighs by update counts, not age), (1+s)^-alpha for kPolynomial.
double staleness_factor(StalenessFn fn, double alpha, std::size_t staleness);

// Normalized cross-tier aggregation weights.  `update_counts[t]` is how
// many rounds tier t has submitted, `staleness[t]` how many global
// versions ago it last submitted.  Tiers with zero submissions get weight
// 0; the rest sum to exactly 1.
std::vector<double> cross_tier_weights(StalenessFn fn, double alpha,
                                       std::span<const std::size_t> update_counts,
                                       std::span<const std::size_t> staleness);

// Recompute `global` as the weighted average of `tier_models`
// (double-precision reduction in slot order; zero-weight slots skipped).
// `accum` is caller-owned scratch, hoisted out of event loops.  Shared
// with the fl/hier aggregator tree, where a node's child (or tier) slots
// play the role the flat engine's tiers play.
void aggregate_global(const std::vector<std::vector<float>>& tier_models,
                      const std::vector<double>& weights,
                      std::vector<float>& global, std::vector<double>& accum);

// Slot ages at `version` (0 for never-submitted slots) ->
// cross_tier_weights -> aggregate_global into `global`; returns the
// weights.  Slots are the flat loops' tiers or a fl/hier node's inputs.
std::vector<double> aggregate_slots(
    StalenessFn fn, double alpha, std::span<const std::size_t> update_counts,
    std::span<const std::size_t> last_version, std::size_t version,
    const std::vector<std::vector<float>>& models, std::vector<float>& global,
    std::vector<double>& accum);

struct AsyncConfig {
  StalenessFn staleness = StalenessFn::kConstant;
  double poly_alpha = 0.5;            // kPolynomial decay exponent
  // Total number of global model versions (tier submissions) to produce —
  // the async analogue of EngineConfig::rounds.  0 = inherit rounds.
  std::size_t total_updates = 0;
  // Clients sampled per tier round (capped at tier size).  0 = inherit
  // SystemConfig::clients_per_round.
  std::size_t clients_per_tier_round = 0;
  double time_budget_seconds = 0.0;   // stop once virtual time crosses; 0 = off
  std::size_t eval_every = 1;         // global-version evaluation cadence

  // --- dynamic client lifecycle --------------------------------------------
  // Join/leave/slowdown event streams on the shared timeline.  Any
  // positive rate (or reprofile_every > 0) switches the engine to the
  // dynamic path: per-client update submission, churn handling, online
  // re-tiering.  All-zero churn with reprofile_every == 0 runs the exact
  // static-population code path, bit for bit.
  sim::ChurnConfig churn;
  // Virtual seconds between online re-tierings (ReProfile events); 0 = the
  // initial tiering stays frozen for the whole run.
  double reprofile_every = 0.0;
  // EMA weight for the observed-latency estimates that feed re-tiering.
  double latency_ema_alpha = 0.3;
  // Take the dynamic path (per-client submission) even with zero churn
  // and no re-profiling — a churn-free baseline comparable version-for-
  // version with churned runs.
  bool dynamic_lifecycle = false;

  // Inert: nothing reads it; bench/tifl_bench still sets and prints it.
  std::size_t shards = 1;

  // --- durability ------------------------------------------------------------
  // Virtual seconds between full-run snapshots (fl::save_snapshot into
  // `checkpoint_path`); 0 disables checkpointing.  A snapshot captures the
  // complete resumable state — model + per-tier models, RNG stream
  // positions, policy and re-tierer state, in-flight cohorts, the event
  // queue — so a killed run resumed from it replays the uninterrupted run
  // byte for byte.  Checkpoints fire at batch boundaries (never as queue
  // events), so enabling them perturbs no (time, seq) keys.
  double checkpoint_every = 0.0;
  std::string checkpoint_path;  // required when checkpoint_every > 0
  // Load this snapshot and continue the run it captured instead of
  // starting fresh.  The snapshot's config fingerprint, population and
  // policy must match.
  std::string resume_path;
  // Append-only CRC-framed log of processed events (sim::EventLogWriter);
  // truncated to the snapshot's horizon on resume.  Empty = off.
  std::string event_log_path;
  // Seeded fault injection: server crash point + client update loss with
  // deterministic retry/backoff (see sim::FaultModel).
  sim::FaultConfig fault;
};

// The checks of the inputs both async engines read, called from the
// AsyncEngine and hier::TreeEngine constructors: throws
// std::invalid_argument, naming `engine`, on the first bad one.
void validate_async_config(const AsyncConfig& async, const ClientPool* clients,
                           const data::Dataset* test, const char* engine);

// Callbacks the dynamic lifecycle path raises toward the tiering layer
// (core::TiflSystem wires these to an OnlineReTierer; the engine itself
// stays ignorant of how tiers are computed).  All optional except
// `retier`, which is required when reprofile_every > 0.
struct LifecycleHooks {
  // One observed end-to-end response latency (includes mid-round
  // slowdowns) for a completed client update.
  std::function<void(std::size_t client, double latency)> observe;
  // A client joined; `expected_latency` is the engine's current estimate
  // for it (including any persistent slowdown multiplier it picked up
  // before leaving).  Returns the tier to place it in until the next
  // re-profile.  When absent the engine places the joiner into the tier
  // whose live members' mean expected latency is nearest.
  std::function<std::size_t(std::size_t client, double expected_latency)>
      joined;
  std::function<void(std::size_t client)> left;
  // ReProfile fired: return the full new tier membership (exactly
  // tier_count() lists over live clients).  Pending rounds keep running;
  // the new membership only affects future sampling.
  std::function<std::vector<std::vector<std::size_t>>()> retier;
  // Durability seam: serialize/restore the tiering layer's online state
  // (core::TiflSystem wires these to OnlineReTierer::save_state /
  // restore_state) into the engine's run snapshot, so a resumed run
  // re-tiers from the exact EMA estimates the killed run had.
  std::function<void(util::ByteSink&)> save_state;
  std::function<void(util::ByteSource&)> restore_state;
};

struct AsyncRunResult {
  // One RoundRecord per global version: selected_tier is the submitting
  // tier, round_latency its tier-round duration (dynamic path: the
  // submitting client's own response latency), virtual_time the event
  // timestamp.  The sync-engine metrics helpers (time_to_accuracy,
  // accuracy_at_time, write_csv) all apply unchanged.
  RunResult result;
  std::vector<float> final_weights;        // for bit-reproducibility checks
  std::vector<std::size_t> tier_updates;   // submissions per tier
  std::vector<double> mean_staleness;      // mean submit staleness per tier
  std::vector<double> final_tier_weights;  // cross-tier weights at the end
  // Dynamic-lifecycle accounting (zero on the static path except
  // final_live_clients, which counts the tier members).
  std::size_t join_count = 0;
  std::size_t leave_count = 0;
  std::size_t slowdown_count = 0;
  std::size_t reprofile_count = 0;
  std::size_t final_live_clients = 0;
  // Event-loop accounting: total events consumed and the largest
  // same-timestamp batch pop_batch handed the loop (1 = no simultaneity).
  std::size_t processed_events = 0;
  std::size_t max_event_batch = 0;
  // Tier membership the run ended with: the input tiers on the static
  // path; on the dynamic path, the evolved membership after every leave,
  // join and re-tiering.
  std::vector<std::vector<std::size_t>> final_members;
};

class AsyncEngine {
 public:
  // `pool` is non-owning and must outlive the engine; `tier_members`
  // holds client ids per tier (fastest first, as in core::TierInfo) —
  // empty tiers are skipped, dropouts must already be excluded.  The
  // engine only touches client *training state* through short-lived
  // leases around dispatch, so a virtualized pool keeps memory bounded by
  // the in-flight cohort regardless of the federation size.
  AsyncEngine(EngineConfig config, AsyncConfig async,
              nn::ModelFactory factory, ClientPool* pool,
              std::vector<std::vector<std::size_t>> tier_members,
              const data::Dataset* test, sim::LatencyModel latency_model);

  // Convenience overload over a materialized population (non-owning, must
  // outlive the engine): wraps `clients` in an internal pass-through pool.
  AsyncEngine(EngineConfig config, AsyncConfig async,
              nn::ModelFactory factory, const std::vector<Client>* clients,
              std::vector<std::vector<std::size_t>> tier_members,
              const data::Dataset* test, sim::LatencyModel latency_model);

  AsyncRunResult run(std::optional<std::uint64_t> seed_override = {});

  // --- selection-policy seam -------------------------------------------------
  // Installs the policy that picks each tier round's member sample (and
  // may bias tier cadence through the returned count; an empty selection
  // parks the tier until the next global version).  Non-owning; nullptr
  // restores the default `UniformTierPolicy`, which replays the engine's
  // historical uniform self-sampling bit for bit.  Throws when the policy
  // does not support the async engine.
  void set_policy(SelectionPolicy* policy);
  // Per-tier held-out evaluation sets (Alg. 2's TestData_t) as row index
  // lists into the test set, one list per tier.  When set,
  // RoundFeedback::tier_accuracies is filled on every evaluated global
  // version, which is what feeds adaptive selection on the async path.
  // They are scored from the hit flags of the global test pass, and
  // evaluation never touches the run's RNG streams, so installing them
  // does not perturb training results.  Throws std::invalid_argument on a
  // list count other than tier_count() or, naming the tier, on an index
  // past the test set's end.
  void set_tier_eval_indices(std::vector<std::vector<std::size_t>> indices);

  std::size_t tier_count() const { return tier_members_.size(); }
  // True when this configuration takes the dynamic lifecycle path.
  bool dynamic() const {
    return async_.churn.active() || async_.reprofile_every > 0.0 ||
           async_.dynamic_lifecycle;
  }

  // Tiering-layer callbacks for the dynamic path (no-op otherwise).
  void set_lifecycle_hooks(LifecycleHooks hooks);

  // Train and evaluate on a specific pool instead of the process-global
  // one (the cross-pool determinism tests pin pool sizes 1/2/8).
  // Non-owning; nullptr restores the global pool.
  void set_thread_pool(util::ThreadPool* pool) {
    trainer_.set_thread_pool(pool);
  }

 private:
  void validate() const;

  AsyncRunResult run_static(std::uint64_t seed, SelectionPolicy& policy);
  AsyncRunResult run_dynamic(std::uint64_t seed, SelectionPolicy& policy);
  // One pass over the test set through trainer_.evaluate;
  // subset_accuracies holds the tier accuracies (empty without tier eval
  // index lists).
  Evaluation evaluate(std::span<const float> weights);

  EngineConfig config_;
  AsyncConfig async_;
  nn::ModelFactory factory_;
  std::unique_ptr<ClientPool> owned_pool_;  // vector-overload wrapper
  ClientPool* clients_;
  std::vector<std::vector<std::size_t>> tier_members_;
  const data::Dataset* test_;
  sim::LatencyModel latency_model_;
  LifecycleHooks hooks_;
  SelectionPolicy* policy_ = nullptr;  // non-owning; null = uniform default
  std::vector<std::vector<std::size_t>> tier_eval_indices_;
  CohortTrainer trainer_{factory_, config_.local};
};

}  // namespace tifl::fl
