// Client-selection policy interface (v2, context-driven).
//
// One policy API drives both engines.  The engine hands the policy a
// `SelectionContext` describing *where* in the federation the selection
// happens and feeds back what it observed afterwards:
//
//  * Synchronous engine (Algorithm 1): one select() per round with
//    `context.tier == -1` — the policy picks the tier (or ignores tiers
//    entirely) and returns the round's clients.  TiFL's static and
//    adaptive tier policies (src/core) work this way; `VanillaPolicy`
//    below is the conventional-FL baseline that samples |C| clients
//    uniformly from the whole pool [McMahan et al., Bonawitz et al.].
//
//  * Asynchronous engine (FedAT-style per-tier cadence): one select()
//    per *tier round* with `context.tier >= 0` — the engine already knows
//    which tier is dispatching; the policy picks that round's member
//    sample from `context.candidates` and may bias the tier's cadence by
//    returning more, fewer, or zero clients (zero parks the tier until
//    the next global version).  `UniformTierPolicy` is the engine's
//    default and replays uniform self-sampling bit for bit.
//
// Policies advertise which engines they can drive via supports(); the
// engines reject mismatched policies up front instead of silently
// ignoring them.  Lifecycle notifications (on_join/on_leave/on_retier)
// let policies track dynamic populations on the async engine's churn
// path.  See fl/policy_registry.h for the string-keyed factory registry.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/serial.h"

namespace tifl::fl {

// Engines a policy can drive (see SelectionPolicy::supports).
enum class EngineKind { kSync, kAsync };

std::string engine_kind_name(EngineKind kind);

struct Selection {
  // Distinct ids: every engine rejects a repeat (check_distinct_clients).
  std::vector<std::size_t> clients;
  int tier = -1;  // tier index the clients came from; -1 = untiered
  // When > 0 and < clients.size(), the engine aggregates only the
  // `aggregate_count` fastest responders and discards the rest — the
  // over-provisioning straggler mitigation of Bonawitz et al. ("select
  // 130 % of the target number of devices, discard stragglers") that the
  // paper discusses in §2.  0 means aggregate everyone.  Synchronous
  // engine only.
  std::size_t aggregate_count = 0;
};

// Throws std::logic_error, naming `engine` and the id, when `clients`
// repeats an id; engines call it before training or scheduling.  A repeat
// would count one update twice, or stall an async dynamic-loop cohort.
void check_distinct_clients(const char* engine,
                            std::span<const std::size_t> clients);

// Read-only view of the engine's tier state at selection time.  The sync
// engine is tier-agnostic and passes an empty view (sync policies carry
// their own membership snapshot from core::TierInfo); the async engine
// fills all three spans, and on its dynamic path `members` reflects the
// *live* evolving membership after joins, leaves and re-tierings.
struct TierView {
  // members[t] = live client ids of tier t (fastest tier first).
  std::span<const std::vector<std::size_t>> members;
  // Submissions per tier so far (the async engine's update counts).
  std::span<const std::size_t> update_counts;
  // Global versions since each tier last submitted (0 for never-submitted
  // tiers and for the freshest tier).
  std::span<const std::size_t> staleness;

  std::size_t tier_count() const { return members.size(); }
  std::size_t tier_size(std::size_t t) const { return members[t].size(); }
  bool empty() const { return members.empty(); }
};

struct SelectionContext {
  // Sync: round index.  Async: current global version (completed tier
  // submissions so far).
  std::size_t round = 0;
  // Virtual seconds elapsed on the engine's clock/event timeline.
  double virtual_time = 0.0;
  // Async per-tier cadence: the tier whose round is being dispatched —
  // the policy samples *within* this tier.  -1 on the sync engine, where
  // the policy picks the tier itself.
  int tier = -1;
  // Async only: the dispatching tier's currently-eligible member ids
  // (the dynamic path excludes clients already in flight).  Returned
  // Selection::clients must come from this set.
  std::span<const std::size_t> candidates;
  TierView tiers;
  // The policy's dedicated RNG stream, forked from the run seed (the
  // async engine forks one stream per tier so cadences stay independent).
  // Never null when an engine builds the context.
  util::Rng* rng = nullptr;

  util::Rng& stream() const { return *rng; }

  // Minimal untiered context — the v1 `select(round, rng)` call shape,
  // used by the sync engine and directly by tests/benches.
  static SelectionContext untiered(std::size_t round, util::Rng& rng) {
    SelectionContext context;
    context.round = round;
    context.rng = &rng;
    return context;
  }
};

struct RoundFeedback {
  std::size_t round = 0;
  double virtual_time = 0.0;
  double global_accuracy = 0.0;
  double global_loss = 0.0;
  // Mean test accuracy per tier (Alg. 2's A_t^r); empty when the engine
  // has no tier evaluation sets or did not evaluate this round.
  std::vector<double> tier_accuracies;
  // Tier whose update produced this round/global version (sync: the
  // selected tier; -1 when untiered).
  int submitting_tier = -1;
  // Async: how many global versions old the submitted update was at
  // aggregation time.  Always 0 on the sync engine.
  std::size_t staleness = 0;
};

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  virtual Selection select(const SelectionContext& context) = 0;

  // v1 call shape, kept as sugar for untiered callers (tests, benches,
  // the sync engine's own plumbing).  Derived classes re-expose it with
  // `using SelectionPolicy::select;`.
  Selection select(std::size_t round, util::Rng& rng) {
    return select(SelectionContext::untiered(round, rng));
  }

  virtual void observe(const RoundFeedback& feedback) { (void)feedback; }
  virtual std::string name() const = 0;

  // True when observe() consumes RoundFeedback::tier_accuracies — lets
  // the async path skip scoring per-tier test index lists (a hit flag
  // per test row and a walk over every tier's rows per evaluated version;
  // the forward pass is the global one) for policies that would discard
  // them.
  virtual bool needs_tier_feedback() const { return false; }

  // Which engines this policy can drive.  Default: synchronous only —
  // driving the async engine's per-tier cadence requires an explicit
  // within-tier sampling strategy.
  virtual bool supports(EngineKind kind) const {
    return kind == EngineKind::kSync;
  }

  // --- dynamic-population notifications (async churn path) ------------------
  // `tier` is where the engine placed the joiner.
  virtual void on_join(std::size_t client, std::size_t tier) {
    (void)client;
    (void)tier;
  }
  virtual void on_leave(std::size_t client) { (void)client; }
  // Full new membership after an online re-tiering (tier_count() lists).
  virtual void on_retier(std::span<const std::vector<std::size_t>> members) {
    (void)members;
  }

  // --- checkpoint/resume ------------------------------------------------------
  // Serialize/restore the policy's mutable state (probabilities, credits,
  // accuracy histories, ...).  Stateless policies — every selection a pure
  // function of the SelectionContext and its RNG stream — keep the no-op
  // default; the engine's snapshot still records the policy name and
  // rejects a resume under a different policy.
  virtual void save_state(util::ByteSink& sink) const { (void)sink; }
  virtual void restore_state(util::ByteSource& source) { (void)source; }
};

class VanillaPolicy final : public SelectionPolicy {
 public:
  VanillaPolicy(std::size_t num_clients, std::size_t clients_per_round);

  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override;
  std::string name() const override { return "vanilla"; }

 private:
  std::size_t num_clients_;
  std::size_t clients_per_round_;
};

// Over-provisioning baseline [Bonawitz et al., discussed in §2]: selects
// ceil(factor * target) clients uniformly at random and tells the engine
// to aggregate only the `target` fastest responders.  Trades wasted
// client work (and the data of the discarded stragglers) for shorter
// rounds — the strategy TiFL's tiering is designed to replace.  Sync
// only: "discard the stragglers" has no meaning when every tier proceeds
// at its own pace.
class OverProvisionPolicy final : public SelectionPolicy {
 public:
  OverProvisionPolicy(std::size_t num_clients, std::size_t target,
                      double factor = 1.3);

  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override;
  std::string name() const override { return "overprovision"; }

  std::size_t selected_per_round() const { return selected_per_round_; }

 private:
  std::size_t num_clients_;
  std::size_t target_;
  std::size_t selected_per_round_;
};

// The async engine's default: sample `clients_per_tier_round` members
// uniformly from the dispatching tier — exactly the uniform self-sampling
// the engine hard-coded before the policy seam existed (a determinism
// ctest asserts the replay is bit-for-bit).  Async only: it has no way to
// pick a tier by itself.
class UniformTierPolicy final : public SelectionPolicy {
 public:
  explicit UniformTierPolicy(std::size_t clients_per_tier_round);

  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override;
  std::string name() const override { return "uniform-async"; }
  bool supports(EngineKind kind) const override {
    return kind == EngineKind::kAsync;
  }

 private:
  std::size_t clients_per_tier_round_;
};

// Uniform sample of `count` distinct values from [0, n) — partial
// Fisher-Yates; shared by every policy implementation.
std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t count,
                                                    util::Rng& rng);

}  // namespace tifl::fl
