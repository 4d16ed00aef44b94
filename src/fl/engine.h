// Synchronous federated-learning round engine (Algorithm 1 of the paper,
// following Google's FL system architecture):
//
//   per round: policy selects |C| clients -> selected clients train in
//   parallel on the thread pool -> round latency = max of the clients'
//   simulated response latencies (Eq. 1) advances virtual time ->
//   FedAvg aggregation -> global model evaluated on the test set (one
//   forward pass, which also scores the per-tier evaluation index lists
//   when configured) -> feedback to the policy.
//
// Training and recording run through the core the async engines share:
// fl::CohortTrainer trains the cohort and fl::VersionRecorder evaluates on
// the cadence, carries accuracy forward and feeds the policy.  Evaluation
// is fl::CohortTrainer::evaluate: one parallel_for region over the
// trainer's thread pool, each participant running 16-row blocks of the
// test set on one of the trainer's scratch models, folded in kEvalChunk
// steps (fl/evaluation.h).  Blocks of 16 rows or more keep a layer with
// K > kKC off the stream GEMM path, so every row scores as in one
// whole-set pass; only a serial loop whose chunk or tail held at most 12
// rows rounded such a layer differently.  What stays
// here is Eq. 1: selection, latency sampling with over-provisioning,
// secure aggregation, FedAvg over the kept updates, lr decay and the time
// budget.
//
// Determinism: every client's training RNG is forked from the run seed by
// (round, client id), and aggregation reduces in selection order with
// double-precision accumulators, so a run is bit-reproducible regardless
// of thread scheduling or pool size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/metrics.h"
#include "fl/policy.h"
#include "nn/sequential.h"
#include "sim/latency_model.h"

namespace tifl::util {
class ThreadPool;
}

namespace tifl::fl {

struct EngineConfig {
  std::size_t rounds = 500;
  LocalTrainParams local;            // epochs / batch / optimizer / DP
  double lr_decay_per_round = 0.995; // applied to the effective lr each round
  std::size_t eval_every = 1;        // global+tier eval cadence (rounds)
  std::uint64_t seed = 1;
  // Finite training budget (§4.5: "the training time and resource budget
  // is typically finite"): stop after the first round whose completion
  // pushes virtual time past this many seconds.  0 = unlimited.
  double time_budget_seconds = 0.0;
  // Aggregate through pairwise-masking secure aggregation (§2's rationale
  // for synchronous rounds).  Incompatible with policies that discard
  // stragglers (Selection::aggregate_count): masks of dropped clients
  // would not cancel — the exact failure mode the full Bonawitz protocol
  // adds dropout recovery for.  The engine throws in that combination.
  bool secure_aggregation = false;
  std::uint64_t secure_session_key = 0xCAFE;
};

class Engine {
 public:
  // Throws std::invalid_argument on an empty population, a null test set
  // or eval_every == 0.
  Engine(EngineConfig config, nn::ModelFactory factory,
         std::vector<Client> clients, const data::Dataset* test,
         sim::LatencyModel latency_model);

  // Per-tier held-out evaluation sets (Alg. 2's TestData_t) as row index
  // lists into the test set.  When set, RoundFeedback::tier_accuracies is
  // filled on every evaluation round, from the hit flags of the global
  // test pass: no tier row is evaluated twice.  Throws
  // std::invalid_argument, naming the tier, for an index past the test
  // set's end.
  void set_tier_eval_indices(std::vector<std::vector<std::size_t>> indices);

  // Runs the full federation under `policy`, starting from fresh global
  // weights derived from config.seed (or `seed_override` when provided —
  // used by the bench harness to average over independent runs).  When
  // the time budget ends the run on a round the eval cadence skips, the
  // last record is re-evaluated on the final model.
  RunResult run(SelectionPolicy& policy,
                std::optional<std::uint64_t> seed_override = {});

  const std::vector<Client>& clients() const { return clients_; }
  // Mutable access for mid-run resource drift (re-profiling scenarios).
  std::vector<Client>& mutable_clients() { return clients_; }

  // Train and evaluate on a specific pool instead of the process-global
  // one (the cross-pool determinism tests pin pool sizes 1/2/8).
  // Non-owning; nullptr restores the global pool.
  void set_thread_pool(util::ThreadPool* pool) {
    trainer_.set_thread_pool(pool);
  }

 private:
  EngineConfig config_;
  nn::ModelFactory factory_;
  std::vector<Client> clients_;
  const data::Dataset* test_;
  sim::LatencyModel latency_model_;
  std::vector<std::vector<std::size_t>> tier_eval_indices_;
  CohortTrainer trainer_{factory_, config_.local};
};

}  // namespace tifl::fl
