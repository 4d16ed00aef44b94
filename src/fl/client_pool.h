// Client population abstraction: the engines' view of "who exists".
//
// The materialized backend wraps the classic std::vector<Client> (every
// client's shard vectors resident for the whole run — fine up to a few
// thousand clients).  The virtual backend holds only {resource profile,
// lazy shard descriptor} per client — O(bytes) each — and materializes a
// Client's training state (its index vectors) on demand while it is
// selected / in flight, behind a small LRU of live scratch.  Cold clients
// cost nothing beyond their profile, which is what lets `tifl_run
// --clients 1000000` run in bounded memory: the working set is the
// in-flight cohort, not the federation.  Materialization is a pure
// function of the id, so the Client bytes a lease yields never depend on
// what the cache held.
//
// Access pattern contract: leases are acquired and released on the
// engine's event thread (dispatch is serial); worker threads only *read*
// through leased const Client&.  The cache is mutex-guarded anyway so
// concurrent leases stay safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/partition.h"
#include "fl/client.h"
#include "fl/evaluation.h"
#include "nn/sequential.h"
#include "sim/resource_profile.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tifl::obs {
class PhaseTimer;
}
namespace tifl::util {
class ThreadPool;
}

namespace tifl::fl {

class ClientPool {
 public:
  // Materialized backend: borrows an existing population (non-owning;
  // `clients` must outlive the pool).  Leases alias the vector directly —
  // no caching, no copies.
  explicit ClientPool(const std::vector<Client>* clients);

  // Virtual backend: lazy shards + per-client profiles, materializing at
  // most ~cache_capacity clients at a time (never fewer than the pinned
  // set — the cache grows past capacity rather than evict a leased
  // client, and shrinks back as leases drop).
  struct VirtualConfig {
    const data::Dataset* train = nullptr;
    data::LazyShards shards{1, 1, {}, 0};
    std::vector<sim::ResourceProfile> profiles;  // size == shards.num_clients()
    std::size_t cache_capacity = 64;
  };
  explicit ClientPool(VirtualConfig config);

  ClientPool(ClientPool&&) noexcept;
  ClientPool& operator=(ClientPool&&) noexcept;
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;
  ~ClientPool();

  std::size_t size() const;
  bool virtualized() const { return clients_ == nullptr; }

  // O(1), no materialization: profiles and shard sizes are pool state,
  // not Client state — latency sampling over a million cold clients never
  // touches the cache.
  const sim::ResourceProfile& resource(std::size_t id) const;
  std::size_t train_size(std::size_t id) const;

  // Pins client `id`'s materialized state for the lease's lifetime.
  // Virtual backend: a cache hit is free, a miss generates the shard's
  // index vector from its ShardView.  Move-only RAII; unpinning may evict.
  // Both backends count the leases outstanding.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    const Client& operator*() const { return *client_; }
    const Client* operator->() const { return client_; }

   private:
    friend class ClientPool;
    Lease(const Client* client, ClientPool* pool, std::size_t id)
        : client_(client), pool_(pool), id_(id) {}

    const Client* client_ = nullptr;
    ClientPool* pool_ = nullptr;  // null when empty or moved from
    std::size_t id_ = 0;
  };
  Lease lease(std::size_t id);

  // Cache accounting (bench/tests): currently materialized clients, the
  // high-water mark, and how many misses built a Client from its shard.
  std::size_t live_clients() const;
  std::size_t peak_live_clients() const;
  std::size_t materializations() const;

  // Leases taken and not yet released, on either backend.
  std::size_t outstanding_leases() const;
  // The end-of-run invariant the engines check: throws std::logic_error,
  // naming `engine` and the count, while any lease is outstanding.
  void check_leases_returned(const char* engine) const;

 private:
  struct Entry {
    Client client;
    std::size_t pins = 0;
    std::list<std::size_t>::iterator lru;  // valid iff pins == 0

    Entry(Client c) : client(std::move(c)) {}
  };

  // The virtual backend's cache: unique_ptr-held because the mutex pins
  // it in place, which keeps the pool movable.
  struct Cache {
    mutable util::Mutex mutex;
    std::unordered_map<std::size_t, std::unique_ptr<Entry>> entries
        GUARDED_BY(mutex);
    std::list<std::size_t> lru GUARDED_BY(mutex);  // unpinned, MRU first
  };

  void release(std::size_t id);
  void evict_overflow_locked(Cache& cache) REQUIRES(cache.mutex);

  // Materialized backend (null for virtual).
  const std::vector<Client>* clients_ = nullptr;

  // Virtual backend state.
  const data::Dataset* train_ = nullptr;
  data::LazyShards shards_{1, 1, {}, 0};
  std::vector<sim::ResourceProfile> profiles_;
  std::size_t cache_capacity_ = 0;
  std::unique_ptr<Cache> cache_;
  // Accounting read without the cache lock: the live count's high-water
  // mark, total materializations and outstanding leases.
  std::atomic<std::size_t> peak_live_{0};
  std::atomic<std::size_t> materializations_{0};
  std::atomic<std::size_t> outstanding_{0};
};

// Trains cohorts from model snapshots, and evaluates the global model,
// on one set of scratch models: one per (cohort, member) pair of a
// training call, from slot 1, and one per participant of an evaluation,
// from slot 0.  A lease is held per pair for exactly the training call,
// and client RNGs are forked by mix_seed(seed, seq, client id), so a pair
// trains the same on any thread pool and in any batch of cohorts.
// Evaluation caches nothing in a layer (inference forward passes), so it
// leaves training on the same models untouched.
class CohortTrainer {
 public:
  // `params` is the local training config; each cohort sets its lr.
  CohortTrainer(nn::ModelFactory factory, LocalTrainParams params)
      : factory_(std::move(factory)), params_(params) {}

  // Non-owning; nullptr = the process-global pool.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  // The pool training and evaluation run on.
  util::ThreadPool& thread_pool() const;

  // fl::evaluate_weights on this trainer's pool, one scratch model per
  // participant (pool size + 1): 16-row blocks of `dataset` in one
  // parallel_for region, folded in `chunk`-sized steps.  That gives the
  // doubles a serial loop over `chunk`-row mini-batches gave, except for
  // a layer with K > kKC where that loop's chunk or tail held at most 12
  // rows (the stream GEMM path; evaluation.h).
  Evaluation evaluate(std::span<const float> weights,
                      const data::Dataset& dataset, std::size_t chunk,
                      std::span<const std::vector<std::size_t>> subsets = {});

  // One cohort of a training call: `ids` train from `base` at learning
  // rate `lr` with the streams of dispatch `seq`, into `*updates` (same
  // order as `ids`; each cohort of a call needs its own vector).
  struct Cohort {
    std::span<const std::size_t> ids;
    std::span<const float> base;
    double lr = 0.0;
    std::uint64_t seq = 0;
    std::vector<LocalUpdate>* updates = nullptr;
  };

  // Trains every (cohort, member) pair in one fork-join region.  The
  // pairs are leased for the call only, and each participant claims them
  // one at a time from a shared counter, so uneven clients balance
  // across the pool.  Records one kTrain phase.  If pairs throw, every
  // pair still runs and the first throwing pair's exception (in cohort,
  // then member order) is rethrown.
  void train(ClientPool& clients, std::span<const Cohort> cohorts,
             std::uint64_t seed, obs::PhaseTimer& phases);

  // One cohort: trains `ids` from `global` at `lr` into `updates`.
  void train(ClientPool& clients, std::span<const std::size_t> ids,
             std::span<const float> global, double lr, std::uint64_t seed,
             std::uint64_t seq, std::vector<LocalUpdate>& updates,
             obs::PhaseTimer& phases) {
    const Cohort cohort{ids, global, lr, seq, &updates};
    train(clients, std::span<const Cohort>(&cohort, 1), seed, phases);
  }

 private:
  nn::Sequential& scratch(std::size_t slot);

  nn::ModelFactory factory_;
  LocalTrainParams params_;
  util::ThreadPool* pool_ = nullptr;
  std::vector<nn::Sequential> scratch_;
};

}  // namespace tifl::fl
