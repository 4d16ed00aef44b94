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
// in-flight cohort, not the federation.
//
// Sharded runtime: `set_cache_segments(n)` splits the virtual cache into
// n contiguous id ranges, each with its own mutex, map and LRU — the
// client-pool half of the worker-shard partitioning (the event-queue half
// is sim::ShardedEventQueue).  Segmentation only changes which lock a
// lease takes and which LRU it ages in: materialization is a pure
// function of the id, so the Client bytes a lease yields are identical at
// every segment count.  Only the pool.* cache counters (hits/misses/
// evictions) may shift, which is why determinism comparisons filter them.
//
// Access pattern contract: leases are acquired and released on the
// engine's event thread (dispatch is serial); worker threads only *read*
// through leased const Client&.  The per-segment caches are mutex-guarded
// anyway so concurrent leases stay safe.
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

  // Splits the virtual cache into `n` segments over contiguous id ranges
  // (clamped to [1, size()]), each owning mutex + map + LRU and an equal
  // share of the capacity.  One segment (the default) is byte-for-byte
  // the legacy single-cache behavior.  Must be called while no client is
  // materialized (throws otherwise — segment boundaries cannot move under
  // live entries); no-op on the materialized backend.
  void set_cache_segments(std::size_t n);
  std::size_t cache_segments() const { return segments_.size(); }
  // Segment owning `id`'s cache slot (contiguous ranges, same arithmetic
  // as sim::ShardedEventQueue::shard_of).
  std::size_t segment_of(std::size_t id) const;

  // O(1), no materialization: profiles and shard sizes are pool state,
  // not Client state — latency sampling over a million cold clients never
  // touches the cache.
  const sim::ResourceProfile& resource(std::size_t id) const;
  std::size_t train_size(std::size_t id) const;

  // Pins client `id`'s materialized state for the lease's lifetime.
  // Virtual backend: a cache hit is free, a miss generates the shard's
  // index vector from its ShardView.  Move-only RAII; unpinning may evict.
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
    ClientPool* pool_ = nullptr;  // null for the materialized backend
    std::size_t id_ = 0;
  };
  Lease lease(std::size_t id);

  // Cache accounting (bench/tests): currently materialized clients, the
  // high-water mark, and how many misses built a Client from its shard.
  // Totals span every segment.
  std::size_t live_clients() const;
  std::size_t peak_live_clients() const;
  std::size_t materializations() const;

 private:
  struct Entry {
    Client client;
    std::size_t pins = 0;
    std::list<std::size_t>::iterator lru;  // valid iff pins == 0

    Entry(Client c) : client(std::move(c)) {}
  };

  // One cache segment: unique_ptr-held because the mutex pins it in
  // place.  `capacity` is this segment's share of the pool capacity
  // (set once at rebuild, read-only afterwards — not guarded).
  struct Segment {
    mutable util::Mutex mutex;
    std::unordered_map<std::size_t, std::unique_ptr<Entry>> cache
        GUARDED_BY(mutex);
    std::list<std::size_t> lru GUARDED_BY(mutex);  // unpinned, MRU first
    std::size_t capacity = 0;
  };

  void release(std::size_t id);
  void evict_overflow_locked(Segment& segment) REQUIRES(segment.mutex);
  void rebuild_segments(std::size_t n);

  // Materialized backend (null for virtual).
  const std::vector<Client>* clients_ = nullptr;

  // Virtual backend state.
  const data::Dataset* train_ = nullptr;
  data::LazyShards shards_{1, 1, {}, 0};
  std::vector<sim::ResourceProfile> profiles_;
  std::size_t cache_capacity_ = 0;
  std::vector<std::unique_ptr<Segment>> segments_;
  // Pool-wide accounting, lock-free so segments never take each other's
  // locks: live count, its high-water mark, and total materializations.
  std::atomic<std::size_t> total_live_{0};
  std::atomic<std::size_t> peak_live_{0};
  std::atomic<std::size_t> materializations_{0};
};

// Trains cohorts from a model snapshot: one scratch model per cohort slot
// (slot 0 is the evaluation model), a lease per member for exactly the
// training call, and client RNGs forked by mix_seed(seed, seq, client id),
// so a cohort trains the same on any thread pool.
class CohortTrainer {
 public:
  // `params` is the local training config; train() sets its lr.
  CohortTrainer(nn::ModelFactory factory, LocalTrainParams params)
      : factory_(std::move(factory)), params_(params) {}

  // Non-owning; nullptr = the process-global pool.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }
  nn::Sequential& eval_model() { return scratch(0); }

  // Trains `ids` from `global` at learning rate `lr` into `updates`
  // (same order).
  void train(ClientPool& clients, std::span<const std::size_t> ids,
             std::span<const float> global, double lr, std::uint64_t seed,
             std::uint64_t seq, std::vector<LocalUpdate>& updates,
             obs::PhaseTimer& phases);

 private:
  nn::Sequential& scratch(std::size_t slot);

  nn::ModelFactory factory_;
  LocalTrainParams params_;
  util::ThreadPool* pool_ = nullptr;
  std::vector<nn::Sequential> scratch_;
  std::vector<ClientPool::Lease> leases_;
};

}  // namespace tifl::fl
