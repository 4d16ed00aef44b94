#include "fl/client_pool.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "util/thread_pool.h"

namespace tifl::fl {

namespace {

// lease() is called once per sampled client per round — cheap enough to
// count unconditionally.  Hit rate is derived at snapshot time from
// hits / (hits + misses).
struct PoolMetrics {
  obs::Counter& lease_hits;
  obs::Counter& lease_misses;
  obs::Counter& evictions;
  obs::Gauge& live;
  obs::Gauge& peak_live;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{
      obs::Registry::global().counter("pool.lease_hits"),
      obs::Registry::global().counter("pool.lease_misses"),
      obs::Registry::global().counter("pool.evictions"),
      obs::Registry::global().gauge("pool.live_clients"),
      obs::Registry::global().gauge("pool.peak_live_clients"),
  };
  return m;
}

void raise_max(std::atomic<std::size_t>& slot, std::size_t v) {
  std::size_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

ClientPool::ClientPool(const std::vector<Client>* clients)
    : clients_(clients) {
  if (clients_ == nullptr || clients_->empty()) {
    throw std::invalid_argument("ClientPool: null or empty client vector");
  }
}

ClientPool::ClientPool(VirtualConfig config)
    : train_(config.train),
      shards_(std::move(config.shards)),
      profiles_(std::move(config.profiles)),
      cache_capacity_(std::max<std::size_t>(1, config.cache_capacity)),
      cache_(std::make_unique<Cache>()) {
  if (train_ == nullptr) {
    throw std::invalid_argument("ClientPool: null training dataset");
  }
  if (profiles_.size() != shards_.num_clients()) {
    throw std::invalid_argument("ClientPool: profile/shard count mismatch");
  }
}

ClientPool::ClientPool(ClientPool&& other) noexcept
    : clients_(other.clients_),
      train_(other.train_),
      shards_(std::move(other.shards_)),
      profiles_(std::move(other.profiles_)),
      cache_capacity_(other.cache_capacity_),
      cache_(std::move(other.cache_)),
      peak_live_(other.peak_live_.load()),
      materializations_(other.materializations_.load()),
      outstanding_(other.outstanding_.load()) {}

ClientPool& ClientPool::operator=(ClientPool&& other) noexcept {
  if (this != &other) {
    clients_ = other.clients_;
    train_ = other.train_;
    shards_ = std::move(other.shards_);
    profiles_ = std::move(other.profiles_);
    cache_capacity_ = other.cache_capacity_;
    cache_ = std::move(other.cache_);
    peak_live_.store(other.peak_live_.load());
    materializations_.store(other.materializations_.load());
    outstanding_.store(other.outstanding_.load());
  }
  return *this;
}

ClientPool::~ClientPool() = default;

std::size_t ClientPool::size() const {
  return clients_ != nullptr ? clients_->size() : shards_.num_clients();
}

const sim::ResourceProfile& ClientPool::resource(std::size_t id) const {
  if (clients_ != nullptr) return clients_->at(id).resource();
  if (id >= profiles_.size()) {
    throw std::out_of_range("ClientPool: client out of range");
  }
  return profiles_[id];
}

std::size_t ClientPool::train_size(std::size_t id) const {
  if (clients_ != nullptr) return clients_->at(id).train_size();
  return shards_.shard_size(id);
}

ClientPool::Lease ClientPool::lease(std::size_t id) {
  if (clients_ != nullptr) {
    const Client* client = &clients_->at(id);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    return Lease(client, this, id);
  }
  if (id >= shards_.num_clients()) {
    throw std::out_of_range("ClientPool: client out of range");
  }
  PoolMetrics& metrics = pool_metrics();
  Cache& cache = *cache_;
  util::MutexLock lock(cache.mutex);
  auto it = cache.entries.find(id);
  if (it == cache.entries.end()) {
    // Miss: generate the shard from its view.  Virtual clients carry no
    // matched test shard — per-tier eval sets are a materialized-path
    // feature; the async engine evaluates on the shared test set.
    materializations_.fetch_add(1, std::memory_order_relaxed);
    metrics.lease_misses.add();
    auto entry = std::make_unique<Entry>(
        Client(id, train_, shards_.shard(id).materialize(), {},
               profiles_[id]));
    it = cache.entries.emplace(id, std::move(entry)).first;
    const std::size_t live = cache.entries.size();
    raise_max(peak_live_, live);
    metrics.live.set(static_cast<double>(live));
    metrics.peak_live.set_max(static_cast<double>(live));
  } else {
    metrics.lease_hits.add();
    if (it->second->pins == 0) {
      cache.lru.erase(it->second->lru);  // pinned entries leave the list
    }
  }
  ++it->second->pins;
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  return Lease(&it->second->client, this, id);
}

void ClientPool::release(std::size_t id) {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (clients_ != nullptr) return;
  Cache& cache = *cache_;
  util::MutexLock lock(cache.mutex);
  const auto it = cache.entries.find(id);
  if (it == cache.entries.end() || it->second->pins == 0) return;
  if (--it->second->pins == 0) {
    cache.lru.push_front(id);
    it->second->lru = cache.lru.begin();
    evict_overflow_locked(cache);
  }
}

void ClientPool::evict_overflow_locked(Cache& cache) {
  PoolMetrics& metrics = pool_metrics();
  while (cache.entries.size() > cache_capacity_ && !cache.lru.empty()) {
    const std::size_t victim = cache.lru.back();
    cache.lru.pop_back();
    cache.entries.erase(victim);
    metrics.evictions.add();
  }
  metrics.live.set(static_cast<double>(cache.entries.size()));
}

std::size_t ClientPool::live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  util::MutexLock lock(cache_->mutex);
  return cache_->entries.size();
}

std::size_t ClientPool::peak_live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  return peak_live_.load(std::memory_order_relaxed);
}

std::size_t ClientPool::materializations() const {
  return materializations_.load(std::memory_order_relaxed);
}

std::size_t ClientPool::outstanding_leases() const {
  return outstanding_.load(std::memory_order_relaxed);
}

void ClientPool::check_leases_returned(const char* engine) const {
  const std::size_t outstanding = outstanding_leases();
  if (outstanding != 0) {
    throw std::logic_error(std::string(engine) + ": " +
                           std::to_string(outstanding) +
                           " client lease(s) still outstanding at the end "
                           "of the run");
  }
}

ClientPool::Lease::Lease(Lease&& other) noexcept
    : client_(other.client_), pool_(other.pool_), id_(other.id_) {
  other.client_ = nullptr;
  other.pool_ = nullptr;
}

ClientPool::Lease& ClientPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->release(id_);
    client_ = other.client_;
    pool_ = other.pool_;
    id_ = other.id_;
    other.client_ = nullptr;
    other.pool_ = nullptr;
  }
  return *this;
}

ClientPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(id_);
}

nn::Sequential& CohortTrainer::scratch(std::size_t slot) {
  while (scratch_.size() <= slot) {
    scratch_.push_back(factory_(/*seed=*/slot + 1));
  }
  return scratch_[slot];
}

util::ThreadPool& CohortTrainer::thread_pool() const {
  return pool_ != nullptr ? *pool_ : util::global_pool();
}

Evaluation CohortTrainer::evaluate(
    std::span<const float> weights, const data::Dataset& dataset,
    std::size_t chunk, std::span<const std::vector<std::size_t>> subsets) {
  util::ThreadPool& threads = thread_pool();
  const std::size_t participants = threads.size() + 1;
  // Grown before the span is taken: growing scratch_ moves the models.
  scratch(participants - 1);
  return evaluate_weights(std::span(scratch_).first(participants), threads,
                          weights, dataset, chunk, subsets);
}

void CohortTrainer::train(ClientPool& clients,
                          std::span<const Cohort> cohorts, std::uint64_t seed,
                          obs::PhaseTimer& phases) {
  // (cohort, member) pairs in cohort order, then selection order.
  std::vector<std::pair<const Cohort*, std::size_t>> pairs;
  for (const Cohort& cohort : cohorts) {
    cohort.updates->assign(cohort.ids.size(), LocalUpdate{});
    for (std::size_t i = 0; i < cohort.ids.size(); ++i) {
      pairs.emplace_back(&cohort, i);
    }
  }
  const std::size_t count = pairs.size();
  // Grown serially: lazy growth inside the parallel region is not safe.
  for (std::size_t k = 0; k < count; ++k) scratch(k + 1);
  obs::ScopedPhase phase(&phases, obs::Phase::kTrain);
  // Local, so every lease is released however the call exits.
  std::vector<ClientPool::Lease> leases;
  leases.reserve(count);
  for (const auto& [cohort, i] : pairs) {
    leases.push_back(clients.lease(cohort->ids[i]));
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  util::ThreadPool& threads = thread_pool();
  const std::size_t participants = std::min(count, threads.size() + 1);
  threads.parallel_for(0, participants, [&](std::size_t) {
    for (std::size_t k = next.fetch_add(1); k < count;
         k = next.fetch_add(1)) {
      const auto& [cohort, i] = pairs[k];
      LocalTrainParams params = params_;
      params.lr = cohort->lr;
      const Client& client = *leases[k];
      try {
        (*cohort->updates)[i] = client.local_update(
            cohort->base, scratch_[k + 1], params,
            util::Rng(util::mix_seed(seed, cohort->seq, client.id())));
      } catch (...) {
        errors[k] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace tifl::fl
