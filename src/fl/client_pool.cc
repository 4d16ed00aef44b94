#include "fl/client_pool.h"

#include <algorithm>
#include <stdexcept>

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
      cache_capacity_(std::max<std::size_t>(1, config.cache_capacity)) {
  if (train_ == nullptr) {
    throw std::invalid_argument("ClientPool: null training dataset");
  }
  if (profiles_.size() != shards_.num_clients()) {
    throw std::invalid_argument("ClientPool: profile/shard count mismatch");
  }
  rebuild_segments(1);
}

ClientPool::ClientPool(ClientPool&& other) noexcept
    : clients_(other.clients_),
      train_(other.train_),
      shards_(std::move(other.shards_)),
      profiles_(std::move(other.profiles_)),
      cache_capacity_(other.cache_capacity_),
      segments_(std::move(other.segments_)),
      total_live_(other.total_live_.load()),
      peak_live_(other.peak_live_.load()),
      materializations_(other.materializations_.load()) {}

ClientPool& ClientPool::operator=(ClientPool&& other) noexcept {
  if (this != &other) {
    clients_ = other.clients_;
    train_ = other.train_;
    shards_ = std::move(other.shards_);
    profiles_ = std::move(other.profiles_);
    cache_capacity_ = other.cache_capacity_;
    segments_ = std::move(other.segments_);
    total_live_.store(other.total_live_.load());
    peak_live_.store(other.peak_live_.load());
    materializations_.store(other.materializations_.load());
  }
  return *this;
}

ClientPool::~ClientPool() = default;

std::size_t ClientPool::size() const {
  return clients_ != nullptr ? clients_->size() : shards_.num_clients();
}

void ClientPool::rebuild_segments(std::size_t n) {
  n = std::clamp<std::size_t>(n, 1, std::max<std::size_t>(1, size()));
  segments_.clear();
  segments_.reserve(n);
  // Equal capacity shares, rounded up so n segments never hold fewer
  // total entries than the single-cache capacity they replace.
  const std::size_t share = (cache_capacity_ + n - 1) / n;
  for (std::size_t s = 0; s < n; ++s) {
    segments_.push_back(std::make_unique<Segment>());
    segments_.back()->capacity = std::max<std::size_t>(1, share);
  }
}

void ClientPool::set_cache_segments(std::size_t n) {
  if (clients_ != nullptr) return;  // materialized backend: nothing to split
  if (total_live_.load(std::memory_order_relaxed) != 0) {
    throw std::logic_error(
        "ClientPool: cannot re-segment while clients are materialized");
  }
  rebuild_segments(n);
}

std::size_t ClientPool::segment_of(std::size_t id) const {
  const std::size_t n = segments_.size();
  const std::size_t population = size();
  if (n <= 1 || population == 0) return 0;
  if (id >= population) return n - 1;
  return id * n / population;
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
    return Lease(&clients_->at(id), nullptr, id);
  }
  if (id >= shards_.num_clients()) {
    throw std::out_of_range("ClientPool: client out of range");
  }
  PoolMetrics& metrics = pool_metrics();
  Segment& segment = *segments_[segment_of(id)];
  util::MutexLock lock(segment.mutex);
  auto it = segment.cache.find(id);
  if (it == segment.cache.end()) {
    // Miss: generate the shard from its view.  Virtual clients carry no
    // matched test shard — per-tier eval sets are a materialized-path
    // feature; the async engine evaluates on the shared test set.
    materializations_.fetch_add(1, std::memory_order_relaxed);
    metrics.lease_misses.add();
    auto entry = std::make_unique<Entry>(
        Client(id, train_, shards_.shard(id).materialize(), {},
               profiles_[id]));
    it = segment.cache.emplace(id, std::move(entry)).first;
    const std::size_t live =
        total_live_.fetch_add(1, std::memory_order_relaxed) + 1;
    raise_max(peak_live_, live);
    metrics.live.set(static_cast<double>(live));
    metrics.peak_live.set_max(static_cast<double>(live));
  } else {
    metrics.lease_hits.add();
    if (it->second->pins == 0) {
      segment.lru.erase(it->second->lru);  // pinned entries leave the list
    }
  }
  ++it->second->pins;
  return Lease(&it->second->client, this, id);
}

void ClientPool::release(std::size_t id) {
  Segment& segment = *segments_[segment_of(id)];
  util::MutexLock lock(segment.mutex);
  const auto it = segment.cache.find(id);
  if (it == segment.cache.end() || it->second->pins == 0) return;
  if (--it->second->pins == 0) {
    segment.lru.push_front(id);
    it->second->lru = segment.lru.begin();
    evict_overflow_locked(segment);
  }
}

void ClientPool::evict_overflow_locked(Segment& segment) {
  PoolMetrics& metrics = pool_metrics();
  while (segment.cache.size() > segment.capacity && !segment.lru.empty()) {
    const std::size_t victim = segment.lru.back();
    segment.lru.pop_back();
    segment.cache.erase(victim);
    total_live_.fetch_sub(1, std::memory_order_relaxed);
    metrics.evictions.add();
  }
  metrics.live.set(
      static_cast<double>(total_live_.load(std::memory_order_relaxed)));
}

std::size_t ClientPool::live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  return total_live_.load(std::memory_order_relaxed);
}

std::size_t ClientPool::peak_live_clients() const {
  if (clients_ != nullptr) return clients_->size();
  return peak_live_.load(std::memory_order_relaxed);
}

std::size_t ClientPool::materializations() const {
  return materializations_.load(std::memory_order_relaxed);
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

void CohortTrainer::train(ClientPool& clients,
                          std::span<const std::size_t> ids,
                          std::span<const float> global, double lr,
                          std::uint64_t seed, std::uint64_t seq,
                          std::vector<LocalUpdate>& updates,
                          obs::PhaseTimer& phases) {
  LocalTrainParams params = params_;
  params.lr = lr;
  const std::size_t count = ids.size();
  // Grown serially: lazy growth inside the parallel region is not safe.
  for (std::size_t i = 0; i < count; ++i) scratch(i + 1);
  updates.assign(count, LocalUpdate{});
  obs::ScopedPhase phase(&phases, obs::Phase::kTrain);
  leases_.clear();
  leases_.reserve(count);
  for (std::size_t id : ids) leases_.push_back(clients.lease(id));
  util::ThreadPool& pool = pool_ != nullptr ? *pool_ : util::global_pool();
  pool.parallel_for(0, count, [&](std::size_t i) {
    const Client& client = *leases_[i];
    util::Rng client_rng(util::mix_seed(seed, seq, client.id()));
    updates[i] =
        client.local_update(global, scratch_[i + 1], params, client_rng);
  });
  leases_.clear();
}

}  // namespace tifl::fl
