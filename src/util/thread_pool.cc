#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace tifl::util {

namespace {

using ChunkBody = std::function<void(std::size_t, std::size_t)>;

// Read by the nested-dispatch guard.  Set for a worker's whole life and
// for a calling thread while it runs its share of a region.
thread_local bool tl_in_region = false;

// Marks the calling thread as inside a parallel region for this object's
// scope and restores the previous mark on exit, unwinding included.
class RegionMark {
 public:
  RegionMark() : previous_(tl_in_region) { tl_in_region = true; }
  ~RegionMark() { tl_in_region = previous_; }

  RegionMark(const RegionMark&) = delete;
  RegionMark& operator=(const RegionMark&) = delete;

 private:
  bool previous_;
};

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// One region's shared state.  It lives on the calling thread's stack;
// its destructor waits for every helper expected to check out, so however
// the caller leaves, no helper can still reach the frame.
class Region {
 public:
  Region(std::size_t begin, std::size_t end, std::size_t chunk,
         const ChunkBody& body)
      : begin_(begin),
        end_(end),
        chunk_(chunk),
        chunks_(ceil_div(end - begin, chunk)),
        body_(body) {}
  ~Region() { join(); }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  std::size_t chunks() const noexcept { return chunks_; }

  // Claim and run chunks until none are left.  A throwing chunk ends
  // only itself; its exception is kept for the caller.
  void work() EXCLUDES(mutex_) {
    const RegionMark mark;
    for (;;) {
      const std::size_t c = next_.fetch_add(1);
      if (c >= chunks_) return;
      const std::size_t lo = begin_ + c * chunk_;
      try {
        body_(lo, std::min(end_, lo + chunk_));
      } catch (...) {
        fail(c, std::current_exception());
      }
    }
  }

  // Keeps the exception of the lowest-indexed chunk that threw, so the
  // one the caller sees does not depend on which finished first.
  void fail(std::size_t chunk, std::exception_ptr error) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (!error_ || chunk < error_chunk_) {
      error_ = std::move(error);
      error_chunk_ = chunk;
    }
  }

  void expect_helpers(std::size_t count) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    helpers_ += count;
  }

  // A helper's whole task.  Its last touch of the region is the unlock
  // that lets join() return.
  void help() EXCLUDES(mutex_) {
    work();
    MutexLock lock(mutex_);
    if (--helpers_ == 0) done_.notify_one();
  }

  // Wait until every expected helper has checked out; returns the kept
  // exception, if any.
  std::exception_ptr join() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (helpers_ > 0) done_.wait(mutex_);
    return error_;
  }

 private:
  const std::size_t begin_;
  const std::size_t end_;
  const std::size_t chunk_;
  const std::size_t chunks_;
  const ChunkBody& body_;
  std::atomic<std::size_t> next_{0};

  Mutex mutex_;
  CondVar done_;
  std::size_t helpers_ GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ GUARDED_BY(mutex_);
  std::size_t error_chunk_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop() {
  const RegionMark mark;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  const std::thread::id self = std::this_thread::get_id();
  return std::any_of(workers_.begin(), workers_.end(),
                     [self](const std::thread& w) { return w.get_id() == self; });
}

bool ThreadPool::in_parallel_region() noexcept { return tl_in_region; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

void ThreadPool::parallel_for_chunked(std::size_t begin, std::size_t end,
                                      const ChunkBody& chunk_body,
                                      std::size_t grain, std::size_t align) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // At most one chunk per participant, not below grain, rounded up to a
  // multiple of align.
  align = std::max<std::size_t>(1, align);
  const std::size_t chunk =
      ceil_div(std::max({grain, std::size_t{1}, ceil_div(total, size() + 1)}),
               align) *
      align;

  // Serial fallbacks: one chunk, a one-worker pool, or already inside a
  // region — of this pool or any other (a worker waiting on helpers
  // queued behind it could exhaust this pool, and fanning out underneath
  // another region oversubscribes the machine).
  if (chunk >= total || size() == 1 || in_parallel_region()) {
    chunk_body(begin, end);
    return;
  }

  Region region(begin, end, chunk, chunk_body);
  const std::size_t helpers = std::min(size(), region.chunks() - 1);
  std::size_t enqueued = 0;
  {
    MutexLock lock(mutex_);
    try {
      for (; enqueued < helpers; ++enqueued) {
        queue_.emplace([&region] { region.help(); });
      }
    } catch (...) {
      // The helpers already enqueued and this thread still run every
      // chunk; the failure surfaces once they have, behind any chunk's.
      region.fail(region.chunks(), std::current_exception());
    }
    // Under the queue lock, so no helper can check out before it is
    // counted.
    region.expect_helpers(enqueued);
  }
  for (std::size_t h = 0; h < enqueued; ++h) cv_.notify_one();

  region.work();
  if (std::exception_ptr error = region.join()) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tifl::util
