// Fixed-size worker pool with a blocking task queue and fork-join
// `parallel_for` regions.
//
// The pool is the single parallel-execution substrate for the whole
// repository: tensor GEMM tiles, the conv scatter and im2col loops,
// per-client local training in the FL engines, and bench sweeps all
// schedule through it.  One pool per process (see `global_pool()`) keeps
// the thread count at the hardware concurrency.
//
// A parallel_for is a fork-join region with size() + 1 participants: the
// calling thread enqueues up to size() helpers and then works as one of
// them.  The range is cut into at most one fixed chunk per participant,
// with boundaries that depend only on (begin, end, grain, align,
// size()).  Every participant claims the next unclaimed chunk from a
// shared counter until none are left, so a chunk whose helper has not
// started yet (its worker still busy elsewhere) goes to whichever
// participant frees first.  The call returns once every chunk has run
// and every helper it enqueued has finished.
//
// Nesting: pool workers, and a calling thread while it runs its share,
// are inside a parallel region, and a parallel_for issued there runs
// serially on the issuing thread.  That keeps the GEMMs of a client
// trained in a region serial whichever thread trains it, and it keeps a
// fixed pool deadlock-free: no worker ever waits on helpers queued behind
// it.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tifl::util {

class ThreadPool {
 public:
  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue an arbitrary task; the future resolves when it has run.
  // Exceptions thrown by `fn` are captured in the future.
  template <typename Fn>
  std::future<void> submit(Fn&& fn) EXCLUDES(mutex_) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<Fn>(fn));
    std::future<void> result = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // Run `body(i)` for every index in [begin, end) and block until all
  // have run: parallel_for_chunked below with a per-index loop in each
  // chunk.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  // Run `chunk_body(lo, hi)` for chunks covering [begin, end) and block
  // until all have run, letting callers hoist per-chunk state (e.g.
  // accumulators, RNG streams).  At most one chunk per participant, each
  // at least `grain` long except the last; `align` rounds the chunk
  // length up to a multiple of itself so tiled kernels (GEMM row blocks)
  // only ever see one ragged chunk, at the end of the range.
  //
  // Runs serially on the calling thread, as one chunk, when the range
  // fits in one chunk, when the pool has a single worker (a one-worker
  // pool is how a caller asks for serial execution, and on a one-CPU
  // host a second participant would only time-slice with the first), or
  // when the caller is already inside a parallel region.  A serial run
  // does not open a region, so a kernel inside it may still fan out.
  //
  // Every chunk runs even if another throws.  Once all have finished,
  // the exception of the lowest-indexed chunk that threw is rethrown, so
  // the error reported does not depend on timing (a throwing chunk stops
  // where it threw).
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& chunk_body,
      std::size_t grain = 1, std::size_t align = 1);

  // True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  // True on a worker of *any* ThreadPool, and on a thread while it runs
  // its share of any pool's parallel_for.  This is the nested-dispatch
  // guard: per-client training may run on an engine-injected pool rather
  // than the global one, and a GEMM dispatched from inside it must still
  // stay serial instead of fanning out across the global pool underneath
  // an already-parallel region.
  static bool in_parallel_region() noexcept;

 private:
  void worker_loop() EXCLUDES(mutex_);

  // Started in the constructor, joined in the destructor; never mutated
  // in between, so reads (size(), on_worker_thread()) need no lock.
  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ GUARDED_BY(mutex_) = false;
};

// Process-wide pool, constructed on first use with hardware concurrency.
ThreadPool& global_pool();

}  // namespace tifl::util
