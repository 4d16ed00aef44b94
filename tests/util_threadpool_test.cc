#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace tifl::util {
namespace {

using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;

// The [lo, hi) chunks one parallel_for_chunked call hands out, sorted.
Chunks chunks_of(ThreadPool& pool, std::size_t begin, std::size_t end,
                 std::size_t grain, std::size_t align) {
  std::mutex m;
  Chunks chunks;
  pool.parallel_for_chunked(
      begin, end,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(lo, hi);
      },
      grain, align);
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

// Holds every arriving thread until `count` have arrived.  Returns false
// if that did not happen within the timeout, so a test whose chunks
// cannot all be in flight at once fails instead of hanging.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t count) : count_(count) {}

  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == count_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return arrived_ >= count_; });
  }

 private:
  const std::size_t count_;
  std::size_t arrived_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
};

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f = pool.submit([&counter] { counter.fetch_add(1); });
  f.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  // Every 97th index (index 0 included) costs far more than the rest, so
  // chunks take very different times and participants free up unevenly.
  ThreadPool pool(4);
  for (const std::size_t n : {5u, 8u, 203u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&hits](std::size_t i) {
      if (i % 97 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(3));
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRespectsOffset) {
  ThreadPool pool(2);
  std::vector<int> seen;
  std::mutex m;
  pool.parallel_for(10, 20, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(m);
    seen.push_back(static_cast<int>(i));
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 10);
  EXPECT_EQ(seen.back(), 19);
}

TEST(ThreadPool, ParallelForGrainForcesSerialOnSmallRanges) {
  ThreadPool pool(4);
  // With grain >= range the body must run on the calling thread.
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  pool.parallel_for(
      0, ids.size(),
      [&ids](std::size_t i) { ids[i] = std::this_thread::get_id(); }, 100);
  for (const auto& id : ids) EXPECT_EQ(id, self);
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("bad index");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&pool, &total](std::size_t) {
    // Inner calls, on a worker or in the caller's share, must run
    // serially, not block.
    pool.parallel_for(0, 8, [&total](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, FiveIndicesOnFourWorkersRunAsFiveConcurrentChunks) {
  // A sync round's shape: |C| = 5 clients on a 4-worker pool.  Every
  // index waits until all five have started, which happens only when
  // five participants (the four workers and the caller) hold one index
  // each at the same time.  A 2+2+1 split never gets there.
  ThreadPool pool(4);
  EXPECT_EQ(chunks_of(pool, 0, 5, 1, 1),
            (Chunks{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));

  Rendezvous all_started(5);
  std::vector<std::thread::id> ran_on(5);
  std::vector<char> met(5, 0);
  pool.parallel_for(0, 5, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    met[i] = all_started.arrive_and_wait() ? 1 : 0;
  });
  EXPECT_EQ(met, std::vector<char>(5, 1));
  const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_EQ(threads.size(), 5u);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, NestedParallelForInCallersShareRunsSeriallyOnCaller) {
  // A client the calling thread trains must keep its GEMMs serial, as
  // on a worker: nested calls into this pool or any other stay on the
  // caller.  The rendezvous guarantees the caller holds one of the five.
  ThreadPool pool(4);
  ThreadPool other(2);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous all_started(5);
  std::atomic<int> caller_chunks{0};
  std::atomic<bool> marked{false};
  std::vector<std::thread::id> inner(16);
  std::vector<std::thread::id> inner_chunks;
  pool.parallel_for(0, 5, [&](std::size_t) {
    EXPECT_TRUE(all_started.arrive_and_wait());
    if (std::this_thread::get_id() != caller) return;
    caller_chunks.fetch_add(1);
    marked = ThreadPool::in_parallel_region();
    pool.parallel_for(0, inner.size(), [&](std::size_t j) {
      inner[j] = std::this_thread::get_id();
    });
    other.parallel_for_chunked(0, 1000, [&](std::size_t, std::size_t) {
      inner_chunks.push_back(std::this_thread::get_id());
    });
  });
  EXPECT_EQ(caller_chunks.load(), 1);
  EXPECT_TRUE(marked.load());
  EXPECT_EQ(inner, std::vector<std::thread::id>(inner.size(), caller));
  EXPECT_EQ(inner_chunks, std::vector<std::thread::id>{caller});
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, CallersShareExceptionPropagatesAfterAllChunksRun) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous all_started(5);
  std::atomic<int> finished{0};
  bool threw = false;
  try {
    pool.parallel_for(0, 5, [&](std::size_t) {
      EXPECT_TRUE(all_started.arrive_and_wait());
      if (std::this_thread::get_id() == caller) {
        throw std::runtime_error("caller's share");
      }
      // The helpers finish well after the caller's chunk has thrown.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "caller's share");
    EXPECT_EQ(finished.load(), 4);
  }
  EXPECT_TRUE(threw);
  // The region mark was reset on the way out.
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, LowestThrowingChunksExceptionIsRethrown) {
  // Indices 1 and 3 sit in different chunks and throw different errors;
  // index 3 throws first.  The caller must still see index 1's error,
  // the one a serial run would raise, on every call.
  ThreadPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    std::atomic<bool> high_threw{false};
    try {
      pool.parallel_for(0, 5, [&](std::size_t i) {
        if (i == 3) {
          high_threw = true;
          throw std::runtime_error("index 3");
        }
        if (i != 1) return;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!high_threw && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("index 1");
      });
      ADD_FAILURE() << "nothing thrown, rep " << rep;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 1") << "rep " << rep;
    }
    EXPECT_TRUE(high_threw.load());
  }
}

TEST(ThreadPool, ParallelForChunkedPartitionsContiguouslyAndRepeatably) {
  // Chunk boundaries depend only on (begin, end, grain, align, size()):
  // at most one chunk per participant, contiguous, interior boundaries
  // on `align` multiples, and the same set every call.
  struct Case {
    std::size_t begin, end, grain, align;
  };
  for (const std::size_t threads : {3u, 4u}) {
    ThreadPool pool(threads);
    for (const Case& c : {Case{0, 5, 1, 1}, Case{0, 100, 1, 1},
                          Case{3, 1003, 16, 4}, Case{0, 300, 96, 8},
                          Case{0, 17, 16, 4}, Case{0, 37, 1, 1}}) {
      const Chunks first = chunks_of(pool, c.begin, c.end, c.grain, c.align);
      ASSERT_FALSE(first.empty());
      EXPECT_LE(first.size(), threads + 1);
      std::size_t expected_lo = c.begin;
      for (const auto& [lo, hi] : first) {
        EXPECT_EQ(lo, expected_lo);
        EXPECT_EQ((lo - c.begin) % c.align, 0u);
        EXPECT_GT(hi, lo);
        expected_lo = hi;
      }
      EXPECT_EQ(expected_lo, c.end);
      for (int rep = 0; rep < 20; ++rep) {
        EXPECT_EQ(chunks_of(pool, c.begin, c.end, c.grain, c.align), first)
            << threads << " workers, [" << c.begin << ", " << c.end
            << ") grain " << c.grain << " align " << c.align << " rep "
            << rep;
      }
    }
  }
}

TEST(ThreadPool, SingleWorkerPoolRunsSeriallyOnCaller) {
  // A one-worker pool never forks: every index runs in order on the
  // calling thread, as one chunk, outside any parallel region (so a
  // kernel inside may still fan out on another pool).
  ThreadPool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  bool any_marked = false;
  pool.parallel_for(0, 64, [&](std::size_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == self;
    any_marked = any_marked || ThreadPool::in_parallel_region();
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(all_on_caller);
  EXPECT_FALSE(any_marked);
  EXPECT_EQ(chunks_of(pool, 0, 64, 1, 1), (Chunks{{0, 64}}));
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> inside{false};
  pool.submit([&pool, &inside] { inside = pool.on_worker_thread(); }).get();
  EXPECT_TRUE(inside.load());
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 500u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> xs(10000);
  std::iota(xs.begin(), xs.end(), 1.0);
  // Per-chunk partial sums reduced in deterministic order.
  std::mutex m;
  std::vector<std::pair<std::size_t, double>> partials;
  pool.parallel_for_chunked(0, xs.size(), [&](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) s += xs[i];
    std::lock_guard<std::mutex> lock(m);
    partials.emplace_back(lo, s);
  });
  std::sort(partials.begin(), partials.end());
  double total = 0.0;
  for (const auto& [lo, s] : partials) total += s;
  EXPECT_DOUBLE_EQ(total, 10000.0 * 10001.0 / 2.0);
}

}  // namespace
}  // namespace tifl::util
