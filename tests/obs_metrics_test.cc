#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace tifl::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetMaxIsHighWaterMark) {
  Gauge g;
  g.set(3.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Histo, EmptyHistogram) {
  Histo h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_TRUE(std::isinf(h.min()));
  EXPECT_GT(h.min(), 0.0);
  EXPECT_TRUE(std::isinf(h.max()));
  EXPECT_LT(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(Histo, SingleSampleExactExtremes) {
  Histo h;
  h.record(3.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5);
  EXPECT_DOUBLE_EQ(h.min(), 3.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
  // Percentiles clamp to the exact observed range.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.5);
}

TEST(Histo, NegativeAndZeroLandInUnderflowBucket) {
  Histo h;
  h.record(-2.0);
  h.record(0.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  const std::vector<Histo::Bucket> buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].n, 2u);
  EXPECT_DOUBLE_EQ(buckets[0].lo, 0.0);
}

TEST(Histo, PercentilesBracketTheData) {
  Histo h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log-linear buckets give ~4-11% relative resolution; accept 15%.
  EXPECT_NEAR(h.percentile(0.5), 500.0, 75.0);
  EXPECT_NEAR(h.percentile(0.9), 900.0, 135.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 149.0);
  // Monotone in q and clamped to the observed range.
  double prev = h.percentile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double p = h.percentile(q);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, h.min());
    EXPECT_LE(p, h.max());
    prev = p;
  }
}

TEST(Histo, ResetClearsEverything) {
  Histo h;
  h.record(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_TRUE(h.buckets().empty());
  // Recording after reset re-establishes exact extremes.
  h.record(9.0);
  EXPECT_DOUBLE_EQ(h.min(), 9.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Registry, LookupIsStableAndIdempotent) {
  Registry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(r.counter("x").value(), 3u);
  // Distinct kinds with the same name are distinct instruments.
  r.gauge("x").set(1.5);
  EXPECT_EQ(r.counter("x").value(), 3u);
  EXPECT_DOUBLE_EQ(r.gauge("x").value(), 1.5);
}

TEST(Registry, ResetZeroesButKeepsReferences) {
  Registry r;
  Counter& c = r.counter("events");
  Gauge& g = r.gauge("depth");
  Histo& h = r.histogram("latency");
  c.add(7);
  g.set(2.5);
  h.record(1.0);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // Cached references still feed the same registry entries.
  c.add(1);
  EXPECT_EQ(r.counter("events").value(), 1u);
}

TEST(Registry, ToJsonIsSortedAndParseable) {
  Registry r;
  r.counter("b.second").add(2);
  r.counter("a.first").add(1);
  r.gauge("z.level").set(0.5);
  r.histogram("m.lat").record(3.0);
  const std::string json = r.to_json();
  // Keys walk in lexicographic order.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  // Deterministic: same values, same bytes.
  EXPECT_EQ(json, r.to_json());
}

TEST(Registry, ConcurrentUpdatesUnderThreadPool) {
  Registry r;
  Counter& hits = r.counter("hits");
  Gauge& high = r.gauge("high");
  Histo& lat = r.histogram("lat");
  constexpr std::size_t kIters = 20000;
  util::ThreadPool pool(4);
  pool.parallel_for(0, kIters, [&](std::size_t i) {
    hits.add();
    high.set_max(static_cast<double>(i));
    lat.record(static_cast<double>(i % 100) + 1.0);
  });
  EXPECT_EQ(hits.value(), kIters);
  EXPECT_DOUBLE_EQ(high.value(), static_cast<double>(kIters - 1));
  EXPECT_EQ(lat.count(), kIters);
  EXPECT_DOUBLE_EQ(lat.min(), 1.0);
  EXPECT_DOUBLE_EQ(lat.max(), 100.0);
  // Gauge::add is a CAS loop: concurrent increments must not lose updates.
  Gauge& sum = r.gauge("sum");
  pool.parallel_for(0, kIters, [&](std::size_t) { sum.add(1.0); });
  EXPECT_DOUBLE_EQ(sum.value(), static_cast<double>(kIters));
}

TEST(Registry, FilteredToJsonDropsRejectedNames) {
  Registry r;
  r.counter("sim.events_popped").add(5);
  r.counter("pool.lease_hits").add(2);
  r.histogram("sim.pop_ns").record(100.0);
  r.histogram("sim.schedule_horizon").record(0.5);
  const std::string json = r.to_json([](std::string_view name) {
    return !name.ends_with("_ns") && !name.starts_with("pool.");
  });
  EXPECT_NE(json.find("sim.events_popped"), std::string::npos);
  EXPECT_NE(json.find("sim.schedule_horizon"), std::string::npos);
  EXPECT_EQ(json.find("pool.lease_hits"), std::string::npos);
  EXPECT_EQ(json.find("sim.pop_ns"), std::string::npos);
  // Keep-everything filter reproduces the unfiltered snapshot.
  EXPECT_EQ(r.to_json([](std::string_view) { return true; }), r.to_json());
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  Registry r;
  util::ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](std::size_t i) {
    // Few distinct names, many racing first-lookups.
    r.counter("name" + std::to_string(i % 4)).add();
  });
  std::uint64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    total += r.counter("name" + std::to_string(k)).value();
  }
  EXPECT_EQ(total, 64u);
}

}  // namespace
}  // namespace tifl::obs
