#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"

namespace tifl::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStat s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_NEAR(s.variance(), 37.2, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(RunningStat, MergeEqualsCombinedStream) {
  Rng rng(5);
  RunningStat combined, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    combined.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStat, MergeWithEmptyIsIdentity) {
  RunningStat a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Mape, MatchesPaperDefinition) {
  // Eq. 7: |est - act| / act * 100.
  EXPECT_DOUBLE_EQ(mape_percent(46242.0, 44977.0),
                   std::abs(46242.0 - 44977.0) / 44977.0 * 100.0);
  EXPECT_NEAR(mape_percent(46242.0, 44977.0), 2.8125, 0.01);
}

TEST(Mape, ZeroActualIsInfUnlessEstimateExact) {
  // A nonzero estimate of a zero actual is infinitely wrong — returning 0
  // here (the old behavior) reported a perfectly wrong estimator as
  // perfect.
  EXPECT_TRUE(std::isinf(mape_percent(5.0, 0.0)));
  EXPECT_GT(mape_percent(5.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(mape_percent(-5.0, 0.0)));
  EXPECT_EQ(mape_percent(0.0, 0.0), 0.0);
}

TEST(Mape, ExactEstimateIsZero) { EXPECT_EQ(mape_percent(7.0, 7.0), 0.0); }

TEST(SpanStats, SumMeanStddev) {
  const std::vector<double> xs{2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(sum(xs), 20.0);
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(20.0 / 3.0), 1e-12);
}

TEST(SpanStats, EmptyInputs) {
  const std::vector<double> empty;
  EXPECT_EQ(sum(empty), 0.0);
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(stddev(empty), 0.0);
}

TEST(Percentile, KnownQuartiles) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Percentile, SelectionMatchesSortBasedDefinitionBitForBit) {
  // The nth_element implementation must reproduce the historical
  // sort-then-interpolate values exactly: same order statistics, same
  // interpolation, bit-identical doubles — on unsorted data with ties.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(1 + static_cast<std::size_t>(rng.uniform_index(400)));
    for (double& x : xs) {
      x = trial % 2 ? std::floor(rng.normal(0.0, 3.0)) /*heavy ties*/
                    : rng.lognormal(0.0, 1.0);
    }
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      const double rank =
          p / 100.0 * static_cast<double>(sorted.size() - 1);
      const std::size_t lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      const double expected =
          sorted[lo] + frac * (sorted[hi] - sorted[lo]);
      EXPECT_EQ(percentile(xs, p), expected) << "p=" << p;
    }
  }
}

TEST(ArgMinMax, Basic) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.5, 9.0};
  EXPECT_EQ(argmin(xs), 1u);
  EXPECT_EQ(argmax(xs), 4u);
  EXPECT_EQ(argmin(std::vector<double>{}), 0u);
}

TEST(Normalized, SumsToOne) {
  const std::vector<double> out = normalized({2.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(out[0], 0.2);
  EXPECT_DOUBLE_EQ(out[1], 0.3);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(Normalized, AllZeroBecomesUniform) {
  const std::vector<double> out = normalized({0.0, 0.0, 0.0, 0.0});
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(Normalized, MixedSignClampsToProbabilities) {
  // Mixed-sign weights with a positive total used to divide through and
  // emit negative "probabilities"; negatives must clamp to 0 first.
  const std::vector<double> out = normalized({3.0, -1.0, 1.0});
  EXPECT_DOUBLE_EQ(out[0], 0.75);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 0.25);
  double total = 0.0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    total += v;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(Normalized, AllNegativeBecomesUniform) {
  const std::vector<double> out = normalized({-2.0, -3.0});
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
}

// --- histogram -------------------------------------------------------------

TEST(Histogram, EqualWidthEdgesAndCounts) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  Histogram h(xs, 4, BinningMode::kEqualWidth);
  ASSERT_EQ(h.bin_count(), 4u);
  ASSERT_EQ(h.edges().size(), 5u);
  EXPECT_DOUBLE_EQ(h.edges().front(), 0.0);
  EXPECT_DOUBLE_EQ(h.edges().back(), 7.0);
  std::size_t total = 0;
  for (std::size_t b = 0; b < 4; ++b) total += h.count(b);
  EXPECT_EQ(total, xs.size());
}

TEST(Histogram, QuantileBinsAreBalanced) {
  Rng rng(3);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.lognormal(0.0, 1.0);  // heavy skew
  Histogram h(xs, 5, BinningMode::kQuantile);
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_NEAR(static_cast<double>(h.count(b)), 200.0, 1.0) << "bin " << b;
  }
}

TEST(Histogram, EqualWidthSkewedDataUnbalanced) {
  // Sanity check the two modes actually differ on skewed data.
  Rng rng(4);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.lognormal(0.0, 1.0);
  Histogram h(xs, 5, BinningMode::kEqualWidth);
  EXPECT_GT(h.count(0), 600u);  // the long tail packs the first bin
}

TEST(Histogram, BinOfClampsOutOfRange) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  Histogram h(xs, 2, BinningMode::kEqualWidth);
  EXPECT_EQ(h.bin_of(-100.0), 0u);
  EXPECT_EQ(h.bin_of(100.0), 1u);
}

TEST(Histogram, AllValuesEqualStillValid) {
  const std::vector<double> xs{5.0, 5.0, 5.0};
  Histogram h(xs, 3, BinningMode::kQuantile);
  std::size_t total = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) total += h.count(b);
  EXPECT_EQ(total, 3u);
}

TEST(Histogram, ThrowsOnEmptyOrZeroBins) {
  const std::vector<double> empty;
  EXPECT_THROW(Histogram(empty, 3, BinningMode::kEqualWidth),
               std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(Histogram(xs, 0, BinningMode::kEqualWidth),
               std::invalid_argument);
}

TEST(Histogram, SingleBinHoldsEverything) {
  const std::vector<double> xs{1.0, 5.0, 9.0};
  Histogram h(xs, 1, BinningMode::kQuantile);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.bin_of(5.0), 0u);
}

TEST(Histogram, PercentileEndpointsAreEdges) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  Histogram h(xs, 2, BinningMode::kEqualWidth);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.edges().front());
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.edges().back());
  // Out-of-range quantiles clamp rather than extrapolate.
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.edges().front());
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.edges().back());
}

TEST(Histogram, PercentileInterpolatesInsideBin) {
  // 8 uniform samples over [0, 8) in 4 bins of 2: the distribution is
  // uniform, so quantiles are (near) linear in q.
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  Histogram h(xs, 4, BinningMode::kEqualWidth);
  const double lo = h.edges().front(), hi = h.edges().back();
  for (double q : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(h.percentile(q), lo + q * (hi - lo), (hi - lo) / 4.0)
        << "q=" << q;
  }
  // Monotone in q.
  double prev = h.percentile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    EXPECT_GE(h.percentile(q), prev);
    prev = h.percentile(q);
  }
}

TEST(Histogram, PercentileSingleSample) {
  const std::vector<double> xs{42.0};
  Histogram h(xs, 3, BinningMode::kEqualWidth);
  // Degenerate range (the constructor widens it by an epsilon): every
  // quantile collapses to the sample up to that widening.
  EXPECT_NEAR(h.percentile(0.0), 42.0, 1e-6);
  EXPECT_NEAR(h.percentile(0.5), 42.0, 1e-6);
  EXPECT_NEAR(h.percentile(1.0), 42.0, 1e-6);
  EXPECT_GE(h.percentile(0.5), h.edges().front());
  EXPECT_LE(h.percentile(0.5), h.edges().back());
}

TEST(Histogram, PercentileNegativeValues) {
  const std::vector<double> xs{-8.0, -4.0, -2.0, -1.0};
  Histogram h(xs, 2, BinningMode::kQuantile);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), -8.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), -1.0);
  const double median = h.percentile(0.5);
  EXPECT_GE(median, -8.0);
  EXPECT_LE(median, -1.0);
}

// The sort-based construction the selection-based one replaced: sort a
// copy, read min, max and the quantile edges off it, count the sorted
// values.
struct SortedHistogram {
  std::vector<double> edges;
  std::vector<std::size_t> counts;
};

SortedHistogram sorted_histogram(std::vector<double> sorted, std::size_t bins,
                                 BinningMode mode) {
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted.front();
  const double hi = sorted.back();
  SortedHistogram out;
  out.edges.resize(bins + 1);
  if (mode == BinningMode::kEqualWidth) {
    const double width = (hi - lo) / static_cast<double>(bins);
    for (std::size_t b = 0; b <= bins; ++b) {
      out.edges[b] = lo + width * static_cast<double>(b);
    }
  } else {
    out.edges[0] = lo;
    out.edges[bins] = hi;
    const std::size_t n = sorted.size();
    for (std::size_t b = 1; b < bins; ++b) {
      out.edges[b] = sorted[std::min(n - 1, b * n / bins)];
    }
  }
  if (out.edges.back() <= out.edges.front()) {
    out.edges.back() = out.edges.front() +
                       std::max(1e-12, std::abs(out.edges.front()) * 1e-12);
  }
  out.counts.assign(bins, 0);
  for (double v : sorted) {
    const auto it =
        std::upper_bound(out.edges.begin() + 1, out.edges.end() - 1, v);
    ++out.counts[static_cast<std::size_t>(it - (out.edges.begin() + 1))];
  }
  return out;
}

TEST(Histogram, SelectionMatchesSortBasedConstructionBitForBit) {
  Rng rng(23);
  for (const std::size_t n : {1, 2, 3, 5, 6, 7, 10, 64, 333}) {
    for (const bool ties : {false, true}) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = ties ? std::floor(rng.uniform() * 3.0) : rng.lognormal(0.0, 1.0);
      }
      for (std::size_t bins = 1; bins <= 7; ++bins) {
        for (const BinningMode mode :
             {BinningMode::kQuantile, BinningMode::kEqualWidth}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " ties=" << ties << " bins=" << bins
                       << " quantile=" << (mode == BinningMode::kQuantile));
          const Histogram h(xs, bins, mode);
          const SortedHistogram want = sorted_histogram(xs, bins, mode);
          ASSERT_EQ(h.edges().size(), want.edges.size());
          for (std::size_t b = 0; b <= bins; ++b) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(h.edges()[b]),
                      std::bit_cast<std::uint64_t>(want.edges[b]))
                << "edge " << b;
          }
          for (std::size_t b = 0; b < bins; ++b) {
            EXPECT_EQ(h.count(b), want.counts[b]) << "bin " << b;
          }
        }
      }
    }
  }
}

TEST(Histogram, RejectsNaNNamingItsIndex) {
  const std::vector<double> xs{1.0, 2.0, std::nan(""), 4.0};
  for (const BinningMode mode :
       {BinningMode::kQuantile, BinningMode::kEqualWidth}) {
    try {
      const Histogram h(xs, 2, mode);
      ADD_FAILURE() << "NaN accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("index 2"), std::string::npos)
          << error.what();
    }
  }
}

// --- hdr log-linear buckets (obs::Histo geometry) ---------------------------

TEST(HdrBuckets, IndexIsMonotoneAndTotal) {
  // Monotone over a wide sweep, and every value lands in a valid bucket.
  double prev_value = 0.0;
  int prev_index = hdr::bucket_index(0.0);
  EXPECT_EQ(prev_index, 0);
  for (double v = 1e-12; v < 1e12; v *= 1.7) {
    const int index = hdr::bucket_index(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, hdr::kBucketCount);
    EXPECT_GE(index, prev_index) << "v=" << v << " prev=" << prev_value;
    prev_index = index;
    prev_value = v;
  }
}

TEST(HdrBuckets, ValueFallsInsideItsBucketRange) {
  for (double v : {1e-9, 3.7e-5, 0.5, 1.0, 2.0, 9.99, 10.0, 123.0, 8.8e8}) {
    const int b = hdr::bucket_index(v);
    EXPECT_GE(v, hdr::bucket_lower(b)) << "v=" << v;
    EXPECT_LT(v, hdr::bucket_upper(b)) << "v=" << v;
  }
}

TEST(HdrBuckets, UnderflowAndOverflowBuckets) {
  // Zero, negatives and NaN all land in the underflow bucket; huge values
  // land in the terminal bucket with an infinite upper edge.
  EXPECT_EQ(hdr::bucket_index(0.0), 0);
  EXPECT_EQ(hdr::bucket_index(-5.0), 0);
  EXPECT_EQ(hdr::bucket_index(std::nan("")), 0);
  EXPECT_EQ(hdr::bucket_index(1e-10), 0);
  EXPECT_EQ(hdr::bucket_index(1e9), hdr::kBucketCount - 1);
  EXPECT_EQ(hdr::bucket_index(1e300), hdr::kBucketCount - 1);
  EXPECT_TRUE(std::isinf(hdr::bucket_upper(hdr::kBucketCount - 1)));
  EXPECT_DOUBLE_EQ(hdr::bucket_lower(0), 0.0);
}

TEST(HdrBuckets, LeadingDigitSubBuckets) {
  // Within a decade, the sub-bucket is the leading digit: 1.x and 1.99
  // share a bucket; 2.0 starts the next one.
  EXPECT_EQ(hdr::bucket_index(1.0), hdr::bucket_index(1.99));
  EXPECT_NE(hdr::bucket_index(1.99), hdr::bucket_index(2.0));
  EXPECT_EQ(hdr::bucket_index(2.0), hdr::bucket_index(2.5));
  // Decade boundary: 9.99 and 10.0 differ.
  EXPECT_NE(hdr::bucket_index(9.99), hdr::bucket_index(10.0));
}

}  // namespace
}  // namespace tifl::util
