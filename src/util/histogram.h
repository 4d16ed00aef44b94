// Latency histogram used by the TiFL tiering step (§4.2): "the collected
// training latencies from clients creates a histogram, which is split into
// m groups".  Supports both readings of that sentence:
//   * equal-width: m bins of equal latency width between min and max;
//   * quantile:    m bins of (near-)equal population.
// Bin edges are exposed so the tiering module can map a latency to a tier.
//
// Construction is O(n) in the sample count, plus selection work in
// quantile mode: one pass takes min and max, the m - 1 interior quantile
// edges are order statistics picked by successive std::nth_element calls
// on one copy (the values a full sort would put at those ranks), and the
// bins are counted over the unsorted input.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tifl::util {

enum class BinningMode { kEqualWidth, kQuantile };

class Histogram {
 public:
  // Builds `bins` bins over `values` (must be non-empty, bins >= 1).
  // Throws std::invalid_argument naming the index of a NaN value.
  Histogram(std::span<const double> values, std::size_t bins,
            BinningMode mode);

  std::size_t bin_count() const noexcept { return counts_.size(); }
  // Bin index for a value; values outside [min,max] clamp to first/last.
  std::size_t bin_of(double value) const;
  // Number of samples in bin b.
  std::size_t count(std::size_t b) const { return counts_.at(b); }
  // Half-open bin edges; edges().size() == bin_count() + 1.
  const std::vector<double>& edges() const noexcept { return edges_; }

  // Quantile estimate for q in [0, 1] (clamped): finds the bin holding the
  // q * total'th sample and interpolates linearly inside it, so estimates
  // move smoothly with q instead of jumping at bin boundaries.  q = 0 and
  // q = 1 return the first/last bin edge.
  double percentile(double q) const noexcept;

 private:
  std::vector<double> edges_;
  std::vector<std::size_t> counts_;
};

// HDR-style log-linear bucket geometry for incremental histograms
// (obs::Histo): decades from 1e-9 to 1e9, each split into one sub-bucket
// per leading digit (~4% relative resolution at the decade top, bounded
// bucket count for any value range).  Bucket 0 catches zero, negative and
// sub-1e-9 values; the last bucket catches >= 1e9.
namespace hdr {

inline constexpr int kDecadeMin = -9;
inline constexpr int kDecadeMax = 9;
inline constexpr int kSubBuckets = 9;
inline constexpr int kBucketCount =
    2 + (kDecadeMax - kDecadeMin) * kSubBuckets;

// Bucket for `v`; total order: index(u) <= index(v) whenever u <= v.
int bucket_index(double v) noexcept;
// Half-open bucket range [lower, upper).  bucket_lower(0) is 0;
// bucket_upper(kBucketCount - 1) is +infinity.
double bucket_lower(int b) noexcept;
double bucket_upper(int b) noexcept;

}  // namespace hdr

}  // namespace tifl::util
