#include "util/histogram.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace tifl::util {

Histogram::Histogram(std::span<const double> values, std::size_t bins,
                     BinningMode mode) {
  if (values.empty()) throw std::invalid_argument("Histogram: empty input");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be >= 1");

  // NaN has no place in the order below (sorting or selecting over it is
  // undefined behaviour), so it is rejected along with its index.
  double lo = values[0];
  double hi = values[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isnan(v)) {
      throw std::invalid_argument("Histogram: NaN at index " +
                                  std::to_string(i));
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }

  edges_.resize(bins + 1);
  if (mode == BinningMode::kEqualWidth) {
    const double width = (hi - lo) / static_cast<double>(bins);
    for (std::size_t b = 0; b <= bins; ++b) {
      edges_[b] = lo + width * static_cast<double>(b);
    }
  } else {
    // Quantile edges: bin b spans the [b/bins, (b+1)/bins) quantiles so
    // populations are balanced within +-1 even with repeated values.
    // Edge b is the order statistic sorted[min(n - 1, b * n / bins)];
    // the indices ascend in b, so each selection only has to search the
    // part of the copy above the previous one.
    edges_[0] = lo;
    edges_[bins] = hi;
    std::vector<double> order(values.begin(), values.end());
    const std::size_t n = order.size();
    auto unselected = order.begin();
    for (std::size_t b = 1; b < bins; ++b) {
      const auto nth = order.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(n - 1, b * n / bins));
      if (nth >= unselected) {
        std::nth_element(unselected, nth, order.end());
        unselected = nth + 1;
      }
      edges_[b] = *nth;
    }
  }
  // Degenerate spread (all values equal) collapses edges; nudge the last
  // edge so bin_of() stays well-defined.
  if (edges_.back() <= edges_.front()) {
    edges_.back() = edges_.front() +
                    std::max(1e-12, std::abs(edges_.front()) * 1e-12);
  }

  counts_.assign(bins, 0);
  for (double v : values) ++counts_[bin_of(v)];
}

std::size_t Histogram::bin_of(double value) const {
  // upper_bound over interior edges: value < edges_[b+1] picks bin b.
  const auto it =
      std::upper_bound(edges_.begin() + 1, edges_.end() - 1, value);
  return static_cast<std::size_t>(it - (edges_.begin() + 1));
}

double Histogram::percentile(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  std::size_t total = 0;
  for (std::size_t c : counts_) total += c;
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double next = cum + static_cast<double>(counts_[b]);
    if (rank <= next && counts_[b] > 0) {
      const double frac = (rank - cum) / static_cast<double>(counts_[b]);
      return edges_[b] + frac * (edges_[b + 1] - edges_[b]);
    }
    cum = next;
  }
  return edges_.back();
}

namespace hdr {

namespace {

// pow10_table[i] == 10^(kDecadeMin + i), for i in [0, decades].
constexpr int kDecades = kDecadeMax - kDecadeMin;

const double* pow10_table() {
  static const auto table = [] {
    std::array<double, kDecades + 1> t{};
    for (int i = 0; i <= kDecades; ++i) {
      t[static_cast<std::size_t>(i)] =
          std::pow(10.0, static_cast<double>(kDecadeMin + i));
    }
    return t;
  }();
  return table.data();
}

}  // namespace

int bucket_index(double v) noexcept {
  const double* p10 = pow10_table();
  if (!(v >= p10[0])) return 0;  // zero, negative, tiny — and NaN
  if (v >= p10[kDecades]) return kBucketCount - 1;
  // Decade via log10, then nudge to absorb rounding at exact powers.
  int d = static_cast<int>(std::floor(std::log10(v))) - kDecadeMin;
  d = std::clamp(d, 0, kDecades - 1);
  if (v < p10[d]) --d;
  if (v >= p10[d + 1]) ++d;
  const int sub =
      std::clamp(static_cast<int>(v / p10[d]) - 1, 0, kSubBuckets - 1);
  return 1 + d * kSubBuckets + sub;
}

double bucket_lower(int b) noexcept {
  if (b <= 0) return 0.0;
  if (b >= kBucketCount - 1) return pow10_table()[kDecades];
  const int d = (b - 1) / kSubBuckets;
  const int sub = (b - 1) % kSubBuckets;
  return pow10_table()[d] * static_cast<double>(sub + 1);
}

double bucket_upper(int b) noexcept {
  if (b < 0) return 0.0;
  if (b >= kBucketCount - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(b + 1);
}

}  // namespace hdr

}  // namespace tifl::util
