#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

namespace tifl::obs {

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";  // JSON has no NaN
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "1e999" : "-1e999";  // parses as +-inf in most readers
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

// --- Histo -------------------------------------------------------------------

void Histo::record(double v) noexcept {
  counts_[util::hdr::bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  // Exact running aggregates; CAS loops are uncontended in practice (all
  // built-in sites record from the engine loop thread).
  const std::uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  if (prior == 0) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
    return;
  }
  cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histo::min() const noexcept {
  return count() == 0 ? std::numeric_limits<double>::infinity()
                      : min_.load(std::memory_order_relaxed);
}

double Histo::max() const noexcept {
  return count() == 0 ? -std::numeric_limits<double>::infinity()
                      : max_.load(std::memory_order_relaxed);
}

double Histo::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histo::percentile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (int b = 0; b < util::hdr::kBucketCount; ++b) {
    const std::uint64_t n = counts_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const double next = cum + static_cast<double>(n);
    if (rank <= next) {
      // Interpolate inside the bucket, then clamp to the exact extremes so
      // quantization never reports beyond an observed value.
      const double lo = util::hdr::bucket_lower(b);
      double hi = util::hdr::bucket_upper(b);
      if (std::isinf(hi)) hi = max();
      const double frac = (rank - cum) / static_cast<double>(n);
      return std::clamp(lo + frac * (hi - lo), min(), max());
    }
    cum = next;
  }
  return max();
}

void Histo::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

void Histo::save(util::ByteSink& sink) const {
  // Sparse (index, count) pairs: most of the 164 buckets are empty.
  std::uint64_t nonzero = 0;
  for (const auto& c : counts_) {
    if (c.load(std::memory_order_relaxed) > 0) ++nonzero;
  }
  sink.put_u64(nonzero);
  for (int b = 0; b < util::hdr::kBucketCount; ++b) {
    const std::uint64_t n = counts_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    sink.put_u32(static_cast<std::uint32_t>(b));
    sink.put_u64(n);
  }
  sink.put_u64(count_.load(std::memory_order_relaxed));
  sink.put_f64(sum_.load(std::memory_order_relaxed));
  sink.put_f64(min_.load(std::memory_order_relaxed));
  sink.put_f64(max_.load(std::memory_order_relaxed));
}

void Histo::restore(util::ByteSource& source) {
  reset();
  const std::size_t nonzero = source.checked_count(source.get_u64(), 12);
  for (std::size_t i = 0; i < nonzero; ++i) {
    const std::uint32_t b = source.get_u32();
    const std::uint64_t n = source.get_u64();
    if (b >= static_cast<std::uint32_t>(util::hdr::kBucketCount)) {
      throw std::runtime_error("Histo::restore: bucket index out of range");
    }
    counts_[b].store(n, std::memory_order_relaxed);
  }
  count_.store(source.get_u64(), std::memory_order_relaxed);
  sum_.store(source.get_f64(), std::memory_order_relaxed);
  min_.store(source.get_f64(), std::memory_order_relaxed);
  max_.store(source.get_f64(), std::memory_order_relaxed);
}

std::vector<Histo::Bucket> Histo::buckets() const {
  std::vector<Bucket> out;
  for (int b = 0; b < util::hdr::kBucketCount; ++b) {
    const std::uint64_t n = counts_[b].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.push_back({util::hdr::bucket_lower(b), util::hdr::bucket_upper(b), n});
  }
  return out;
}

// --- Registry ----------------------------------------------------------------

namespace {

// Caller holds the registry mutex; the map reference is one of its
// guarded members.
template <typename Map>
auto& lookup_locked(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u0000";  // instrument names are ASCII; coarse escape
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  return lookup_locked(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  return lookup_locked(gauges_, name);
}

Histo& Registry::histogram(std::string_view name) {
  util::MutexLock lock(mutex_);
  return lookup_locked(histograms_, name);
}

void Registry::reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void Registry::save(util::ByteSink& sink) const {
  util::MutexLock lock(mutex_);
  sink.put_u64(counters_.size());
  for (const auto& [name, c] : counters_) {
    sink.put_string(name);
    sink.put_u64(c->value());
  }
  sink.put_u64(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    sink.put_string(name);
    sink.put_f64(g->value());
  }
  sink.put_u64(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    sink.put_string(name);
    h->save(sink);
  }
}

void Registry::restore(util::ByteSource& source) {
  const std::size_t ncounters = source.checked_count(source.get_u64(), 16);
  for (std::size_t i = 0; i < ncounters; ++i) {
    const std::string name = source.get_string();
    const std::uint64_t v = source.get_u64();
    if (v > 0) counter(name).add(v);
  }
  const std::size_t ngauges = source.checked_count(source.get_u64(), 16);
  for (std::size_t i = 0; i < ngauges; ++i) {
    const std::string name = source.get_string();
    gauge(name).set_max(source.get_f64());
  }
  const std::size_t nhistos = source.checked_count(source.get_u64(), 16);
  for (std::size_t i = 0; i < nhistos; ++i) {
    const std::string name = source.get_string();
    histogram(name).restore(source);
  }
}

std::string Registry::to_json() const {
  return to_json([](std::string_view) { return true; });
}

std::string Registry::to_json(
    const std::function<bool(std::string_view)>& keep) const {
  util::MutexLock lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!keep(name)) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    out += std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!keep(name)) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_double(out, g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!keep(name)) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": ";
    out += std::to_string(h->count());
    if (h->count() > 0) {
      out += ", \"sum\": ";
      append_double(out, h->sum());
      out += ", \"min\": ";
      append_double(out, h->min());
      out += ", \"max\": ";
      append_double(out, h->max());
      out += ", \"mean\": ";
      append_double(out, h->mean());
      out += ", \"p50\": ";
      append_double(out, h->percentile(0.50));
      out += ", \"p90\": ";
      append_double(out, h->percentile(0.90));
      out += ", \"p99\": ";
      append_double(out, h->percentile(0.99));
    }
    out += '}';
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace tifl::obs
