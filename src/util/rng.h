// Deterministic, splittable random number generation.
//
// Everything in this repository that needs randomness — weight init,
// dataset synthesis, client selection, latency jitter — derives its stream
// from an explicit 64-bit seed, so an entire federated run is reproducible
// from a single number.  `Rng::fork(tag)` derives independent child
// streams (one per client, per round, …) without any shared mutable state,
// which keeps parallel local training deterministic regardless of thread
// scheduling.
//
// Engine: xoshiro256** (public-domain, Blackman & Vigna) seeded via
// splitmix64, the recommended seeding procedure.  Header-only so the
// compiler can inline next() into tight sampling loops.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

namespace tifl::util {

// splitmix64 step: used for seeding and stream derivation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Mixes up to three values into one seed; used to derive the per-(round,
// client) training streams that make parallel FL runs deterministic.
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0,
                                 std::uint64_t c = 0) {
  std::uint64_t s = a;
  std::uint64_t r = splitmix64(s);
  s += b ^ 0xA5A5A5A5A5A5A5A5ULL;
  r ^= splitmix64(s);
  s += c ^ 0x5A5A5A5A5A5A5A5AULL;
  r ^= splitmix64(s);
  return r;
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1234ABCDULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Derive an independent child stream.  Mixing the parent's next output
  // with the tag through splitmix64 gives streams that do not overlap in
  // practice (distinct tags -> distinct 64-bit seeds -> xoshiro states far
  // apart with overwhelming probability).
  Rng fork(std::uint64_t tag) {
    std::uint64_t mix = next() ^ (0x9E3779B97F4A7C15ULL * (tag + 1));
    return Rng(splitmix64(mix));
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n).  Uses Lemire-style rejection to stay
  // unbiased for any n.
  std::uint64_t uniform_index(std::uint64_t n) {
    if (n <= 1) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  // The two uniforms of one Box–Muller normal, split from the transform
  // so a caller can draw many serially and transform them in parallel:
  // u1 in (0, 1), redrawn while it is 0, then u2 in [0, 1).
  struct NormalDraw {
    double u1 = 1.0;
    double u2 = 0.0;
  };

  NormalDraw normal_draw() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    return {u1, uniform()};
  }

  // Pure transforms of one draw; normal() and lognormal() are exactly
  // these applied to normal_draw().
  static double normal_from(NormalDraw draw) {
    return std::sqrt(-2.0 * std::log(draw.u1)) *
           std::cos(2.0 * std::numbers::pi * draw.u2);
  }
  static double normal_from(NormalDraw draw, double mean, double stddev) {
    return mean + stddev * normal_from(draw);
  }
  static double lognormal_from(NormalDraw draw, double mu, double sigma) {
    return std::exp(normal_from(draw, mu, sigma));
  }

  // Standard normal via Box–Muller (no cached spare: keeps the generator
  // stateless-per-call so forked streams never interleave differently).
  double normal() { return normal_from(normal_draw()); }

  double normal(double mean, double stddev) {
    return normal_from(normal_draw(), mean, stddev);
  }

  // Log-normal with the given *underlying* normal parameters.
  double lognormal(double mu, double sigma) {
    return lognormal_from(normal_draw(), mu, sigma);
  }

  // Bernoulli trial.
  bool bernoulli(double p) { return uniform() < p; }

  // Gamma(shape, 1) via Marsaglia–Tsang squeeze (shape > 0); the basis for
  // Dirichlet sampling in the LEAF-style partitioner.
  double gamma(double shape) {
    if (shape < 1.0) {
      // Boost to shape+1 then scale back (Marsaglia–Tsang trick).
      const double u = uniform();
      return gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  }

  // Dirichlet(alpha, ..., alpha) over k categories.
  std::vector<double> dirichlet(double alpha, std::size_t k) {
    std::vector<double> draws(k);
    double total = 0.0;
    for (double& v : draws) {
      v = gamma(alpha);
      total += v;
    }
    if (total <= 0.0) total = 1.0;
    for (double& v : draws) v /= total;
    return draws;
  }

  // Sample an index from an unnormalized non-negative weight vector.
  template <typename Container>
  std::size_t weighted_index(const Container& weights) {
    double total = 0.0;
    for (const auto w : weights) total += static_cast<double>(w);
    if (total <= 0.0) return 0;
    double r = uniform() * total;
    std::size_t last = 0;
    std::size_t i = 0;
    for (const auto w : weights) {
      r -= static_cast<double>(w);
      if (r < 0.0) return i;
      last = i++;
    }
    return last;
  }

  // Stream-position capture for checkpoint/resume: the four xoshiro256**
  // words fully determine every future draw, so saving and restoring them
  // resumes the stream bit-identically mid-sequence.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

  // In-place Fisher–Yates shuffle.
  template <typename RandomAccessContainer>
  void shuffle(RandomAccessContainer& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace tifl::util
