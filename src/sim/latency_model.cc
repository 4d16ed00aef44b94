#include "sim/latency_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tifl::sim {

double LatencyModel::expected_latency(const ResourceProfile& profile,
                                      std::size_t samples,
                                      std::size_t epochs) const {
  if (profile.unavailable) return std::numeric_limits<double>::infinity();
  return compute_seconds(profile, samples, epochs) + cost_.fixed_overhead +
         profile.comm_seconds;
}

double LatencyModel::sample_latency(const ResourceProfile& profile,
                                    std::size_t samples, std::size_t epochs,
                                    util::Rng& rng) const {
  const util::Rng::NormalDraw draw =
      draws_jitter(profile) ? rng.normal_draw() : util::Rng::NormalDraw{};
  return latency_from(profile, compute_seconds(profile, samples, epochs),
                      draw);
}

double LatencyModel::compute_seconds(const ResourceProfile& profile,
                                     std::size_t samples,
                                     std::size_t epochs) const {
  const double cpus = std::max(profile.cpus, 1e-6);
  return static_cast<double>(epochs) * static_cast<double>(samples) *
         cost_.seconds_per_sample / cpus;
}

double LatencyModel::latency_from(const ResourceProfile& profile,
                                  double compute,
                                  util::Rng::NormalDraw draw) const {
  if (profile.unavailable) return std::numeric_limits<double>::infinity();
  // E[lognormal(mu, s)] = exp(mu + s^2/2); center it at 1 so the jitter is
  // mean-preserving and the profiler's mean latency matches expectation.
  const double s = profile.jitter_sigma;
  const double jitter =
      s > 0 ? util::Rng::lognormal_from(draw, -0.5 * s * s, s) : 1.0;
  return compute * jitter + cost_.fixed_overhead + profile.comm_seconds;
}

double LatencyModel::expected_link_delay(const LinkProfile& link,
                                         std::size_t payload_bytes) const {
  const double bandwidth = std::max(link.bandwidth_mbps, 1e-9);
  const double transfer =
      static_cast<double>(payload_bytes) * 8.0 / (bandwidth * 1e6);
  return link.latency_seconds + transfer;
}

double LatencyModel::sample_link_delay(const LinkProfile& link,
                                       std::size_t payload_bytes,
                                       util::Rng& rng) const {
  const double bandwidth = std::max(link.bandwidth_mbps, 1e-9);
  const double transfer =
      static_cast<double>(payload_bytes) * 8.0 / (bandwidth * 1e6);
  const double s = link.jitter_sigma;
  // One draw per delivery whenever jitter is on (even for an empty
  // payload), keeping the link stream's position a pure function of the
  // delivery count.
  const double jitter = s > 0 ? rng.lognormal(-0.5 * s * s, s) : 1.0;
  return link.latency_seconds + transfer * jitter;
}

util::Rng link_stream(std::uint64_t run_seed, std::uint64_t link_id) {
  return util::Rng(util::mix_seed(run_seed, 0x11A7, link_id));
}

CostModel cifar_cost_model() { return CostModel{0.010, 3.0}; }
CostModel mnist_cost_model() { return CostModel{0.004, 1.5}; }
CostModel femnist_cost_model() { return CostModel{0.012, 3.0}; }

}  // namespace tifl::sim
