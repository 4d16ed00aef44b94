#include "core/retier.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace tifl::core {

namespace {

void validate(const RetierConfig& config, const std::vector<double>& latency,
              const std::vector<bool>& inactive) {
  if (latency.size() != inactive.size()) {
    throw std::invalid_argument("OnlineReTierer: latency/inactive mismatch");
  }
  if (latency.empty()) {
    throw std::invalid_argument("OnlineReTierer: no clients");
  }
  if (config.ema_alpha <= 0.0 || config.ema_alpha > 1.0) {
    throw std::invalid_argument("OnlineReTierer: ema_alpha outside (0, 1]");
  }
  if (config.num_tiers == 0) {
    throw std::invalid_argument("OnlineReTierer: need at least one tier");
  }
}

}  // namespace

OnlineReTierer::OnlineReTierer(RetierConfig config,
                               std::vector<double> initial_latency,
                               std::vector<bool> inactive)
    : config_(config),
      latency_(std::move(initial_latency)),
      inactive_(std::move(inactive)) {
  validate(config_, latency_, inactive_);
  rebuild();
}

OnlineReTierer::OnlineReTierer(RetierConfig config,
                               std::vector<double> initial_latency,
                               std::vector<bool> inactive,
                               TierInfo initial_tiers)
    : config_(config),
      latency_(std::move(initial_latency)),
      inactive_(std::move(inactive)),
      tiers_(std::move(initial_tiers)) {
  validate(config_, latency_, inactive_);
  if (tiers_.tier_count() != config_.num_tiers) {
    throw std::invalid_argument(
        "OnlineReTierer: initial tiers do not match num_tiers");
  }
}

void OnlineReTierer::observe(std::size_t client, double latency) {
  if (std::isnan(latency) || latency < 0.0) {
    throw std::invalid_argument("OnlineReTierer: bad latency observation");
  }
  double& estimate = latency_.at(client);
  estimate = (1.0 - config_.ema_alpha) * estimate +
             config_.ema_alpha * latency;
}

void OnlineReTierer::set_active(std::size_t client, bool active) {
  inactive_.at(client) = !active;
}

void OnlineReTierer::seed_latency(std::size_t client, double latency) {
  latency_.at(client) = latency;
}

std::size_t OnlineReTierer::place(std::size_t client) const {
  const double estimate = latency_.at(client);
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < tiers_.tier_count(); ++t) {
    if (tiers_.members[t].empty()) continue;
    const double distance = std::abs(tiers_.avg_latency[t] - estimate);
    if (distance < best_distance) {
      best_distance = distance;
      best = t;
    }
  }
  return best;
}

const TierInfo& OnlineReTierer::rebuild() {
  tiers_ = build_tiers(latency_, inactive_, config_.num_tiers,
                       config_.strategy);
  return tiers_;
}

void OnlineReTierer::save_state(util::ByteSink& sink) const {
  sink.put_f64_vec(latency_);
  sink.put_u64(inactive_.size());
  for (bool flag : inactive_) sink.put_bool(flag);
  sink.put_u64(tiers_.members.size());
  for (const std::vector<std::size_t>& tier : tiers_.members) {
    sink.put_size_vec(tier);
  }
  sink.put_f64_vec(tiers_.avg_latency);
  sink.put_size_vec(tiers_.dropouts);
}

void OnlineReTierer::restore_state(util::ByteSource& source) {
  std::vector<double> latency = source.get_f64_vec();
  if (latency.size() != latency_.size()) {
    throw std::runtime_error("OnlineReTierer: snapshot population mismatch");
  }
  // The checks observe() applies to a live observation.
  for (std::size_t c = 0; c < latency.size(); ++c) {
    if (std::isnan(latency[c]) || latency[c] < 0.0) {
      throw std::runtime_error("OnlineReTierer: bad snapshot latency for "
                               "client " + std::to_string(c));
    }
  }
  latency_ = std::move(latency);
  const std::size_t flags = source.checked_count(source.get_u64(), 1);
  if (flags != inactive_.size()) {
    throw std::runtime_error("OnlineReTierer: snapshot population mismatch");
  }
  for (std::size_t c = 0; c < flags; ++c) inactive_[c] = source.get_bool();
  const std::size_t tiers = source.checked_count(source.get_u64(), 8);
  tiers_.members.assign(tiers, {});
  for (std::vector<std::size_t>& tier : tiers_.members) {
    tier = source.get_size_vec();
  }
  tiers_.avg_latency = source.get_f64_vec();
  tiers_.dropouts = source.get_size_vec();
}

}  // namespace tifl::core
