// Seeded fault injection for the async engines: server crash points and
// client update-loss events on the virtual timeline.
//
// Two fault classes, both pure functions of the seed so a faulted run is
// exactly as reproducible as a clean one:
//
//   * crash_at: a virtual-time server kill point.  The engine checks the
//     queue head *before* popping and raises SimulatedCrash when the next
//     event would cross the point — consuming no RNG draws, so the loss
//     stream below stays aligned between the crashed run and the
//     uninterrupted oracle it is diffed against.
//   * update loss: each would-be-delivered client update is lost with
//     probability `loss_prob`, drawn from a dedicated stream in event
//     order.  Lost updates take the park-with-retry path: the delivery is
//     rescheduled after a deterministic exponential backoff, up to
//     `max_retries` attempts, then dropped permanently (the timeout case).
//
// The loss stream draws exactly one Bernoulli per delivery attempt, in
// the queue's deterministic (time, seq) pop order.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/rng.h"
#include "util/serial.h"

namespace tifl::sim {

struct FaultConfig {
  // Per-delivery loss probability in [0, 1).  1 is rejected: every
  // attempt would be lost and retried forever.
  double loss_prob = 0.0;
  // Virtual time of the injected server crash; 0 disables.
  double crash_at = 0.0;
  // Redelivery attempts for a lost update before it is dropped for good.
  std::size_t max_retries = 3;
  // Deterministic backoff: attempt k waits min(max, base * factor^(k-1)).
  double backoff_base = 0.5;
  double backoff_factor = 2.0;
  double backoff_max = 30.0;
  std::uint64_t seed = 0;  // 0 = derive from the run seed

  bool active() const { return loss_prob > 0.0; }
};

// Raised by the engine when virtual time reaches FaultConfig::crash_at —
// the in-process stand-in for SIGKILL that lets ctest assert recovery
// without forking.  The CI smoke kills a real process as well.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(double time)
      : std::runtime_error("simulated server crash at virtual time " +
                           std::to_string(time)),
        time_(time) {}
  double time() const noexcept { return time_; }

 private:
  double time_;
};

class FaultModel {
 public:
  // Throws std::invalid_argument on loss_prob outside [0, 1), negative
  // crash/backoff parameters, or a zero backoff factor with retries.
  FaultModel(FaultConfig config, std::uint64_t run_seed);

  const FaultConfig& config() const { return config_; }
  bool active() const { return config_.active(); }
  double crash_at() const { return config_.crash_at; }

  // One Bernoulli draw from the loss stream (call once per delivery
  // attempt, in event order).  Always false when loss_prob == 0 — and
  // draws nothing, so enabling crash_at alone perturbs no streams.
  bool lose_update() {
    return config_.loss_prob > 0.0 && rng_.bernoulli(config_.loss_prob);
  }

  // Backoff before redelivery `attempt` (1-based).  RNG-free.
  double backoff(std::size_t attempt) const;

  // Checkpoint/resume: the loss-stream RNG position.
  void save_state(util::ByteSink& sink) const;
  void restore_state(util::ByteSource& source);

 private:
  FaultConfig config_;
  util::Rng rng_{0};
};

}  // namespace tifl::sim
