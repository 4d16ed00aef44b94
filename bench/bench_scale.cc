// Million-client scale benchmark: the lazy client-state + batched
// event-processing substrate under load.
//
// For each population scale (10k / 100k / 1M clients; --smoke runs the
// 100k point only) the bench builds a *virtualized* federation —
// fl::ClientPool over lazy IID shards, no per-client materialization —
// and runs the async engine's dynamic lifecycle path with churn enabled
// (joins, leaves, mid-round slowdowns on the shared event timeline).
// Reported per scale:
//
//   * build time (synthetic data + profiling + tiering),
//   * run wall-clock, events consumed and events/sec,
//   * peak RSS so far (getrusage ru_maxrss — monotone over the process,
//     which is why scales run in ascending order),
//   * ClientPool accounting: peak simultaneously-materialized clients
//     and total materializations, the numbers that prove memory is
//     bounded by the in-flight cohort rather than the population.
//
// Every run reports two throughputs —
//
//   * events/sec end-to-end (events / run wall seconds), and
//   * simulator events/sec (events / (run − ML phases − engine bookends)):
//     the steady-state event-machinery rate with the ML wall time
//     (train/eval/aggregate phases) and the one-time O(population)
//     setup/finalize bookends (async.setup_ns + async.finalize_ns)
//     subtracted out — the rate of the event heap and the
//     order-statistics client sets, which the ROADMAP's throughput target
//     is measured against.
//
// After the scale sweep the full bench adds one more row: the largest
// scale again with at least 8192 updates (a fresh federation, same seed),
// enough events to amortize the churn streams past the profiled
// bookends.  Each row carries an FNV-1a hash of the final model weights,
// which pins the run's bytes across commits.
//
// Results land in BENCH_scale.json.  Acceptance bars: the 1M-client
// churned run completes in < 4 GB peak RSS, and its simulator events/sec
// clears 100x the ~1.9k ev/s of the simulator before batched event
// processing and lazy client state.
//
// Flags: --smoke (100k only, no long run), --clients N (single custom
//        scale, no long run), --updates N, --json PATH.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "util/log.h"

namespace tifl::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// FNV-1a over the raw float bits: any single-bit weight divergence
// flips it.
std::uint64_t weight_hash(const std::vector<float>& weights) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (float w : weights) {
    std::uint32_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

struct ScaleResult {
  std::size_t clients = 0;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  double sim_seconds = 0.0;  // run minus ML phases and engine bookends
  std::size_t updates = 0;
  std::size_t events = 0;
  std::size_t max_event_batch = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t slowdowns = 0;
  std::size_t pool_peak_live = 0;
  std::size_t pool_materializations = 0;
  double events_per_second = 0.0;
  double sim_events_per_second = 0.0;
  std::uint64_t final_weight_hash = 0;
  double peak_rss_mb = 0.0;
  std::string metrics;  // obs registry snapshot (JSON object)
};

ScenarioConfig scale_config(std::size_t clients, std::size_t updates,
                            std::uint64_t seed) {
  ScenarioConfig config;
  config.name = "scale/" + std::to_string(clients);
  // Small fixed dataset: the population is virtual, the data pool is not.
  config.spec.classes = 4;
  config.spec.dims = data::ImageDims{1, 6, 6};
  config.spec.train_samples = 4000;
  config.spec.test_samples = 512;
  config.spec.seed = seed;
  config.num_clients = clients;
  config.clients_per_round = 8;
  config.rounds = updates;  // async: global model versions
  config.batch_size = 10;
  config.local_epochs = 1;
  config.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.optimizer.lr = 0.05;
  config.lr_decay = 1.0;
  config.eval_every = 64;  // keep eval cost off the event-loop measurement
  config.seed = seed;
  config.model = ScenarioConfig::Model::kMlp;
  config.mlp_hidden = 16;
  config.cpu_groups = sim::cifar_cpu_groups();
  config.comm_seconds = 0.0;
  config.jitter_sigma = 0.05;
  config.cost = sim::CostModel{0.01, 1.0};
  config.profiler.tmax = 1000.0;  // keep everyone; churn supplies exits
  config.lazy.samples_per_client = 50;
  config.lazy.spread = 0.5;
  return config;
}

ScaleResult run_scale(std::size_t clients, std::size_t updates,
                      std::uint64_t seed) {
  ScaleResult result;
  result.clients = clients;
  // Per-scale snapshot: zero the global registry so each scale's metrics
  // block reflects that run only (instrument references stay valid).
  obs::Registry::global().reset();

  double t0 = now_seconds();
  Scenario scenario =
      build_virtual_scenario(scale_config(clients, updates, seed));
  result.build_seconds = now_seconds() - t0;

  fl::AsyncConfig async;
  async.staleness = fl::StalenessFn::kInverseFrequency;
  async.total_updates = updates;
  async.clients_per_tier_round = 8;
  async.eval_every = 64;
  // Churn on: the acceptance criterion is a 1M-client *churned* run.
  async.churn.join_rate = 1.0;
  async.churn.leave_rate = 1.0;
  async.churn.slowdown_rate = 2.0;

  t0 = now_seconds();
  const fl::AsyncRunResult run = scenario.system->run_async(async);
  result.run_seconds = now_seconds() - t0;

  result.updates = run.result.rounds.size();
  result.events = run.processed_events;
  result.max_event_batch = run.max_event_batch;
  result.joins = run.join_count;
  result.leaves = run.leave_count;
  result.slowdowns = run.slowdown_count;
  const fl::ClientPool& pool = scenario.system->client_pool();
  result.pool_peak_live = pool.peak_live_clients();
  result.pool_materializations = pool.materializations();
  result.events_per_second =
      result.run_seconds > 0.0
          ? static_cast<double>(result.events) / result.run_seconds
          : 0.0;
  // Simulator-only rate: subtract the ML wall time (training, eval,
  // model aggregation) the phase profiler attributed, plus the engine's
  // one-time O(population) bookends (async.setup_ns + async.finalize_ns),
  // leaving the steady-state event machinery itself.
  double ml_seconds = 0.0;
  for (const obs::PhaseStat& stat : run.result.phases) {
    if (stat.name == "train" || stat.name == "eval" ||
        stat.name == "aggregate") {
      ml_seconds += stat.seconds;
    }
  }
  const double bookend_seconds =
      static_cast<double>(
          obs::Registry::global().counter("async.setup_ns").value() +
          obs::Registry::global().counter("async.finalize_ns").value()) *
      1e-9;
  result.sim_seconds = result.run_seconds - ml_seconds - bookend_seconds;
  result.sim_events_per_second =
      result.sim_seconds > 0.0
          ? static_cast<double>(result.events) / result.sim_seconds
          : 0.0;
  result.final_weight_hash = weight_hash(run.final_weights);
  result.peak_rss_mb = peak_rss_mb();
  result.metrics = obs::Registry::global().to_json();
  return result;
}

}  // namespace
}  // namespace tifl::bench

int main(int argc, char** argv) {
  using namespace tifl;
  using namespace tifl::bench;

  util::set_log_level(util::LogLevel::kWarn);
  bool smoke = false;
  std::string json_path = "BENCH_scale.json";
  std::size_t updates = 512;
  std::size_t custom_clients = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--updates" && i + 1 < argc) {
      updates = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--clients" && i + 1 < argc) {
      custom_clients = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--smoke] [--clients N] [--updates N] "
                   "[--json PATH]\n");
      return 2;
    }
  }

  std::vector<std::size_t> scales{10000, 100000, 1000000};
  if (smoke) scales = {100000};
  if (custom_clients > 0) scales = {custom_clients};

  const auto print_row = [](const ScaleResult& r) {
    std::printf(
        "%-10zu %9.2f %9.2f %8zu %8zu %8.0f %9.0f %10zu %9zu %10.1f\n",
        r.clients, r.build_seconds, r.run_seconds, r.updates, r.events,
        r.events_per_second, r.sim_events_per_second, r.pool_peak_live,
        r.pool_materializations, r.peak_rss_mb);
  };
  std::printf("%-10s %9s %9s %8s %8s %8s %9s %10s %9s %10s\n", "clients",
              "build [s]", "run [s]", "updates", "events", "ev/s",
              "sim ev/s", "pool peak", "mat.", "RSS [MB]");
  std::vector<ScaleResult> results;
  for (std::size_t clients : scales) {
    const ScaleResult r = run_scale(clients, updates, /*seed=*/1);
    print_row(r);
    results.push_back(r);
  }

  // The long run measures steady-state event throughput at the largest
  // scale, so it needs enough events to amortize the churn streams past
  // the profiled bookends: floor the update count well above the default
  // scale-sweep budget.
  if (!smoke && custom_clients == 0) {
    results.push_back(run_scale(scales.back(),
                                std::max<std::size_t>(updates, 8192),
                                /*seed=*/1));
    print_row(results.back());
  }

  const auto emit = [](std::ofstream& json, const ScaleResult& r) {
    json << "    {\"clients\": " << r.clients
         << ", \"build_seconds\": " << r.build_seconds
         << ", \"run_seconds\": " << r.run_seconds
         << ", \"sim_seconds\": " << r.sim_seconds
         << ", \"updates\": " << r.updates << ", \"events\": " << r.events
         << ", \"events_per_second\": " << r.events_per_second
         << ", \"sim_events_per_second\": " << r.sim_events_per_second
         << ", \"max_event_batch\": " << r.max_event_batch
         << ", \"joins\": " << r.joins << ", \"leaves\": " << r.leaves
         << ", \"slowdowns\": " << r.slowdowns
         << ", \"pool_peak_live\": " << r.pool_peak_live
         << ", \"pool_materializations\": " << r.pool_materializations
         << ", \"final_weight_hash\": \"" << std::hex << r.final_weight_hash
         << std::dec << "\""
         << ", \"peak_rss_mb\": " << r.peak_rss_mb
         << ",\n     \"metrics\": " << r.metrics << "}";
  };
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"scale\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"updates\": " << updates
       << ",\n  \"scales\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit(json, results[i]);
    json << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
