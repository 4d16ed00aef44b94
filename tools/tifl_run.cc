// tifl_run — config-driven experiment runner.
//
// Compose any dataset preset x partition scheme x selection policy from
// the command line without writing C++:
//
//   tifl_run --dataset cifar --partition classes --classes 5
//            --policy adaptive --rounds 100 --clients 50 --per-round 5
//            --csv run.csv
//
// Flags (defaults in brackets):
//   --dataset    cifar | mnist | fmnist | femnist            [cifar]
//   --partition  iid | classes | quantity | combine | leaf   [iid]
//   --classes    k for class-limited partitions              [5]
//   --affinity   group<->class affinity for combine          [0]
//   --policy     any name in the selection-policy registry; `--help`
//                prints the live list with per-engine support
//                                    [sync: adaptive; async: uniform]
//   --rounds N [100]   --clients N [50]   --per-round N [5]
//   --tiers M [5]      --seed S [1]       --scale S [0.25]
//   --time-budget SECONDS [0 = unlimited]
//   --csv FILE   per-round series output
//   --engine     sync | async                                [sync]
//   --staleness  constant | poly | invfreq (async only)      [constant]
//   --alpha      polynomial staleness decay exponent         [0.5]
//   --churn RATE            join/leave/slowdown events per virtual
//                           second, each stream at RATE (async only) [0]
//   --reprofile-every SECS  online re-tiering period; tiers are rebuilt
//                           from decayed observed latencies without
//                           restarting the run (async only)          [0]
//   --churn-seed S          pin the churn stream independently of
//                           --seed (0 = derive from the run seed)    [0]
//   --virtual               virtualize the client population: lazy IID
//                           shards + on-demand client materialization
//                           (fl::ClientPool), so --clients 1000000 runs
//                           in bounded memory.  async engine only; auto-
//                           enabled at >= 100000 clients.
//   --samples-per-client N  virtual shard size (0 = dataset/clients) [50]
//   --shard-spread F        virtual shard-size jitter in [0,1]       [0.5]
//   --log-level  debug | info | warn | error                  [warn]
//   --metrics-out FILE      write the global metrics registry snapshot
//                           (counters/gauges/histograms) as JSON
//   --trace-out FILE        stream the structured event trace as JSONL
//                           (virtual-time stamped; convert with
//                           trace2chrome for chrome://tracing)
//   --report                print the wall-clock phase profile
//                           (profile/select/train/aggregate/eval)
//
// Durability & fault injection (async engine only):
//   --checkpoint FILE       snapshot target; written atomically (temp +
//                           fsync + rename), so the file is always a
//                           complete, loadable snapshot
//   --checkpoint-every SECS virtual-time checkpoint period (requires
//                           --checkpoint)                            [0]
//   --resume FILE           resume a run from a snapshot; the completed
//                           run is byte-identical to the uninterrupted
//                           one (same final model hash, same trace
//                           suffix)
//   --event-log FILE        append-only CRC-framed record of every
//                           processed event (torn tails tolerated; on
//                           resume the log is truncated back to the
//                           snapshot's event horizon)
//   --fault-loss P          per-delivery update loss probability; lost
//                           updates retry with exponential backoff    [0]
//   --fault-retries N       retry budget before an update is dropped  [3]
//   --fault-backoff SECS    base retry backoff (doubles per attempt) [0.5]
//   --fault-crash-at T      inject a server crash at virtual time T;
//                           the process exits with status 3 and the
//                           last checkpoint stays loadable            [0]
//   --fault-seed S          pin the fault stream independently of
//                           --seed (0 = derive from the run seed)     [0]
//
// Hierarchical aggregation (async engine only):
//   --topology FILE         aggregator-tree topology file (see
//                           src/fl/hier/topology.h for the format);
//                           clients split across the leaf regions and
//                           every inner node aggregates at its own
//                           cadence over latency/bandwidth-costed links
//   --regions N             shorthand for a root + N identical leaf
//                           regions; --regions 1 collapses to the flat
//                           async engine byte for byte               [0]
//   --region-tiers M        tiers formed per leaf region              [2]
//   --region-outage-rate R  regional outages per virtual second: all
//                           clients of one leaf drop together and
//                           rejoin after the outage window            [0]
//   --region-outage-duration SECS  outage window length             [500]
//   --region-outage-horizon SECS   outage sampling horizon          [5000]
//
// All output locations (--csv, --metrics-out, --trace-out, --checkpoint,
// --event-log) are checked for writability up front: an unwritable
// directory fails fast with a clear message before any data loads.  A
// flag that `--help` does not list, or a bare argument, exits with
// status 2 before anything runs.
//
// With --engine async every tier trains at its own cadence; --policy
// drives per-tier member selection (e.g. `--policy adaptive` runs Alg. 2
// against the async per-tier accuracies; omit it for the default uniform
// self-sampling) and --rounds counts global model versions (tier
// submissions) instead of synchronized rounds.  Policies that cannot
// drive the selected engine are rejected up front with the list of
// capable ones.  Any positive --churn or --reprofile-every switches the async
// engine to the dynamic client lifecycle: clients join, leave and slow
// down mid-round on the event timeline, updates are submitted per client
// with their own staleness, and ReProfile events migrate clients between
// tiers with tier models intact.  --churn 0 --reprofile-every 0 replays
// the static async engine bit for bit.
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "core/policy_registry.h"
#include "fl/hier/topology.h"
#include "fl/policy_registry.h"
#include "nn/checkpoint.h"
#include "sim/churn_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenarios.h"
#include "sim/fault_model.h"
#include "util/log.h"

namespace {

using namespace tifl;
using namespace tifl::bench;

// The flags tifl_run accepts are the ones this text names (see
// unknown_argument), so the two cannot drift apart.
constexpr char kUsage[] =
    "tifl_run — config-driven experiment runner\n"
    "\n"
    "usage: tifl_run [flags]\n"
    "  --dataset    cifar | mnist | fmnist | femnist            [cifar]\n"
    "  --partition  iid | classes | quantity | combine | leaf   [iid]\n"
    "  --classes N  --affinity F  (partition knobs)\n"
    "  --policy     selection policy by name (see list below)\n"
    "               [sync default: adaptive; async default: uniform\n"
    "               self-sampling]\n"
    "  --rounds N [100]   --clients N [50]   --per-round N [5]\n"
    "  --tiers M [5]      --seed S [1]       --scale S [0.25]\n"
    "  --time-budget SECONDS [0 = unlimited]   --csv FILE\n"
    "  --engine     sync | async                                [sync]\n"
    "  --staleness  constant | poly | invfreq (async)    [constant]\n"
    "  --alpha F    --churn RATE  --reprofile-every SECS\n"
    "  --churn-seed S  --virtual  --samples-per-client N\n"
    "  --shard-spread F\n"
    "  --log-level  debug | info | warn | error          [warn]\n"
    "  --metrics-out FILE   metrics registry snapshot (JSON)\n"
    "  --trace-out FILE     structured event trace (JSONL)\n"
    "  --report             wall-clock phase profile table\n"
    "  --checkpoint FILE    atomic snapshot target (async)\n"
    "  --checkpoint-every SECS  virtual-time checkpoint period [0]\n"
    "  --resume FILE        resume from a snapshot; byte-identical to\n"
    "                       the uninterrupted run\n"
    "  --event-log FILE     append-only CRC-framed event record\n"
    "  --fault-loss P       update loss probability [0]\n"
    "  --fault-retries N    retries before an update is dropped [3]\n"
    "  --fault-backoff SECS base retry backoff, doubles per try [0.5]\n"
    "  --fault-crash-at T   inject a server crash at virtual time T\n"
    "                       (exit status 3)\n"
    "  --fault-seed S       pin the fault stream (0 = derive) [0]\n"
    "  --topology FILE      aggregator-tree topology file (async)\n"
    "  --regions N          root + N leaf regions; 1 = flat [0]\n"
    "  --region-tiers M     tiers per leaf region [2]\n"
    "  --region-outage-rate R       regional outages per virtual sec [0]\n"
    "  --region-outage-duration S   outage window length [500]\n"
    "  --region-outage-horizon S    outage sampling horizon [5000]\n"
    "  --help               this text and the live policy list\n"
    "\n";

// BenchOptions::from_cli reads these as well (scale, seed, csv and
// rounds are already in the usage text).
constexpr const char* kBenchFlags[] = {"full", "runs"};

// The policy list is rendered from the live registry so the help text
// cannot drift from the code.
void print_usage() {
  core::register_builtin_policies();
  const fl::PolicyRegistry& registry = fl::PolicyRegistry::instance();
  std::cout << kUsage << "selection policies (from the registry):\n";
  for (const std::string& name : registry.names()) {
    const fl::PolicyRegistry::Entry& entry = registry.entry(name);
    std::string engines = entry.sync && entry.async ? "sync+async"
                          : entry.sync              ? "sync"
                                                    : "async";
    std::cout << "  " << name;
    for (std::size_t pad = name.size(); pad < 14; ++pad) std::cout << ' ';
    std::cout << "[" << engines << "]  " << entry.summary << "\n";
  }
}

// The first argument tifl_run does not know, described for an error
// message, or nothing.  A mistyped or retired flag must stop the run:
// ignored, it would silently run the defaults instead.
std::optional<std::string> unknown_argument(const util::Cli& cli) {
  std::set<std::string> known(std::begin(kBenchFlags), std::end(kBenchFlags));
  const std::string_view usage = kUsage;
  for (std::size_t at = usage.find("--"); at != std::string_view::npos;
       at = usage.find("--", at)) {
    at += 2;
    std::size_t end = at;
    while (end < usage.size() &&
           (std::isalnum(static_cast<unsigned char>(usage[end])) != 0 ||
            usage[end] == '-')) {
      ++end;
    }
    known.emplace(usage.substr(at, end - at));
    at = end;
  }
  for (const std::string& key : cli.keys()) {
    if (known.count(key) == 0) return "unknown flag --" + key;
  }
  if (!cli.positionals().empty()) {
    return "unexpected argument '" + cli.positionals().front() + "'";
  }
  return std::nullopt;
}

// Fail fast on unwritable output locations *before* any data loads: a
// multi-minute run must not die at the end because --metrics-out pointed
// into a read-only (or missing) directory.
void require_writable(const std::string& flag, const std::string& path) {
  if (path.empty()) return;
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  if (::access(dir.c_str(), W_OK) != 0) {
    throw std::runtime_error("--" + flag + " " + path + ": directory '" +
                             dir + "' is not writable (" +
                             std::strerror(errno) + ")");
  }
  // An existing target must itself be replaceable.
  if (::access(path.c_str(), F_OK) == 0 &&
      ::access(path.c_str(), W_OK) != 0) {
    throw std::runtime_error("--" + flag + " " + path +
                             ": file exists and is not writable");
  }
}

std::string hash_hex(std::span<const float> weights) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0')
      << nn::weights_fnv1a(weights);
  return out.str();
}

ScenarioConfig from_flags(const util::Cli& cli, const BenchOptions& options) {
  ScenarioConfig config = cifar_base(options);
  config.name = "tifl_run";
  config.rounds = static_cast<std::size_t>(cli.get_int("rounds", 100));
  config.num_clients = static_cast<std::size_t>(cli.get_int("clients", 50));
  config.clients_per_round =
      static_cast<std::size_t>(cli.get_int("per-round", 5));
  config.num_tiers = static_cast<std::size_t>(cli.get_int("tiers", 5));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  const double scale = cli.get_double("scale", 0.25);
  const std::string dataset = cli.get("dataset", "cifar");
  if (dataset == "cifar") {
    config.spec = data::cifar_like_spec(scale);
    config.cost = sim::cifar_cost_model();
    config.cpu_groups = sim::cifar_cpu_groups();
  } else if (dataset == "mnist") {
    config.spec = data::mnist_like_spec(scale);
    config.cost = sim::mnist_cost_model();
    config.cpu_groups = sim::mnist_cpu_groups();
  } else if (dataset == "fmnist") {
    config.spec = data::fmnist_like_spec(scale);
    config.cost = sim::mnist_cost_model();
    config.cpu_groups = sim::mnist_cpu_groups();
  } else if (dataset == "femnist") {
    config.spec = data::femnist_like_spec(scale);
    config.cost = sim::femnist_cost_model();
    config.cpu_groups = sim::cifar_cpu_groups();
    config.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
    config.optimizer.lr = 0.06;
    config.lr_decay = 1.0;
    config.mlp_hidden = 64;
  } else {
    throw std::invalid_argument("unknown --dataset " + dataset);
  }

  const std::string partition = cli.get("partition", "iid");
  config.classes_per_client =
      static_cast<std::size_t>(cli.get_int("classes", 5));
  if (partition == "iid") {
    config.partition = ScenarioConfig::Partition::kIid;
  } else if (partition == "classes") {
    config.partition = ScenarioConfig::Partition::kClasses;
  } else if (partition == "quantity") {
    config.partition = ScenarioConfig::Partition::kQuantity;
    config.quantity_fractions = {0.10, 0.15, 0.20, 0.25, 0.30};
  } else if (partition == "combine") {
    config.partition = ScenarioConfig::Partition::kClassesQuantity;
    config.quantity_fractions = {0.10, 0.15, 0.20, 0.25, 0.30};
    config.group_class_affinity = cli.get_double("affinity", 0.0);
  } else if (partition == "leaf") {
    config.partition = ScenarioConfig::Partition::kLeaf;
    config.shuffle_groups = true;
  } else {
    throw std::invalid_argument("unknown --partition " + partition);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  if (const std::optional<std::string> bad = unknown_argument(cli)) {
    std::cerr << "tifl_run: " << *bad << " (see --help)\n";
    return 2;
  }
  try {
    // Inside the try: a malformed number (--rounds 7x) stops the run.
    BenchOptions options = BenchOptions::from_cli(argc, argv);
    const std::string level_name = cli.get("log-level", "warn");
    const std::optional<util::LogLevel> level =
        util::parse_log_level(level_name);
    if (!level.has_value()) {
      throw std::invalid_argument("unknown --log-level " + level_name +
                                  " (debug | info | warn | error)");
    }
    util::set_log_level(*level);

    require_writable("csv", cli.get("csv", ""));
    require_writable("metrics-out", cli.get("metrics-out", ""));
    require_writable("trace-out", cli.get("trace-out", ""));
    require_writable("checkpoint", cli.get("checkpoint", ""));
    require_writable("event-log", cli.get("event-log", ""));

    ScenarioConfig config = from_flags(cli, options);
    config.time_budget_seconds = cli.get_double("time-budget", 0.0);

    const std::string engine = cli.get("engine", "sync");
    if (engine != "sync" && engine != "async") {
      throw std::invalid_argument("unknown --engine " + engine +
                                  " (sync | async)");
    }
    if (engine != "async" &&
        (!cli.get("topology", "").empty() || cli.get_int("regions", 0) > 0)) {
      throw std::invalid_argument(
          "--topology / --regions require --engine async: the aggregator "
          "tree runs on the asynchronous event timeline");
    }
    // Paper-scale populations never materialize a Client per id: beyond
    // 100k clients (or on request) the population is virtualized — lazy
    // shards over a shared permutation plus an LRU of in-flight clients.
    const bool virtualized =
        cli.get_bool("virtual") || config.num_clients >= 100000;
    if (virtualized) {
      if (engine != "async") {
        throw std::invalid_argument(
            "--virtual (and populations >= 100000 clients) requires "
            "--engine async: the synchronous engine materializes every "
            "client");
      }
      config.lazy.samples_per_client = static_cast<std::size_t>(
          cli.get_int("samples-per-client", 50));
      config.lazy.spread = cli.get_double("shard-spread", 0.5);
    }
    Scenario scenario = virtualized ? build_virtual_scenario(std::move(config))
                                    : build_scenario(std::move(config));

    // Tracing covers the run only (installed after scenario setup so data
    // loading stays out of the stream); metrics snapshot after the run.
    const std::string trace_out = cli.get("trace-out", "");
    std::ofstream trace_stream;
    std::optional<obs::Tracer> tracer;
    std::optional<obs::TracerScope> trace_scope;
    if (!trace_out.empty()) {
      trace_stream.open(trace_out);
      if (!trace_stream) {
        throw std::runtime_error("cannot open --trace-out file " + trace_out);
      }
      tracer.emplace(&trace_stream);
      trace_scope.emplace(&*tracer);
    }
    const std::string metrics_out = cli.get("metrics-out", "");
    const bool report = cli.has("report");
    const auto finish = [&](const fl::RunResult& result) {
      if (tracer.has_value()) {
        trace_scope.reset();
        tracer->flush();
        trace_stream.close();
        std::cout << "trace written to " << trace_out << "\n";
      }
      if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        if (!out) {
          throw std::runtime_error("cannot open --metrics-out file " +
                                   metrics_out);
        }
        out << obs::Registry::global().to_json() << "\n";
        std::cout << "metrics written to " << metrics_out << "\n";
      }
      if (report && !result.phases.empty()) {
        util::TablePrinter phase_table({"phase", "seconds", "calls"});
        for (const obs::PhaseStat& stat : result.phases) {
          phase_table.add_row({stat.name,
                               util::format_double(stat.seconds, 3),
                               std::to_string(stat.calls)});
        }
        std::cout << "\nphase profile (wall seconds)\n"
                  << phase_table.to_string();
      }
    };

    print_tiering(*scenario.system);
    if (engine == "async") {
      fl::AsyncConfig async;
      async.staleness = fl::parse_staleness(cli.get("staleness", "constant"));
      async.poly_alpha = cli.get_double("alpha", 0.5);
      async.time_budget_seconds = cli.get_double("time-budget", 0.0);
      const double churn = cli.get_double("churn", 0.0);
      async.churn.join_rate = churn;
      async.churn.leave_rate = churn;
      async.churn.slowdown_rate = churn;
      async.churn.seed =
          static_cast<std::uint64_t>(cli.get_int("churn-seed", 0));
      async.reprofile_every = cli.get_double("reprofile-every", 0.0);
      async.checkpoint_every = cli.get_double("checkpoint-every", 0.0);
      async.checkpoint_path = cli.get("checkpoint", "");
      async.resume_path = cli.get("resume", "");
      async.event_log_path = cli.get("event-log", "");
      async.fault.loss_prob = cli.get_double("fault-loss", 0.0);
      async.fault.crash_at = cli.get_double("fault-crash-at", 0.0);
      async.fault.max_retries =
          static_cast<std::size_t>(cli.get_int("fault-retries", 3));
      async.fault.backoff_base = cli.get_double("fault-backoff", 0.5);
      async.fault.seed =
          static_cast<std::uint64_t>(cli.get_int("fault-seed", 0));

      // --policy drives per-tier member selection; unset keeps the
      // engine's default uniform self-sampling (bit-identical to the
      // pre-policy-seam engine).
      std::unique_ptr<fl::SelectionPolicy> policy;
      const std::string policy_name = cli.get("policy", "");
      if (!policy_name.empty()) {
        policy = scenario.system->make_policy(policy_name);
        if (!policy->supports(fl::EngineKind::kAsync)) {
          throw std::invalid_argument(
              "policy '" + policy_name +
              "' does not support the async engine (async-capable: " +
              fl::join_policy_names(fl::PolicyRegistry::instance().names(
                  fl::EngineKind::kAsync)) +
              ")");
        }
      }
      // --topology / --regions switch the run onto the aggregator tree.
      const std::string topology_path = cli.get("topology", "");
      const std::size_t regions =
          static_cast<std::size_t>(cli.get_int("regions", 0));
      if (!topology_path.empty() || regions > 0) {
        fl::hier::HierConfig hier;
        hier.topology = !topology_path.empty()
                            ? fl::hier::Topology::load(topology_path)
                            : fl::hier::Topology::regions(regions);
        hier.tiers_per_region =
            static_cast<std::size_t>(cli.get_int("region-tiers", 2));
        const double outage_rate = cli.get_double("region-outage-rate", 0.0);
        if (outage_rate > 0.0) {
          sim::ChurnConfig outage_churn;
          outage_churn.leave_rate = outage_rate;
          hier.outages = sim::regional_outages(
              outage_churn,
              static_cast<std::uint64_t>(cli.get_int("seed", 1)),
              hier.topology.leaves().size(),
              cli.get_double("region-outage-horizon", 5000.0),
              cli.get_double("region-outage-duration", 500.0));
        }
        const fl::hier::HierRunResult run =
            scenario.system->run_hier(std::move(hier), async, {},
                                      policy.get());
        const fl::RunResult& result = run.result;

        util::TablePrinter table({"metric", "value"});
        table.add_row({"engine", result.policy_name});
        table.add_row(
            {"global versions", std::to_string(result.rounds.size())});
        table.add_row({"training time [s]",
                       util::format_double(result.total_time(), 1)});
        table.add_row({"final accuracy [%]",
                       util::format_double(result.final_accuracy() * 100, 2)});
        table.add_row({"best accuracy [%]",
                       util::format_double(result.best_accuracy() * 100, 2)});
        table.add_row({"final model hash", hash_hex(run.final_weights)});
        table.add_row({"tree nodes", std::to_string(run.node_rounds.size())});
        if (!run.collapsed) {
          table.add_row({"uplinks / downlinks",
                         std::to_string(run.uplinks) + " / " +
                             std::to_string(run.downlinks)});
          table.add_row(
              {"root link [bytes]", std::to_string(run.root_link_bytes)});
          if (run.outage_count > 0 || run.rejoin_count > 0) {
            table.add_row({"regional outages / rejoins",
                           std::to_string(run.outage_count) + " / " +
                               std::to_string(run.rejoin_count)});
          }
          if (run.reprofile_count > 0) {
            table.add_row(
                {"re-tierings", std::to_string(run.reprofile_count)});
          }
        }
        std::cout << "\n" << table.to_string();
        finish(result);

        const std::string csv = cli.get("csv", "");
        if (!csv.empty()) {
          result.write_csv(csv);
          std::cout << "per-version series written to " << csv << "\n";
        }
        return 0;
      }

      const fl::AsyncRunResult run =
          scenario.system->run_async(async, {}, policy.get());
      const fl::RunResult& result = run.result;

      util::TablePrinter tiers = async_cadence_table(run);
      util::TablePrinter table({"metric", "value"});
      table.add_row({"engine", result.policy_name});
      table.add_row({"global versions", std::to_string(result.rounds.size())});
      table.add_row(
          {"training time [s]", util::format_double(result.total_time(), 1)});
      table.add_row({"final accuracy [%]",
                     util::format_double(result.final_accuracy() * 100, 2)});
      table.add_row({"best accuracy [%]",
                     util::format_double(result.best_accuracy() * 100, 2)});
      // FNV-1a over the final weight bits: the one-line byte-identity
      // probe the kill-and-resume smoke diffs across runs.
      table.add_row({"final model hash", hash_hex(run.final_weights)});
      if (churn > 0.0 || async.reprofile_every > 0.0) {
        table.add_row({"joins / leaves", std::to_string(run.join_count) +
                                             " / " +
                                             std::to_string(run.leave_count)});
        table.add_row({"slowdowns", std::to_string(run.slowdown_count)});
        table.add_row({"re-tierings", std::to_string(run.reprofile_count)});
        table.add_row({"live clients at end",
                       std::to_string(run.final_live_clients)});
      }
      std::cout << "\n" << tiers.to_string() << "\n" << table.to_string();
      finish(result);

      const std::string csv = cli.get("csv", "");
      if (!csv.empty()) {
        result.write_csv(csv);
        std::cout << "per-version series written to " << csv << "\n";
      }
      return 0;
    }

    // Sync path: run_policies resolves the name through the registry and
    // rejects async-only policies with the sync-capable list.
    const std::string policy_name = cli.get("policy", "adaptive");
    const std::vector<PolicyRun> runs =
        run_policies(scenario, {policy_name}, options);
    const fl::RunResult& result = runs.front().result;

    util::TablePrinter table({"metric", "value"});
    table.add_row({"policy", policy_name});
    table.add_row({"rounds run", std::to_string(result.rounds.size())});
    table.add_row(
        {"training time [s]", util::format_double(result.total_time(), 1)});
    table.add_row({"final accuracy [%]",
                   util::format_double(result.final_accuracy() * 100, 2)});
    table.add_row({"best accuracy [%]",
                   util::format_double(result.best_accuracy() * 100, 2)});
    std::cout << "\n" << table.to_string();
    finish(result);

    const std::string csv = cli.get("csv", "");
    if (!csv.empty()) {
      result.write_csv(csv);
      std::cout << "per-round series written to " << csv << "\n";
    }
  } catch (const sim::SimulatedCrash& crash) {
    // Injected server crash (--fault-crash-at): distinct exit status so
    // harnesses can tell "crashed as asked" from real failures.  The last
    // checkpoint written before the crash point is complete and loadable.
    std::cerr << "tifl_run: simulated crash at t=" << crash.time()
              << " (resume with --resume)\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "tifl_run: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
