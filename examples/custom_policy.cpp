// Writing (and registering) your own selection policy.
//
// TiFL's scheduler is an ordinary `fl::SelectionPolicy`; anything that
// can pick clients from a `SelectionContext` and react to the engine's
// feedback plugs into the same engines.  This example implements a
// "sticky" tier policy from scratch: stay on the current tier while the
// global accuracy keeps improving, hop to the next (cyclically) once it
// stalls — a greedy cousin of Algorithm 2 with no credits and no
// probabilities — registers it in the string-keyed policy registry, and
// races it against uniform static selection and adaptive TiFL.
//
//   ./build/examples/custom_policy [--rounds N]
#include <iostream>

#include "core/system.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/policy_registry.h"
#include "nn/model_zoo.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/table.h"

namespace {

using namespace tifl;

// The whole extension surface: select() and observe().  On the async
// engine the context also names the dispatching tier and its selectable
// members (`context.candidates`) — this one only needs the round's RNG
// stream, so it stays sync-only (the default supports()).
class StickyTierPolicy final : public fl::SelectionPolicy {
 public:
  StickyTierPolicy(std::vector<std::vector<std::size_t>> members,
                   std::size_t clients_per_round)
      : members_(std::move(members)), clients_per_round_(clients_per_round) {}

  using fl::SelectionPolicy::select;
  fl::Selection select(const fl::SelectionContext& context) override {
    // Skip tiers that cannot fill a round.
    while (members_[tier_].size() < clients_per_round_) advance();
    fl::Selection selection;
    selection.tier = static_cast<int>(tier_);
    selection.clients = fl::Candidates(members_[tier_])
                            .draw(clients_per_round_, context.stream());
    return selection;
  }

  void observe(const fl::RoundFeedback& feedback) override {
    if (feedback.global_accuracy <= best_accuracy_ + 1e-4) {
      if (++stalled_ >= 3) {  // three stalls -> move on
        advance();
        stalled_ = 0;
      }
    } else {
      best_accuracy_ = feedback.global_accuracy;
      stalled_ = 0;
    }
  }

  std::string name() const override { return "sticky"; }

 private:
  void advance() { tier_ = (tier_ + 1) % members_.size(); }

  std::vector<std::vector<std::size_t>> members_;
  std::size_t clients_per_round_;
  std::size_t tier_ = 0;
  double best_accuracy_ = 0.0;
  std::size_t stalled_ = 0;
};

// One registration makes the policy addressable by name everywhere a
// name is accepted: `system.make_policy("sticky")` here, and equally
// `tifl_run --policy sticky` if this ran inside the tool.
void register_sticky() {
  fl::PolicyRegistry::instance().add(
      "sticky",
      {.factory =
           [](const fl::PolicyContext& context) {
             return std::make_unique<StickyTierPolicy>(
                 context.tier_members, context.clients_per_round);
           },
       .summary = "stay on a tier until global accuracy stalls",
       .sync = true,
       .async = false});
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const util::Cli cli(argc, argv);
  const std::size_t rounds =
      static_cast<std::size_t>(cli.get_int("rounds", 50));

  const data::SyntheticData dataset =
      data::make_synthetic(data::cifar_like_spec(0.25));
  constexpr std::size_t kClients = 30;
  util::Rng rng(17);
  const data::Partition partition =
      data::partition_classes(dataset.train, kClients, 5, rng);
  const auto test_shards = data::matched_test_indices(
      dataset.train, partition, dataset.test, rng);
  const auto resources = sim::assign_equal_groups(
      kClients, sim::cifar_cpu_groups(), 0.5, 0.02, rng);
  std::vector<fl::Client> clients = fl::make_clients(
      &dataset.train, partition, test_shards, resources);

  core::SystemConfig config;
  config.num_tiers = 5;
  config.clients_per_round = 4;
  config.profiler.tmax = 1000.0;
  config.engine.rounds = rounds;
  config.engine.local.optimizer.kind = nn::OptimizerConfig::Kind::kRmsProp;
  config.engine.local.optimizer.lr = 0.01;
  config.engine.eval_every = 2;
  const auto dims = dataset.train.dims();
  nn::ModelFactory factory = [dims](std::uint64_t seed) {
    return nn::mlp(dims.flat(), 48, 10, seed);
  };
  core::TiflSystem system(config, factory, &dataset.test, std::move(clients),
                          sim::LatencyModel(sim::cifar_cost_model()));

  register_sticky();

  util::TablePrinter table(
      {"policy", "time [s]", "final acc [%]", "best acc [%]"});
  auto report = [&table](const std::string& name,
                         const fl::RunResult& result) {
    table.add_row({name, util::format_double(result.total_time(), 0),
                   util::format_double(result.final_accuracy() * 100, 2),
                   util::format_double(result.best_accuracy() * 100, 2)});
  };

  // Every policy — the custom one included — now resolves by name.
  for (const auto& [label, name] :
       {std::pair<std::string, std::string>{"sticky (custom)", "sticky"},
        {"uniform", "uniform"},
        {"TiFL adaptive", "adaptive"}}) {
    auto policy = system.make_policy(name);
    report(label, system.run(*policy));
  }
  std::cout << table.to_string()
            << "\nAny SelectionPolicy subclass drops into the same engines "
               "— TiFL's scheduler is not privileged (cf. §4.1), and one "
               "PolicyRegistry::add makes it addressable by name.\n";
  return 0;
}
