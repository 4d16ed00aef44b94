#include "fl/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fl/async_engine.h"
#include "fl/engine.h"
#include "test_helpers.h"
#include "util/segmented_id_set.h"

namespace tifl::fl {
namespace {

TEST(SampleWithoutReplacement, ProducesDistinctInRange) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const auto picks = sample_without_replacement(20, 5, rng);
    EXPECT_EQ(picks.size(), 5u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 5u);
    for (std::size_t p : picks) EXPECT_LT(p, 20u);
  }
}

TEST(SampleWithoutReplacement, FullPopulationIsPermutation) {
  util::Rng rng(2);
  auto picks = sample_without_replacement(10, 10, rng);
  std::sort(picks.begin(), picks.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(picks[i], i);
}

TEST(SampleWithoutReplacement, CountExceedingPopulationThrows) {
  util::Rng rng(3);
  EXPECT_THROW(sample_without_replacement(3, 4, rng), std::invalid_argument);
}

TEST(SampleWithoutReplacement, UniformCoverage) {
  // Every element should be picked with probability count/n.
  util::Rng rng(4);
  std::vector<int> hits(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t p : sample_without_replacement(10, 3, rng)) ++hits[p];
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.3, 0.02);
  }
}

TEST(VanillaPolicy, SelectsRequestedCountUntiered) {
  VanillaPolicy policy(50, 5);
  util::Rng rng(5);
  const Selection s = policy.select(0, rng);
  EXPECT_EQ(s.clients.size(), 5u);
  EXPECT_EQ(s.tier, -1);
  EXPECT_EQ(policy.name(), "vanilla");
}

TEST(VanillaPolicy, DrawsSpanWholePopulationOverRounds) {
  VanillaPolicy policy(20, 5);
  util::Rng rng(6);
  std::set<std::size_t> seen;
  for (std::size_t r = 0; r < 50; ++r) {
    const Selection s = policy.select(r, rng);
    seen.insert(s.clients.begin(), s.clients.end());
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(VanillaPolicy, StragglerSelectionProbabilityMatchesEq3) {
  // §3.2: Prs = 1 - C(K-|tau_m|, C)/C(K, C).  With K=20, slowest level of
  // 4 clients, C=5: Prs = 1 - C(16,5)/C(20,5) ~= 0.718.  The empirical
  // frequency of "at least one slow client selected" must match.
  VanillaPolicy policy(20, 5);
  util::Rng rng(7);
  const std::set<std::size_t> slow{16, 17, 18, 19};
  int hit = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const Selection s = policy.select(0, rng);
    const bool any = std::any_of(s.clients.begin(), s.clients.end(),
                                 [&slow](std::size_t c) {
                                   return slow.count(c) != 0;
                                 });
    hit += any;
  }
  const double expected = 1.0 - (4368.0 / 15504.0);  // 1 - C(16,5)/C(20,5)
  EXPECT_NEAR(static_cast<double>(hit) / trials, expected, 0.015);
}

TEST(VanillaPolicy, InvalidConfigThrows) {
  EXPECT_THROW(VanillaPolicy(5, 0), std::invalid_argument);
  EXPECT_THROW(VanillaPolicy(5, 6), std::invalid_argument);
}

TEST(OverProvisionPolicy, Selects130PercentAndAggregatesTarget) {
  // Bonawitz et al.'s default: 30 % over-provisioning.
  OverProvisionPolicy policy(50, 10);
  EXPECT_EQ(policy.selected_per_round(), 13u);
  util::Rng rng(8);
  const Selection s = policy.select(0, rng);
  EXPECT_EQ(s.clients.size(), 13u);
  EXPECT_EQ(s.aggregate_count, 10u);
  EXPECT_EQ(s.tier, -1);
  std::set<std::size_t> unique(s.clients.begin(), s.clients.end());
  EXPECT_EQ(unique.size(), 13u);
}

TEST(OverProvisionPolicy, FactorRoundsUpAndClampsToPopulation) {
  OverProvisionPolicy tight(10, 9, 1.3);  // ceil(11.7) = 12 -> clamp 10
  EXPECT_EQ(tight.selected_per_round(), 10u);
  OverProvisionPolicy exact(100, 10, 1.0);  // no over-provisioning
  EXPECT_EQ(exact.selected_per_round(), 10u);
  util::Rng rng(9);
  EXPECT_EQ(exact.select(0, rng).aggregate_count, 10u);
}

TEST(OverProvisionPolicy, InvalidConfigThrows) {
  EXPECT_THROW(OverProvisionPolicy(50, 0), std::invalid_argument);
  EXPECT_THROW(OverProvisionPolicy(50, 10, 0.9), std::invalid_argument);
  EXPECT_THROW(OverProvisionPolicy(5, 6), std::invalid_argument);
}

TEST(OverProvisionPolicy, CeilBeyondPopulationSelectsEveryoneOnce) {
  // ceil(factor * target) > population: the selection clamps to the whole
  // pool (each client exactly once) while aggregate_count keeps the
  // original target, so the engine still drops the stragglers.
  OverProvisionPolicy policy(10, 8, 2.0);  // ceil(16) -> clamp 10
  EXPECT_EQ(policy.selected_per_round(), 10u);
  util::Rng rng(11);
  const Selection s = policy.select(0, rng);
  EXPECT_EQ(s.clients.size(), 10u);
  EXPECT_EQ(s.aggregate_count, 8u);
  std::set<std::size_t> unique(s.clients.begin(), s.clients.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(OverProvisionPolicy, TargetEqualToPopulationDegradesToFullRound) {
  // target == population: clamped selection equals the target, i.e. no
  // straggler can actually be dropped (aggregate_count == |selection|).
  OverProvisionPolicy policy(10, 10, 1.3);
  EXPECT_EQ(policy.selected_per_round(), 10u);
  util::Rng rng(12);
  const Selection s = policy.select(0, rng);
  EXPECT_EQ(s.clients.size(), 10u);
  EXPECT_EQ(s.aggregate_count, 10u);
}

// --- v2 context API ----------------------------------------------------------

TEST(SelectionPolicy, UntieredShimMatchesExplicitContext) {
  VanillaPolicy policy(30, 6);
  util::Rng rng_a(21), rng_b(21);
  const Selection via_shim = policy.select(3, rng_a);
  SelectionContext context;
  context.round = 3;
  context.rng = &rng_b;
  const Selection via_context = policy.select(context);
  EXPECT_EQ(via_shim.clients, via_context.clients);
}

TEST(SelectionPolicy, EngineSupportDefaultsAndOverrides) {
  VanillaPolicy vanilla(10, 2);
  EXPECT_TRUE(vanilla.supports(EngineKind::kSync));
  EXPECT_FALSE(vanilla.supports(EngineKind::kAsync));
  OverProvisionPolicy overprovision(10, 2);
  EXPECT_TRUE(overprovision.supports(EngineKind::kSync));
  EXPECT_FALSE(overprovision.supports(EngineKind::kAsync));
  UniformTierPolicy uniform(2);
  EXPECT_FALSE(uniform.supports(EngineKind::kSync));
  EXPECT_TRUE(uniform.supports(EngineKind::kAsync));
}

TEST(SampleWithoutReplacement, SparseBranchMatchesDenseBranch) {
  // The sparse (hash-map virtual-swap) branch must reproduce the dense
  // partial Fisher-Yates bit for bit: same rng draws, same sample.  Run a
  // reference dense shuffle by hand and compare against the library call
  // at population sizes that exercise the sparse branch (n >= 1024 with a
  // small count) and the dense one.
  for (std::uint64_t seed : {1u, 7u, 42u, 9001u}) {
    for (std::size_t n : {64ul, 1024ul, 4096ul, 100000ul}) {
      for (std::size_t count : {1ul, 8ul, 63ul}) {
        if (count > n) continue;
        util::Rng reference_rng(seed);
        std::vector<std::size_t> pool(n);
        std::iota(pool.begin(), pool.end(), std::size_t{0});
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t j = i + reference_rng.uniform_index(n - i);
          std::swap(pool[i], pool[j]);
        }
        pool.resize(count);
        util::Rng rng(seed);
        const auto got = sample_without_replacement(n, count, rng);
        EXPECT_EQ(got, pool) << "seed " << seed << " n " << n << " count "
                             << count;
        // Both must consume the same number of draws: the next value from
        // each stream agrees.
        EXPECT_EQ(rng.uniform_index(1u << 20),
                  reference_rng.uniform_index(1u << 20));
      }
    }
  }
}

// --- the candidate view ------------------------------------------------------

// `view` must index like `expected` and draw what one
// sample_without_replacement call indexed into `expected` draws, leaving
// the stream where that call leaves it.
void expect_view_matches(const Candidates& view,
                         const std::vector<std::size_t>& expected,
                         const std::string& label) {
  ASSERT_EQ(view.size(), expected.size()) << label;
  EXPECT_EQ(view.empty(), expected.empty()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(view[i], expected[i]) << label << " index " << i;
  }
  for (std::size_t count :
       {std::size_t{0}, std::size_t{1}, expected.size() / 5, expected.size()}) {
    if (count > expected.size()) continue;
    util::Rng via_view(count + 11);
    util::Rng via_list(count + 11);
    const std::vector<std::size_t> drawn = view.draw(count, via_view);
    std::vector<std::size_t> listed =
        sample_without_replacement(expected.size(), count, via_list);
    for (std::size_t& pick : listed) pick = expected[pick];
    EXPECT_EQ(drawn, listed) << label << " count " << count;
    EXPECT_EQ(via_view.next(), via_list.next()) << label << " count " << count;
  }
  util::Rng rng(1);
  EXPECT_THROW(view.draw(expected.size() + 1, rng), std::invalid_argument)
      << label;
}

TEST(Candidates, ListViewIndexesAndDrawsLikeTheList) {
  const std::vector<std::size_t> list{42, 7, 19, 3, 88, 61};
  expect_view_matches(Candidates(list), list, "list");
  expect_view_matches(Candidates(), {}, "default");
}

TEST(Candidates, SetViewSkipsRanksLikeTheMaterializedList) {
  // Members spread over three blocks of the set, dense enough that a
  // small draw takes sample_without_replacement's sparse branch.
  util::Rng setup(5);
  const std::size_t universe = 3 * util::SegmentedIdSet::kBlockSpan;
  util::SegmentedIdSet set(universe);
  for (std::size_t id = 0; id < universe; ++id) {
    if (setup.uniform() < 0.4) set.insert(id);
  }
  const std::vector<std::size_t> members = set.to_vector();
  const std::size_t n = members.size();
  ASSERT_GT(n, 4096u);

  std::vector<std::pair<std::string, std::vector<std::size_t>>> cases = {
      {"none", {}},
      {"first", {0}},
      {"last", {n - 1}},
      {"first two", {0, 1}},
      {"last two", {n - 2, n - 1}},
      {"adjacent inside", {700, 701, 702}},
      {"block edges", {set.rank(4096), set.rank(8192)}},
  };
  std::vector<std::size_t> all_but_one;
  for (std::size_t r = 0; r < n; ++r) {
    if (r != 1234) all_but_one.push_back(r);
  }
  cases.push_back({"all but one", all_but_one});
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::size_t> random;
    for (std::size_t r = 0; r < n; ++r) {
      if (setup.uniform() < 0.02 * (trial + 1)) random.push_back(r);
    }
    cases.push_back({"random " + std::to_string(trial), random});
  }

  for (const auto& [label, skips] : cases) {
    std::vector<std::size_t> expected;
    for (std::size_t r = 0, next = 0; r < n; ++r) {
      if (next < skips.size() && skips[next] == r) {
        ++next;
      } else {
        expected.push_back(members[r]);
      }
    }
    expect_view_matches(Candidates(set, skips), expected, label);
  }
}

TEST(UniformTierPolicy, SamplesWithinDispatchingTier) {
  UniformTierPolicy policy(3);
  const std::vector<std::size_t> candidates{10, 20, 30, 40, 50};
  util::Rng rng(31);
  SelectionContext context;
  context.round = 0;
  context.tier = 2;
  context.candidates = Candidates(candidates);
  context.rng = &rng;
  const Selection s = policy.select(context);
  EXPECT_EQ(s.tier, 2);
  EXPECT_EQ(s.clients.size(), 3u);
  std::set<std::size_t> unique(s.clients.begin(), s.clients.end());
  EXPECT_EQ(unique.size(), 3u);
  for (std::size_t c : s.clients) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), c),
              candidates.end());
  }
}

TEST(UniformTierPolicy, CapsAtCandidateCountAndRejectsUntieredCalls) {
  UniformTierPolicy policy(8);
  const std::vector<std::size_t> candidates{1, 2, 3};
  util::Rng rng(32);
  SelectionContext context;
  context.tier = 0;
  context.candidates = Candidates(candidates);
  context.rng = &rng;
  EXPECT_EQ(policy.select(context).clients.size(), 3u);
  EXPECT_THROW(policy.select(0, rng), std::logic_error);
  EXPECT_THROW(UniformTierPolicy(0), std::invalid_argument);
}

// --- repeated clients ------------------------------------------------------

TEST(CheckDistinctClients, NamesTheEngineAndTheRepeatedId) {
  EXPECT_NO_THROW(check_distinct_clients("Engine", {}));
  EXPECT_NO_THROW(
      check_distinct_clients("Engine", std::vector<std::size_t>{4, 1, 9, 0}));
  try {
    check_distinct_clients("AsyncEngine",
                           std::vector<std::size_t>{7, 3, 12, 3});
    FAIL() << "a repeated id was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("AsyncEngine"), std::string::npos) << what;
    EXPECT_NE(what.find(" 3 "), std::string::npos) << what;
  }
}

// Returns the first candidate twice (client 0 on the sync engine, which
// passes no candidates), and counts the versions it is told about.
class RepeatingPolicy final : public SelectionPolicy {
 public:
  using SelectionPolicy::select;
  Selection select(const SelectionContext& context) override {
    const std::size_t id =
        context.candidates.empty() ? 0 : context.candidates[0];
    Selection selection;
    selection.clients = {id, id};
    selection.tier = context.tier;
    return selection;
  }
  void observe(const RoundFeedback&) override { ++observed; }
  std::string name() const override { return "repeating"; }
  bool supports(EngineKind) const override { return true; }

  std::size_t observed = 0;
};

// 10 clients in two tiers, 40 versions, 2 clients per tier round.
void expect_async_loop_rejects_repeat(bool dynamic) {
  testing::TinyFederation fed =
      testing::FederationBuilder().clients(10).build();
  AsyncConfig async;
  async.total_updates = 40;
  async.clients_per_tier_round = 2;
  async.dynamic_lifecycle = dynamic;
  AsyncEngine engine(testing::tiny_engine_config(1), async,
                     testing::tiny_factory(), &fed.clients,
                     testing::two_tiers(10), &fed.data.test, fed.latency);
  ASSERT_EQ(engine.dynamic(), dynamic);
  RepeatingPolicy policy;
  engine.set_policy(&policy);
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_EQ(policy.observed, 0u);  // thrown at the first dispatch
}

TEST(RepeatedClient, StaticAsyncLoopThrows) {
  expect_async_loop_rejects_repeat(/*dynamic=*/false);
}

TEST(RepeatedClient, DynamicAsyncLoopThrows) {
  expect_async_loop_rejects_repeat(/*dynamic=*/true);
}

TEST(RepeatedClient, SyncEngineThrows) {
  testing::TinyFederation fed =
      testing::FederationBuilder().clients(10).build();
  Engine engine(testing::tiny_engine_config(5), testing::tiny_factory(),
                fed.clients, &fed.data.test, fed.latency);
  RepeatingPolicy policy;
  EXPECT_THROW(engine.run(policy), std::logic_error);
  EXPECT_EQ(policy.observed, 0u);
}

}  // namespace
}  // namespace tifl::fl
