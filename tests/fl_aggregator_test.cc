#include "fl/aggregator.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace tifl::fl {
namespace {

std::vector<WeightedUpdate> wrap(const std::vector<std::vector<float>>& ws,
                                 const std::vector<double>& counts) {
  std::vector<WeightedUpdate> out;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    out.push_back(WeightedUpdate{ws[i], counts[i]});
  }
  return out;
}

TEST(FedAvg, EqualWeightsGiveArithmeticMean) {
  const std::vector<std::vector<float>> ws{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const auto result = fedavg(wrap(ws, {1.0, 1.0}));
  EXPECT_FLOAT_EQ(result[0], 2.0f);
  EXPECT_FLOAT_EQ(result[1], 3.0f);
}

TEST(FedAvg, WeightsBySampleCount) {
  // Algorithm 1 line 8: w = sum(w_c * s_c) / sum(s_c).
  const std::vector<std::vector<float>> ws{{0.0f}, {10.0f}};
  const auto result = fedavg(wrap(ws, {9.0, 1.0}));
  EXPECT_FLOAT_EQ(result[0], 1.0f);
}

TEST(FedAvg, SingleClientIsIdentity) {
  const std::vector<std::vector<float>> ws{{1.5f, -2.5f, 3.0f}};
  const auto result = fedavg(wrap(ws, {17.0}));
  EXPECT_EQ(result, ws[0]);
}

TEST(FedAvg, ZeroSampleClientContributesNothing) {
  const std::vector<std::vector<float>> ws{{5.0f}, {100.0f}};
  const auto result = fedavg(wrap(ws, {3.0, 0.0}));
  EXPECT_FLOAT_EQ(result[0], 5.0f);
}

TEST(FedAvg, ErrorsOnBadInput) {
  EXPECT_THROW(fedavg({}), std::invalid_argument);

  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{1.0f};
  std::vector<WeightedUpdate> mismatched{{a, 1.0}, {b, 1.0}};
  EXPECT_THROW(fedavg(mismatched), std::invalid_argument);

  std::vector<WeightedUpdate> no_samples{{a, 0.0}};
  EXPECT_THROW(fedavg(no_samples), std::invalid_argument);
}

TEST(FedAvg, OrderIndependentForDisjointWeights) {
  util::Rng rng(1);
  std::vector<std::vector<float>> ws(6, std::vector<float>(32));
  std::vector<double> counts{10, 20, 30, 40, 50, 60};
  for (auto& w : ws) {
    for (float& v : w) v = static_cast<float>(rng.normal());
  }
  const auto forward = fedavg(wrap(ws, counts));
  std::reverse(ws.begin(), ws.end());
  std::reverse(counts.begin(), counts.end());
  const auto backward = fedavg(wrap(ws, counts));
  for (std::size_t i = 0; i < forward.size(); ++i) {
    // Double-precision accumulation keeps order effects below float eps.
    EXPECT_NEAR(forward[i], backward[i], 1e-6f);
  }
}

}  // namespace
}  // namespace tifl::fl
