// Distribution tests: PhoneCallEngine against the naive reference
// simulator (tests/reference/), which is written from the paper's
// definitions and shares no code with the engine beyond the graph and the
// random source. The two make different draws in a different order, so
// they can agree only in distribution: over kTrials fixed seeds each, the
// completion round, the transmission count and the informed count must
// pass a two-sample Kolmogorov–Smirnov test at level kAlpha. The seeds are
// fixed, so every verdict is deterministic.
//
// The test has power: an engine whose callee is drawn from d - 1 of a
// node's d neighbours fails it (see CHANGES.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rrb/graph/generators.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/protocols/sequentialised.hpp"
#include "rrb/reference/simulator.hpp"

namespace rrb {
namespace {

constexpr int kTrials = 1000;
constexpr double kAlpha = 0.001;
constexpr std::uint64_t kEngineSeed = 0xd157;
constexpr std::uint64_t kReferenceSeed = 0x5eed;
/// Far past every completion here; an engine that cannot reach some node
/// stops at it and reads "never completed".
constexpr Round kMaxRounds = 1000;

/// One column per compared quantity, one entry per trial.
struct Samples {
  std::vector<double> completion;  ///< +inf when the run never completed
  std::vector<double> transmissions;
  std::vector<double> informed;

  void add(Round completion_round, Count tx, Count final_informed) {
    completion.push_back(completion_round == kNever
                             ? std::numeric_limits<double>::infinity()
                             : completion_round);
    transmissions.push_back(static_cast<double>(tx));
    informed.push_back(static_cast<double>(final_informed));
  }
};

/// Two-sample KS statistic sup_x |F_a(x) - F_b(x)|, ties stepped together.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

/// Asymptotic two-sample KS critical value at level alpha (conservative
/// for the discrete quantities compared here).
double ks_critical(std::size_t na, std::size_t nb, double alpha) {
  const double c = std::sqrt(-0.5 * std::log(alpha / 2.0));
  return c * std::sqrt(static_cast<double>(na + nb) /
                       static_cast<double>(na * nb));
}

template <ProtocolImpl ProtocolT>
Samples engine_samples(const Graph& g, ProtocolT protocol,
                       const ChannelConfig& channel) {
  GraphTopology topo(g);
  const Rng base(kEngineSeed);
  Samples out;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng = base.fork(static_cast<std::uint64_t>(i));
    PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
    const RunResult r =
        engine.run(protocol, NodeId{0}, RunLimits{.max_rounds = kMaxRounds});
    out.add(r.completion_round, r.total_tx(), r.final_informed);
  }
  return out;
}

Samples reference_samples(const Graph& g, const reference::Model& model) {
  const Rng base(kReferenceSeed);
  Samples out;
  for (int i = 0; i < kTrials; ++i) {
    Rng rng = base.fork(static_cast<std::uint64_t>(i));
    const reference::Outcome r = reference::simulate(g, NodeId{0}, model, rng);
    out.add(r.completion, r.transmissions, r.informed);
  }
  return out;
}

void expect_same_distribution(const Samples& engine, const Samples& ref) {
  const double critical = ks_critical(kTrials, kTrials, kAlpha);
  const auto check = [&](const char* what, const std::vector<double>& a,
                         const std::vector<double>& b) {
    const double d = ks_statistic(a, b);
    EXPECT_LT(d, critical) << what << ": KS D = " << d << ", critical "
                           << critical << " at alpha = " << kAlpha;
  };
  check("completion round", engine.completion, ref.completion);
  check("transmissions", engine.transmissions, ref.transmissions);
  check("informed", engine.informed, ref.informed);
}

Graph regular_graph(NodeId n, NodeId d) {
  Rng rng(derive_seed(0x6a9, n * 64 + d));
  return random_regular_simple(n, d, rng);
}

FourChoiceConfig four_choice_config(NodeId n) {
  FourChoiceConfig cfg;
  cfg.alpha = 1.5;
  cfg.n_estimate = n;
  return cfg;
}

TEST(Distribution, KsStatisticStepsTiesTogether) {
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(ks_statistic({1, 1, 2, 2}, {1, 2, 2, 2}), 0.25);
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2}, {3, 4}), 1.0);
  EXPECT_NEAR(ks_critical(1000, 1000, 0.001), 0.0872, 1e-4);
}

TEST(Distribution, Push) {
  const Graph g = regular_graph(512, 4);
  expect_same_distribution(
      engine_samples(g, PushProtocol{}, ChannelConfig{}),
      reference_samples(g, {.scheme = reference::Scheme::kPush}));
}

TEST(Distribution, Pull) {
  const Graph g = regular_graph(512, 4);
  expect_same_distribution(
      engine_samples(g, PullProtocol{}, ChannelConfig{}),
      reference_samples(g, {.scheme = reference::Scheme::kPull}));
}

TEST(Distribution, PushPull) {
  const Graph g = regular_graph(512, 4);
  expect_same_distribution(
      engine_samples(g, PushPullProtocol{}, ChannelConfig{}),
      reference_samples(g, {.scheme = reference::Scheme::kPushPull}));
}

TEST(Distribution, PushWithChannelFailures) {
  const Graph g = regular_graph(512, 4);
  expect_same_distribution(
      engine_samples(g, PushProtocol{}, ChannelConfig{.failure_prob = 0.05}),
      reference_samples(g, {.scheme = reference::Scheme::kPush,
                            .failure_prob = 0.05}));
}

// Degree 6, so the four calls are a genuine choice among the neighbours.
TEST(Distribution, FourChoiceAlgorithm1) {
  const NodeId n = 512;
  const Graph g = regular_graph(n, 6);
  expect_same_distribution(
      engine_samples(g, FourChoiceBroadcast(four_choice_config(n)),
                     ChannelConfig{.num_choices = 4}),
      reference_samples(g, {.scheme = reference::Scheme::kFourChoice,
                            .alpha = 1.5,
                            .n_estimate = n}));
}

TEST(Distribution, Sequentialised) {
  const NodeId n = 128;
  const Graph g = regular_graph(n, 6);
  expect_same_distribution(
      engine_samples(g, SequentialisedFourChoice(four_choice_config(n)),
                     ChannelConfig{.num_choices = 1, .memory = 3}),
      reference_samples(g, {.scheme = reference::Scheme::kSequentialised,
                            .alpha = 1.5,
                            .n_estimate = n}));
}

}  // namespace
}  // namespace rrb
