#include "rrb/sim/trial.hpp"

#include <gtest/gtest.h>

#include "rrb/graph/generators.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"

namespace rrb {
namespace {

TrialConfig quick_config(int trials = 4) {
  TrialConfig cfg;
  cfg.trials = trials;
  cfg.seed = 99;
  return cfg;
}

GraphFactory regular_factory(NodeId n, NodeId d) {
  return [n, d](Rng& rng) { return random_regular_simple(n, d, rng); };
}

ProtocolFactory push_factory() {
  return [](const Graph&) { return make_protocol<PushProtocol>(); };
}

TEST(Trials, RunsRequestedNumberOfTrials) {
  const TrialOutcome out =
      run_trials(regular_factory(256, 6), push_factory(), quick_config(5));
  EXPECT_EQ(out.runs.size(), 5U);
  EXPECT_EQ(out.rounds.count, 5U);
}

TEST(Trials, PushAlwaysCompletesSoRateIsOne) {
  const TrialOutcome out =
      run_trials(regular_factory(256, 6), push_factory(), quick_config());
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
  EXPECT_EQ(out.completion_round.count, out.runs.size());
}

TEST(Trials, SummariesAreInternallyConsistent) {
  const TrialOutcome out =
      run_trials(regular_factory(512, 8), push_factory(), quick_config());
  EXPECT_LE(out.rounds.min, out.rounds.mean);
  EXPECT_LE(out.rounds.mean, out.rounds.max);
  EXPECT_GT(out.total_tx.mean, 0.0);
  EXPECT_NEAR(out.tx_per_node.mean, out.total_tx.mean / 512.0, 1e-9);
  EXPECT_NEAR(out.push_tx.mean + out.pull_tx.mean, out.total_tx.mean, 1e-9);
}

TEST(Trials, DeterministicAcrossInvocations) {
  const TrialOutcome a =
      run_trials(regular_factory(128, 4), push_factory(), quick_config());
  const TrialOutcome b =
      run_trials(regular_factory(128, 4), push_factory(), quick_config());
  EXPECT_DOUBLE_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_DOUBLE_EQ(a.total_tx.mean, b.total_tx.mean);
}

TEST(Trials, SeedChangesOutcome) {
  TrialConfig c1 = quick_config();
  TrialConfig c2 = quick_config();
  c2.seed = 12345;
  const TrialOutcome a =
      run_trials(regular_factory(128, 4), push_factory(), c1);
  const TrialOutcome b =
      run_trials(regular_factory(128, 4), push_factory(), c2);
  EXPECT_NE(a.total_tx.mean, b.total_tx.mean);
}

TEST(Trials, ChannelConfigIsForwarded) {
  TrialConfig cfg = quick_config();
  cfg.channel.num_choices = 4;
  cfg.limits.max_rounds = 3;  // too few rounds to finish
  const TrialOutcome out =
      run_trials(regular_factory(512, 8), push_factory(), cfg);
  EXPECT_LT(out.completion_rate, 1.0);
  // 4 choices * 512 nodes * 3 rounds of channels.
  for (const RunResult& r : out.runs)
    EXPECT_EQ(r.channels_opened, 4U * 512U * 3U);
}

TEST(Trials, FourChoiceProtocolFactoryWorks) {
  TrialConfig cfg = quick_config(3);
  cfg.channel.num_choices = 4;
  const TrialOutcome out = run_trials(
      regular_factory(1024, 8),
      [](const Graph& g) {
        FourChoiceConfig fc;
        fc.n_estimate = g.num_nodes();
        return make_protocol<FourChoiceBroadcast>(fc);
      },
      cfg);
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
}

TEST(Trials, FixedSourceOptionUsesNodeZero) {
  TrialConfig cfg = quick_config(2);
  cfg.random_source = false;
  const TrialOutcome out =
      run_trials(regular_factory(128, 4), push_factory(), cfg);
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
}

TEST(Trials, RejectsZeroTrials) {
  TrialConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(
      (void)run_trials(regular_factory(64, 4), push_factory(), cfg),
      std::logic_error);
}

TEST(Summaries, SummarizeBasicStatistics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944487, 1e-9);
  EXPECT_EQ(s.count, 4U);
}

TEST(Summaries, OddMedianAndSingleton) {
  EXPECT_DOUBLE_EQ(summarize({3.0, 1.0, 2.0}).median, 2.0);
  const Summary one = summarize({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.median, 7.0);
}

TEST(Summaries, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Trials, RunnerConfigPropagatesWithoutChangingResults) {
  TrialConfig sequential = quick_config(6);
  sequential.runner.threads = 1;
  TrialConfig pooled = quick_config(6);
  pooled.runner.threads = 4;
  const TrialOutcome a =
      run_trials(regular_factory(128, 4), push_factory(), sequential);
  const TrialOutcome b =
      run_trials(regular_factory(128, 4), push_factory(), pooled);
  EXPECT_DOUBLE_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_DOUBLE_EQ(a.total_tx.mean, b.total_tx.mean);
  EXPECT_DOUBLE_EQ(a.tx_per_node.stddev, b.tx_per_node.stddev);
}

}  // namespace
}  // namespace rrb
