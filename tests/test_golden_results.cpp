#include <gtest/gtest.h>

#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/sim/trial.hpp"

/// Golden-results determinism suite. Every value below was captured from
/// the engine BEFORE the devirtualisation refactor (PR 3) and must stay
/// byte-identical forever: downstream experiments cite these numbers, and
/// the seeding contract in ROADMAP.md promises that (seed, parameters)
/// pins an exact output. A mismatch means an engine change reordered RNG
/// draws or altered the round loop's arithmetic — fix the change, never
/// the goldens (recapture only for a deliberate, documented break).
///
/// Recaptured breaks: the median-counter rows, when the source started
/// counting in state B on its first action (before, it never left state B
/// and every run lasted exactly max_age + 1 rounds; CHANGES.md).
///
/// Coverage: broadcast() for all eight BroadcastSchemes with and without
/// channel failures, broadcast_trials() and run_trials() for all eight
/// schemes with worker threads 1 and 4 (the parallel runner must be
/// schedule-invariant), and static-vs-adapter dispatch equivalence.

namespace rrb {
namespace {

Graph golden_graph() {
  Rng grng(0xfeed);
  return random_regular_simple(512, 8, grng);
}

struct SingleGolden {
  BroadcastScheme scheme;
  double failure_prob;
  Round rounds;
  Round completion_round;
  Count push_tx;
  Count pull_tx;
  Count channels_opened;
  Count channels_failed;
  Count final_informed;
};

constexpr SingleGolden kSingles[] = {
    {BroadcastScheme::kPush, 0.0, 18, 18, 3569ULL, 0ULL, 9216ULL, 0ULL, 512ULL},
    {BroadcastScheme::kPush, 0.1, 20, 20, 3989ULL, 0ULL, 10240ULL, 987ULL, 512ULL},
    {BroadcastScheme::kPull, 0.0, 14, 14, 0ULL, 2303ULL, 7168ULL, 0ULL, 512ULL},
    {BroadcastScheme::kPull, 0.1, 16, 16, 0ULL, 2346ULL, 8192ULL, 796ULL, 512ULL},
    {BroadcastScheme::kPushPull, 0.0, 9, 9, 1354ULL, 1355ULL, 4608ULL, 0ULL, 512ULL},
    {BroadcastScheme::kPushPull, 0.1, 11, 11, 1852ULL, 1883ULL, 5632ULL, 566ULL, 512ULL},
    {BroadcastScheme::kFixedHorizonPush, 0.0, 34, 18, 11761ULL, 0ULL, 17408ULL, 0ULL, 512ULL},
    {BroadcastScheme::kFixedHorizonPush, 0.1, 34, 20, 10476ULL, 0ULL, 17408ULL, 1668ULL, 512ULL},
    {BroadcastScheme::kMedianCounter, 0.0, 20, 9, 5678ULL, 5658ULL, 10240ULL, 0ULL, 512ULL},
    {BroadcastScheme::kMedianCounter, 0.1, 22, 11, 5339ULL, 5374ULL, 11264ULL, 1077ULL, 512ULL},
    {BroadcastScheme::kThrottledPushPull, 0.0, 23, 9, 6656ULL, 6641ULL, 11776ULL, 0ULL, 512ULL},
    {BroadcastScheme::kThrottledPushPull, 0.1, 25, 11, 6034ULL, 6072ULL, 12800ULL, 1217ULL, 512ULL},
    {BroadcastScheme::kFourChoice, 0.0, 33, 15, 12264ULL, 2048ULL, 67584ULL, 0ULL, 512ULL},
    {BroadcastScheme::kFourChoice, 0.1, 33, 15, 10979ULL, 1828ULL, 67584ULL, 6789ULL, 512ULL},
    {BroadcastScheme::kSequentialised, 0.0, 132, 57, 12283ULL, 2048ULL, 67584ULL, 0ULL, 512ULL},
    {BroadcastScheme::kSequentialised, 0.1, 132, 59, 10968ULL, 1855ULL, 67584ULL, 6771ULL, 512ULL},
};

TEST(GoldenResults, BroadcastSinglesAreBitIdentical) {
  const Graph g = golden_graph();
  for (const SingleGolden& golden : kSingles) {
    BroadcastOptions opt;
    opt.scheme = golden.scheme;
    opt.seed = 0x5eed01;
    opt.failure_prob = golden.failure_prob;
    const RunResult r = broadcast(g, 7, opt);
    SCOPED_TRACE(std::string(scheme_name(golden.scheme)) + " fp=" +
                 std::to_string(golden.failure_prob));
    EXPECT_EQ(r.rounds, golden.rounds);
    EXPECT_EQ(r.completion_round, golden.completion_round);
    EXPECT_EQ(r.push_tx, golden.push_tx);
    EXPECT_EQ(r.pull_tx, golden.pull_tx);
    EXPECT_EQ(r.channels_opened, golden.channels_opened);
    EXPECT_EQ(r.channels_failed, golden.channels_failed);
    EXPECT_EQ(r.final_informed, golden.final_informed);
  }
}

struct TrialsGolden {
  BroadcastScheme scheme;
  double rounds_mean;
  double total_tx_mean;
  double tx_per_node_mean;
  double completion_rate;
  Count run0_push;
  Count run3_pull;
};

constexpr TrialsGolden kBroadcastTrials[] = {
    {BroadcastScheme::kPush, 18.5, 4133.5, 8.0732421875, 1, 4503ULL, 0ULL},
    {BroadcastScheme::kPull, 14.25, 2432.75, 4.75146484375, 1, 0ULL, 2606ULL},
    {BroadcastScheme::kPushPull, 9.25, 3070.25, 5.99658203125, 1, 1486ULL, 1698ULL},
    {BroadcastScheme::kFixedHorizonPush, 34, 12069.5, 23.5732421875, 1, 12183ULL, 0ULL},
    {BroadcastScheme::kMedianCounter, 20.25, 11415, 22.294921875, 1, 5680ULL, 5681ULL},
    {BroadcastScheme::kThrottledPushPull, 23.25, 13334.5, 26.0439453125, 1, 6656ULL, 6688ULL},
    {BroadcastScheme::kFourChoice, 33, 14318, 27.96484375, 1, 12272ULL, 2048ULL},
    {BroadcastScheme::kSequentialised, 132, 14324, 27.9765625, 1, 12270ULL, 2048ULL},
};

TEST(GoldenResults, BroadcastTrialsAreBitIdenticalForThreads1And4) {
  const Graph g = golden_graph();
  for (const TrialsGolden& golden : kBroadcastTrials) {
    for (const int threads : {1, 4}) {
      BroadcastOptions opt;
      opt.scheme = golden.scheme;
      opt.seed = 0x5eed02;
      opt.trials = 4;
      opt.runner.threads = threads;
      const TrialOutcome out = broadcast_trials(g, opt);
      SCOPED_TRACE(std::string(scheme_name(golden.scheme)) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(out.rounds.mean, golden.rounds_mean);
      EXPECT_EQ(out.total_tx.mean, golden.total_tx_mean);
      EXPECT_EQ(out.tx_per_node.mean, golden.tx_per_node_mean);
      EXPECT_EQ(out.completion_rate, golden.completion_rate);
      ASSERT_EQ(out.runs.size(), 4U);
      EXPECT_EQ(out.runs[0].push_tx, golden.run0_push);
      EXPECT_EQ(out.runs[3].pull_tx, golden.run3_pull);
    }
  }
}

struct RunTrialsGolden {
  BroadcastScheme scheme;
  double rounds_mean;
  double total_tx_mean;
  double completion_rate;
  Round run2_rounds;
};

constexpr RunTrialsGolden kRunTrials[] = {
    {BroadcastScheme::kPush, 15.333333333333334, 1641.3333333333333, 1, 15},
    {BroadcastScheme::kPull, 13, 898, 1, 13},
    {BroadcastScheme::kPushPull, 8.6666666666666661, 1473, 1, 9},
    {BroadcastScheme::kFixedHorizonPush, 31, 5652, 1, 31},
    {BroadcastScheme::kMedianCounter, 17.666666666666668, 4560.333333333333, 1, 18},
    {BroadcastScheme::kThrottledPushPull, 21.666666666666668, 6136, 1, 22},
    {BroadcastScheme::kFourChoice, 29, 7154.666666666667, 1, 29},
    {BroadcastScheme::kSequentialised, 116, 7159.333333333333, 1, 116},
};

TEST(GoldenResults, RunTrialsViaSchemeFactoriesAreBitIdentical) {
  // run_trials() is the type-erased path (ProtocolFactory hands the engine
  // a BroadcastProtocol&): its goldens prove the virtual adapter produces
  // the very same draws as the statically-dispatched facade paths.
  for (const RunTrialsGolden& golden : kRunTrials) {
    BroadcastOptions opt;
    opt.scheme = golden.scheme;
    opt.n_estimate = 256;
    for (const int threads : {1, 4}) {
      TrialConfig config;
      config.trials = 3;
      config.seed = 0x5eed03;
      config.runner.threads = threads;
      {
        Rng probe(1);
        const Graph g0 = random_regular_simple(256, 8, probe);
        config.channel = make_scheme(g0, opt).channel;
      }
      const GraphFactory gf = [](Rng& rng) {
        return random_regular_simple(256, 8, rng);
      };
      const ProtocolFactory pf = [opt](const Graph& g) {
        return make_scheme(g, opt).protocol;
      };
      const TrialOutcome out = run_trials(gf, pf, config);
      SCOPED_TRACE(std::string(scheme_name(golden.scheme)) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(out.rounds.mean, golden.rounds_mean);
      EXPECT_EQ(out.total_tx.mean, golden.total_tx_mean);
      EXPECT_EQ(out.completion_rate, golden.completion_rate);
      ASSERT_EQ(out.runs.size(), 3U);
      EXPECT_EQ(out.runs[2].rounds, golden.run2_rounds);
    }
  }
}

TEST(GoldenResults, StaticAndAdapterDispatchAreInterchangeable) {
  // Composing the engine by hand with make_scheme's virtual adapter must
  // reproduce broadcast()'s statically-dispatched result exactly — the
  // devirtualisation is a pure dispatch change, not a behavioural one.
  const Graph g = golden_graph();
  for (const SingleGolden& golden : kSingles) {
    BroadcastOptions opt;
    opt.scheme = golden.scheme;
    opt.seed = 0x5eed01;
    opt.failure_prob = golden.failure_prob;

    SchemeParts parts = make_scheme(g, opt);
    Rng rng(opt.seed);
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, parts.channel, rng);
    RunLimits limits;
    limits.max_rounds = opt.max_rounds;
    const RunResult r = engine.run(*parts.protocol, NodeId{7}, limits);

    SCOPED_TRACE(scheme_name(golden.scheme));
    EXPECT_EQ(r.rounds, golden.rounds);
    EXPECT_EQ(r.push_tx, golden.push_tx);
    EXPECT_EQ(r.pull_tx, golden.pull_tx);
    EXPECT_EQ(r.channels_failed, golden.channels_failed);
  }
}

TEST(GoldenResults, QuasirandomAndMemoryReachTheFacade) {
  // The Doerr–Friedrich–Sauerwald variant is reachable without composing
  // the engine by hand, and the memory override follows the same path.
  const Graph g = golden_graph();

  BroadcastOptions quasi;
  quasi.scheme = BroadcastScheme::kPush;
  quasi.seed = 0x5eed01;
  quasi.quasirandom = true;
  const RunResult r = broadcast(g, 7, quasi);
  EXPECT_EQ(r.final_informed, 512U);
  // Same seed, different channel rule: the draw sequence must diverge from
  // the sampled-channel golden.
  EXPECT_NE(r.push_tx, kSingles[0].push_tx);

  BroadcastOptions remember;
  remember.scheme = BroadcastScheme::kPush;
  remember.seed = 0x5eed01;
  remember.memory = 2;
  EXPECT_EQ(broadcast(g, 7, remember).final_informed, 512U);

  // Sequentialised keeps its canonical memory = 3 unless overridden, and
  // the engine rejects quasirandom combined with a memory window.
  BroadcastOptions conflicting;
  conflicting.scheme = BroadcastScheme::kSequentialised;
  conflicting.quasirandom = true;
  EXPECT_THROW((void)broadcast(g, 7, conflicting), std::logic_error);
  conflicting.memory = 0;  // explicit override lifts the conflict
  EXPECT_EQ(broadcast(g, 7, conflicting).final_informed, 512U);
}

}  // namespace
}  // namespace rrb
