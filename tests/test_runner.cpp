/// The deterministic parallel runner: scheduling unit tests, plus the
/// determinism regression suite pinning the seeding contract — the same
/// (seed, trials) produces byte-identical results for every thread count
/// and for chunked vs. unchunked scheduling, across the paper's schemes.

#include "rrb/sim/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/protocols/sequentialised.hpp"
#include "rrb/sim/trace.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

// ---------------------------------------------------------------------------
// ParallelRunner scheduling unit tests.

TEST(Runner, ChunkBoundsPartitionTrials) {
  RunnerConfig cfg;
  cfg.chunk = 4;
  ParallelRunner runner(cfg);
  EXPECT_EQ(runner.num_chunks(9), 3);
  EXPECT_EQ(runner.chunk_bounds(0, 9), (std::pair<int, int>{0, 4}));
  EXPECT_EQ(runner.chunk_bounds(1, 9), (std::pair<int, int>{4, 8}));
  EXPECT_EQ(runner.chunk_bounds(2, 9), (std::pair<int, int>{8, 9}));
  EXPECT_THROW((void)runner.chunk_bounds(3, 9), std::logic_error);
}

TEST(Runner, DefaultChunkIsBoundedByWorkerCount) {
  // The default chunk targets ~4 chunks per worker, independent of the
  // trial count, so a million-trial sweep is not a million scheduling
  // tasks.
  RunnerConfig cfg;
  cfg.threads = 4;
  ParallelRunner runner(cfg);
  EXPECT_EQ(runner.resolved_chunk(1'000'000), 62'500);
  EXPECT_EQ(runner.num_chunks(1'000'000), 16);
  EXPECT_LE(runner.num_chunks(1'000'000), 4 * cfg.threads);
  // Tiny sweeps still get per-trial chunks (full dynamic balancing).
  EXPECT_EQ(runner.resolved_chunk(7), 1);
  EXPECT_EQ(runner.num_chunks(7), 7);
  // An explicit chunk is honoured verbatim, whatever the trial count.
  cfg.chunk = 5;
  ParallelRunner explicit_chunk(cfg);
  EXPECT_EQ(explicit_chunk.resolved_chunk(1'000'000), 5);
  EXPECT_EQ(explicit_chunk.num_chunks(10), 2);
}

TEST(Runner, ExplicitThreadsResolveVerbatim) {
  RunnerConfig cfg;
  cfg.threads = 3;
  EXPECT_EQ(ParallelRunner::resolve_threads(cfg), 3);
  cfg.threads = 0;
  EXPECT_GE(ParallelRunner::resolve_threads(cfg), 1);
}

TEST(Runner, RejectsNegativeConfig) {
  RunnerConfig bad;
  bad.threads = -1;
  EXPECT_THROW(ParallelRunner{bad}, std::logic_error);
  bad.threads = 0;
  bad.chunk = -2;
  EXPECT_THROW(ParallelRunner{bad}, std::logic_error);
}

// ---------------------------------------------------------------------------
// The shared pool (rrb::parallel_for) the runner and bigtopo both run on.

TEST(RunnerPool, OneWorkerRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> ran;
  parallel_for(8, 1, [&](int index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.push_back(index);
  });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RunnerPool, FourWorkersRunEveryIndexExactlyOnce) {
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  parallel_for(kTasks, 4, [&](int index) {
    ASSERT_GE(index, 0);
    ASSERT_LT(index, kTasks);
    ++hits[static_cast<std::size_t>(index)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunnerPool, LowestThrowingIndexIsRethrown) {
  // Indices are claimed in ascending order and a claimed index always
  // runs, so the lowest throwing index wins under every schedule.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      parallel_for(64, 4, [](int index) {
        if (index == 9 || index == 17 || index == 40 || index == 63)
          throw std::runtime_error("task " + std::to_string(index));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 9") << "attempt " << attempt;
    }
  }
}

class RunnerThreadGrid : public ::testing::TestWithParam<int> {};

TEST_P(RunnerThreadGrid, EveryTrialRunsExactlyOnce) {
  RunnerConfig cfg;
  cfg.threads = GetParam();
  cfg.chunk = 3;
  constexpr int kTrials = 50;
  std::vector<std::atomic<int>> hits(kTrials);
  ParallelRunner runner(cfg);
  runner.for_each_trial(kTrials, [&](int trial) {
    ASSERT_GE(trial, 0);
    ASSERT_LT(trial, kTrials);
    ++hits[static_cast<std::size_t>(trial)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(RunnerThreadGrid, ChunksSeeTheirOwnIndexAndBounds) {
  RunnerConfig cfg;
  cfg.threads = GetParam();
  cfg.chunk = 4;
  ParallelRunner runner(cfg);
  std::mutex mu;
  std::set<int> seen;
  runner.for_each_chunk(10, [&](int index, int begin, int end) {
    EXPECT_EQ(begin, index * 4);
    EXPECT_EQ(end, std::min(10, begin + 4));
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(index).second);
  });
  EXPECT_EQ(seen.size(), 3U);
}

TEST_P(RunnerThreadGrid, LowestFailingChunkExceptionWins) {
  RunnerConfig cfg;
  cfg.threads = GetParam();
  ParallelRunner runner(cfg);
  try {
    runner.for_each_trial(16, [](int trial) {
      if (trial >= 4) throw std::runtime_error("trial " +
                                               std::to_string(trial));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Trials 4..15 may all throw concurrently; the runner rethrows the
    // lowest-indexed chunk that ran and threw. With threads=1 the pool
    // runs in order and aborts at the first failure, so the winner is
    // exactly trial 4; in parallel, later chunks may have started before
    // the abort flag was observed, but trials 0..3 never throw, so the
    // reported index must still be >= 4.
    const std::string what = e.what();
    ASSERT_EQ(what.rfind("trial ", 0), 0U) << what;
    const int failed = std::stoi(what.substr(6));
    EXPECT_GE(failed, 4);
    EXPECT_LT(failed, 16);
    if (GetParam() == 1) {
      EXPECT_EQ(failed, 4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RunnerThreadGrid, ::testing::Values(1, 2, 8));

TEST(Runner, SequentialExceptionIsTheFirstTrial) {
  RunnerConfig cfg;
  cfg.threads = 1;
  ParallelRunner runner(cfg);
  EXPECT_THROW(runner.for_each_trial(8,
                                     [](int trial) {
                                       if (trial == 3)
                                         throw std::logic_error("boom");
                                     }),
               std::logic_error);
}

TEST(Runner, ZeroTrialsIsANoop) {
  ParallelRunner runner{RunnerConfig{}};
  int calls = 0;
  runner.for_each_trial(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// Determinism regression suite: the tentpole acceptance criterion.

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

void expect_identical(const Summary& a, const Summary& b) {
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.stddev), bits(b.stddev));
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.max), bits(b.max));
  EXPECT_EQ(bits(a.median), bits(b.median));
  EXPECT_EQ(a.count, b.count);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.alive_at_end, b.alive_at_end);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.all_informed, b.all_informed);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.final_informed, b.final_informed);
  EXPECT_EQ(a.per_round.size(), b.per_round.size());
}

void expect_identical(const TrialOutcome& a, const TrialOutcome& b) {
  expect_identical(a.rounds, b.rounds);
  expect_identical(a.completion_round, b.completion_round);
  expect_identical(a.total_tx, b.total_tx);
  expect_identical(a.tx_per_node, b.tx_per_node);
  expect_identical(a.push_tx, b.push_tx);
  expect_identical(a.pull_tx, b.pull_tx);
  EXPECT_EQ(bits(a.completion_rate), bits(b.completion_rate));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i)
    expect_identical(a.runs[i], b.runs[i]);
}

void expect_identical(const std::vector<SetTracePoint>& a,
                      const std::vector<SetTracePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(bits(a[i].informed), bits(b[i].informed));
    EXPECT_EQ(bits(a[i].newly_informed), bits(b[i].newly_informed));
    EXPECT_EQ(bits(a[i].uninformed), bits(b[i].uninformed));
    EXPECT_EQ(bits(a[i].h1), bits(b[i].h1));
    EXPECT_EQ(bits(a[i].h4), bits(b[i].h4));
    EXPECT_EQ(bits(a[i].h5), bits(b[i].h5));
    EXPECT_EQ(bits(a[i].unused_edge_nodes), bits(b[i].unused_edge_nodes));
  }
}

/// The three schemes the suite exercises, as (channel, protocol factory)
/// pairs matching make_scheme's canonical pairings.
struct SchemeCase {
  const char* name;
  ChannelConfig channel;
  ProtocolFactory factory;
};

std::vector<SchemeCase> scheme_cases() {
  std::vector<SchemeCase> cases;
  {
    SchemeCase push;
    push.name = "push";
    push.factory = [](const Graph&) { return make_protocol<PushProtocol>(); };
    cases.push_back(std::move(push));
  }
  {
    SchemeCase four;
    four.name = "four-choice";
    four.channel.num_choices = 4;
    four.factory = [](const Graph& g) {
      FourChoiceConfig cfg;
      cfg.n_estimate = g.num_nodes();
      return make_protocol<FourChoiceBroadcast>(cfg);
    };
    cases.push_back(std::move(four));
  }
  {
    SchemeCase seq;
    seq.name = "sequentialised";
    seq.channel.num_choices = 1;
    seq.channel.memory = 3;
    seq.factory = [](const Graph& g) {
      FourChoiceConfig cfg;
      cfg.n_estimate = g.num_nodes();
      return make_protocol<SequentialisedFourChoice>(cfg);
    };
    cases.push_back(std::move(seq));
  }
  return cases;
}

GraphFactory regular_factory(NodeId n, NodeId d) {
  return [n, d](Rng& rng) { return random_regular_simple(n, d, rng); };
}

TrialOutcome run_scheme(const SchemeCase& scheme, RunnerConfig runner) {
  TrialConfig cfg;
  cfg.trials = 9;  // not a multiple of any tested chunk/thread count
  cfg.seed = 0xd373c7;
  cfg.channel = scheme.channel;
  cfg.runner = runner;
  return run_trials(regular_factory(192, 6), scheme.factory, cfg);
}

TEST(RunnerDeterminism, RunTrialsIdenticalForThreadCounts) {
  for (const SchemeCase& scheme : scheme_cases()) {
    SCOPED_TRACE(scheme.name);
    RunnerConfig sequential;
    sequential.threads = 1;
    const TrialOutcome baseline = run_scheme(scheme, sequential);
    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      RunnerConfig parallel;
      parallel.threads = threads;
      expect_identical(baseline, run_scheme(scheme, parallel));
    }
  }
}

TEST(RunnerDeterminism, RunTrialsIdenticalForChunkedScheduling) {
  for (const SchemeCase& scheme : scheme_cases()) {
    SCOPED_TRACE(scheme.name);
    RunnerConfig unchunked;
    unchunked.threads = 4;
    unchunked.chunk = 1;
    const TrialOutcome baseline = run_scheme(scheme, unchunked);
    for (const int chunk : {2, 4, 100}) {
      SCOPED_TRACE(chunk);
      RunnerConfig chunked;
      chunked.threads = 4;
      chunked.chunk = chunk;
      expect_identical(baseline, run_scheme(scheme, chunked));
    }
  }
}

TEST(RunnerDeterminism, DefaultChunkMatchesChunkOne) {
  // The bounded default chunk (satellite of the batched-engine PR) must
  // not change any output: chunks are contiguous ascending trial ranges
  // reduced in chunk order, so per-trial samples enter the Summaries in
  // trial order for every chunking. threads = 2 over 9 trials defaults to
  // chunk = 2 — a genuine multi-trial chunk, unlike the old default of 1.
  for (const SchemeCase& scheme : scheme_cases()) {
    SCOPED_TRACE(scheme.name);
    RunnerConfig one;
    one.threads = 2;
    one.chunk = 1;
    const TrialOutcome baseline = run_scheme(scheme, one);
    RunnerConfig defaulted;
    defaulted.threads = 2;
    expect_identical(baseline, run_scheme(scheme, defaulted));
  }
}

std::vector<SetTracePoint> trace_scheme(const SchemeCase& scheme,
                                        RunnerConfig runner) {
  TraceConfig cfg;
  cfg.trials = 5;
  cfg.seed = 0x7ace;
  cfg.channel = scheme.channel;
  cfg.runner = runner;
  cfg.track_edge_usage = true;
  return trace_set_sizes(
      [](Rng& rng) { return random_regular_simple(160, 6, rng); },
      scheme.factory, cfg);
}

TEST(RunnerDeterminism, TraceSetSizesIdenticalForThreadCountsAndChunks) {
  for (const SchemeCase& scheme : scheme_cases()) {
    SCOPED_TRACE(scheme.name);
    RunnerConfig sequential;
    sequential.threads = 1;
    const std::vector<SetTracePoint> baseline =
        trace_scheme(scheme, sequential);
    ASSERT_FALSE(baseline.empty());
    for (const int threads : {2, 8}) {
      SCOPED_TRACE(threads);
      RunnerConfig parallel;
      parallel.threads = threads;
      parallel.chunk = threads == 8 ? 2 : 0;  // also cross chunking in
      expect_identical(baseline, trace_scheme(scheme, parallel));
    }
  }
}

TEST(RunnerDeterminism, RunnerConfigDoesNotLeakIntoSeeding) {
  // A parallel outcome must equal the pre-runner sequential semantics:
  // trial i seeded from (seed, i). Reconstruct trial 3 by hand and compare
  // against the pooled run's slot 3.
  const SchemeCase scheme = scheme_cases()[1];  // four-choice
  RunnerConfig parallel;
  parallel.threads = 8;
  const TrialOutcome pooled = run_scheme(scheme, parallel);

  Rng rng = Rng(0xd373c7).fork(3);
  const Graph graph = random_regular_simple(192, 6, rng);
  auto protocol = scheme.factory(graph);
  GraphTopology topo(graph);
  PhoneCallEngine<GraphTopology> engine(topo, scheme.channel, rng);
  const NodeId source =
      static_cast<NodeId>(rng.uniform_u64(graph.num_nodes()));
  const RunResult by_hand = engine.run(*protocol, source, RunLimits{});
  expect_identical(pooled.runs[3], by_hand);
}

// ---------------------------------------------------------------------------
// broadcast_trials: the façade-level entry point to the runner.

TEST(BroadcastTrials, RunsTrialsAndCompletes) {
  Rng grng(41);
  const Graph g = random_regular_simple(256, 8, grng);
  BroadcastOptions options;
  options.scheme = BroadcastScheme::kPushPull;
  options.trials = 6;
  const TrialOutcome out = broadcast_trials(g, options);
  EXPECT_EQ(out.runs.size(), 6U);
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
}

TEST(BroadcastTrials, IdenticalAcrossThreadCounts) {
  Rng grng(43);
  const Graph g = random_regular_simple(256, 8, grng);
  BroadcastOptions options;
  options.scheme = BroadcastScheme::kFourChoice;
  options.trials = 7;
  options.runner.threads = 1;
  const TrialOutcome sequential = broadcast_trials(g, options);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    options.runner.threads = threads;
    expect_identical(sequential, broadcast_trials(g, options));
  }
}

TEST(BroadcastTrials, FixedSourceIsHonoured) {
  Rng grng(47);
  const Graph g = random_regular_simple(128, 6, grng);
  BroadcastOptions options;
  options.scheme = BroadcastScheme::kPush;
  options.trials = 3;
  const TrialOutcome out = broadcast_trials(g, options, NodeId{5});
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
  EXPECT_THROW((void)broadcast_trials(g, options, NodeId{128}),
               std::logic_error);
}

TEST(BroadcastTrials, RejectsZeroTrials) {
  Rng grng(53);
  const Graph g = random_regular_simple(64, 4, grng);
  BroadcastOptions options;
  options.trials = 0;
  EXPECT_THROW((void)broadcast_trials(g, options), std::logic_error);
}

}  // namespace
}  // namespace rrb
