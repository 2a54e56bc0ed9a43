/// Batched-vs-sequential bit-identity suite: the acceptance criterion of
/// the trial-batched engine. RunnerConfig::batch is pure scheduling —
/// every lane keeps its own Rng(seed).fork(i) stream and the lockstep loop
/// replays the sequential engine's per-lane draw order exactly — so for
/// all eight schemes, B in {1, 4, 32} and worker threads 1/4, the batched
/// drivers must reproduce the sequential outputs (and observer streams) to
/// the bit. The sequential outputs themselves are frozen by
/// tests/test_golden_results.cpp, so equality here chains the batched path
/// to the recorded goldens. Per-trial graph sweeps, which always run
/// one-lane groups on the batched engine, are chained to a hand-written
/// PhoneCallEngine loop instead.

#include "rrb/phonecall/batched_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

void expect_round_eq(const RoundStats& a, const RoundStats& b) {
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.transmitting_nodes, b.transmitting_nodes);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.newly_informed, b.newly_informed);
  EXPECT_EQ(a.informed, b.informed);
}

void expect_run_eq(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.final_informed, b.final_informed);
  EXPECT_EQ(a.alive_at_end, b.alive_at_end);
  EXPECT_EQ(a.all_informed, b.all_informed);
  ASSERT_EQ(a.per_round.size(), b.per_round.size());
  for (std::size_t i = 0; i < a.per_round.size(); ++i)
    expect_round_eq(a.per_round[i], b.per_round[i]);
}

void expect_summary_eq(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.count, b.count);
}

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    expect_run_eq(a.runs[i], b.runs[i]);
  }
  expect_summary_eq(a.rounds, b.rounds);
  expect_summary_eq(a.completion_round, b.completion_round);
  expect_summary_eq(a.total_tx, b.total_tx);
  expect_summary_eq(a.tx_per_node, b.tx_per_node);
  expect_summary_eq(a.push_tx, b.push_tx);
  expect_summary_eq(a.pull_tx, b.pull_tx);
  expect_summary_eq(a.coverage, b.coverage);
  EXPECT_EQ(a.completion_rate, b.completion_rate);
}

Graph test_graph() {
  Rng grng(0xba7c4);
  return random_regular_simple(256, 8, grng);
}

// ---- All schemes x B in {1, 4, 32} x threads {1, 4} ------------------------

TEST(BatchedBitIdentity, AllSchemesAllBatchesAllThreads) {
  const Graph g = test_graph();
  for (const BroadcastScheme scheme : kAllSchemes) {
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0xba7c401;
    opt.trials = 37;  // not a multiple of 4 or 32: exercises partial groups
    opt.runner.threads = 1;
    opt.runner.batch = 0;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    for (const int batch : {1, 4, 32}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(scheme_name(scheme)) + " B=" +
                     std::to_string(batch) + " threads=" +
                     std::to_string(threads));
        BroadcastOptions batched = opt;
        batched.runner.batch = batch;
        batched.runner.threads = threads;
        expect_outcome_eq(broadcast_trials(g, batched), sequential);
      }
    }
  }
}

TEST(BatchedBitIdentity, GoldenFacadeConfigUnchanged) {
  // The exact broadcast_trials configuration of the golden suite
  // (tests/test_golden_results.cpp): batching it must land on the same
  // recorded numbers.
  Rng grng(0xfeed);
  const Graph g = random_regular_simple(512, 8, grng);
  for (const BroadcastScheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0x5eed02;
    opt.trials = 4;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    opt.runner.batch = 32;  // one group larger than the trial count
    expect_outcome_eq(broadcast_trials(g, opt), sequential);
  }
}

// ---- Channel-model variants the scheme sweep does not cover ----------------

TEST(BatchedBitIdentity, FailureQuasirandomAndMemoryVariants) {
  const Graph g = test_graph();
  struct Variant {
    const char* name;
    BroadcastScheme scheme;
    double failure_prob;
    bool quasirandom;
  };
  const Variant variants[] = {
      // Per-channel failure bernoullis interleave with the partner draws.
      {"pushpull+failures", BroadcastScheme::kPushPull, 0.15, false},
      // Quasirandom cursors draw exactly once, on first use per node.
      {"push+quasirandom", BroadcastScheme::kPush, 0.0, true},
      // Memory rings feed the rejection-sampling loop; failed channels
      // still enter the ring (see engine.hpp), so failures cross-couple
      // with the memory draws.
      {"sequentialised+failures", BroadcastScheme::kSequentialised, 0.1,
       false},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    BroadcastOptions opt;
    opt.scheme = variant.scheme;
    opt.seed = 0xba7c402;
    opt.trials = 11;
    opt.failure_prob = variant.failure_prob;
    opt.quasirandom = variant.quasirandom;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    for (const int batch : {4, 32}) {
      SCOPED_TRACE(batch);
      BroadcastOptions batched = opt;
      batched.runner.batch = batch;
      batched.runner.threads = 4;
      expect_outcome_eq(broadcast_trials(g, batched), sequential);
    }
  }
}

TEST(BatchedBitIdentity, FixedSourceRecordRoundsAndTruncation) {
  const Graph g = test_graph();
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kFourChoice;
  opt.seed = 0xba7c403;
  opt.trials = 9;
  opt.record_rounds = true;  // per-round stats compared bit-for-bit
  opt.max_rounds = 3;        // every lane truncates at the horizon
  const TrialOutcome sequential = broadcast_trials(g, opt, NodeId{5});
  for (const RunResult& run : sequential.runs) {
    EXPECT_EQ(run.rounds, 3);
    EXPECT_FALSE(run.all_informed);
  }
  BroadcastOptions batched = opt;
  batched.runner.batch = 4;
  expect_outcome_eq(broadcast_trials(g, batched, NodeId{5}), sequential);
}

// ---- Observer streams ------------------------------------------------------

using FreeStack =
    ObserverSet<RunSummaryObserver, SetSizeObserver, TxHistogramObserver,
                InformedLatencyObserver>;

TEST(BatchedObservers, ObserverStreamsMatchSequential) {
  const Graph g = test_graph();
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kPushPull;
  opt.seed = 0xba7c404;
  opt.trials = 13;
  opt.runner.threads = 1;
  const ObservedOutcome<FreeStack> sequential =
      broadcast_trials(g, opt, [](const Graph&) { return FreeStack{}; });
  for (const int batch : {1, 5}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("B=" + std::to_string(batch) + " threads=" +
                   std::to_string(threads));
      BroadcastOptions batched = opt;
      batched.runner.batch = batch;
      batched.runner.threads = threads;
      const ObservedOutcome<FreeStack> observed = broadcast_trials(
          g, batched, [](const Graph&) { return FreeStack{}; });
      expect_outcome_eq(observed.outcome, sequential.outcome);
      ASSERT_EQ(observed.observers.size(), sequential.observers.size());
      for (std::size_t i = 0; i < observed.observers.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        const FreeStack& got = observed.observers[i];
        const FreeStack& want = sequential.observers[i];
        // Hook-derived whole-run summary (on_run_begin/round_end/run_end).
        expect_run_eq(got.get<RunSummaryObserver>().result(),
                      want.get<RunSummaryObserver>().result());
        // Per-round informed_at scans.
        const auto& got_points = got.get<SetSizeObserver>().points();
        const auto& want_points = want.get<SetSizeObserver>().points();
        ASSERT_EQ(got_points.size(), want_points.size());
        for (std::size_t p = 0; p < got_points.size(); ++p) {
          EXPECT_EQ(got_points[p].t, want_points[p].t);
          EXPECT_EQ(got_points[p].informed, want_points[p].informed);
          EXPECT_EQ(got_points[p].newly_informed,
                    want_points[p].newly_informed);
          EXPECT_EQ(got_points[p].uninformed, want_points[p].uninformed);
        }
        // Per-transmission stream (on_transmission, per-node counters).
        EXPECT_EQ(got.get<TxHistogramObserver>().sends(),
                  want.get<TxHistogramObserver>().sends());
        // on_run_end latency digest.
        EXPECT_EQ(got.get<InformedLatencyObserver>().latencies(),
                  want.get<InformedLatencyObserver>().latencies());
      }
    }
  }
}

// ---- The fixed-graph run_trials overload -----------------------------------

TEST(BatchedRunTrials, FixedGraphOverloadMatchesSequential) {
  const Graph g = test_graph();
  const ProtocolFactory pf = [](const Graph& graph) {
    FourChoiceConfig cfg;
    cfg.n_estimate = graph.num_nodes();
    return make_protocol<FourChoiceBroadcast>(cfg);
  };
  for (const bool random_source : {true, false}) {
    SCOPED_TRACE(random_source ? "random-source" : "source-0");
    TrialConfig cfg;
    cfg.trials = 37;
    cfg.seed = 0xba7c405;
    cfg.channel.num_choices = 4;
    cfg.random_source = random_source;
    cfg.runner.threads = 1;
    const TrialOutcome sequential = run_trials(g, pf, cfg);
    for (const int batch : {1, 4, 32}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("B=" + std::to_string(batch) + " threads=" +
                     std::to_string(threads));
        TrialConfig batched = cfg;
        batched.runner.batch = batch;
        batched.runner.threads = threads;
        expect_outcome_eq(run_trials(g, pf, batched), sequential);
      }
    }
  }
}

TEST(BatchedRunTrials, TrialStreamsStayKeyedOnSeedAndIndex) {
  // Reconstruct trial 3 by hand from the seeding contract — fork(3), source
  // draw, then the engine — and compare against slot 3 of a batched sweep.
  // Batching (and its group scheduling) must be invisible to the stream.
  const Graph g = test_graph();
  const ProtocolFactory pf = [](const Graph&) {
    return make_protocol<PushProtocol>();
  };
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.seed = 0xba7c406;
  cfg.runner.batch = 4;  // trial 3 is the last lane of group 0
  cfg.runner.threads = 4;
  const TrialOutcome batched = run_trials(g, pf, cfg);

  Rng rng = Rng(cfg.seed).fork(3);
  auto protocol = pf(g);
  GraphTopology topo(g);
  PhoneCallEngine<GraphTopology> engine(topo, cfg.channel, rng);
  const NodeId source = static_cast<NodeId>(rng.uniform_u64(g.num_nodes()));
  const RunResult by_hand = engine.run(*protocol, source, RunLimits{});
  expect_run_eq(batched.runs[3], by_hand);
}

// ---- Per-trial graph sources -----------------------------------------------

TEST(BatchedBitIdentity, PerTrialGraphSweepsMatchAHandWrittenEngineLoop) {
  // A GraphFactory sweep runs every trial as a one-lane BatchedPhoneCallEngine
  // group: the classical schemes on the classic kernel, the rest lane by
  // lane on PhoneCallEngine. Either way trial i must equal PhoneCallEngine
  // driven by hand on Rng(seed).fork(i): graph, source, then the rounds.
  // gnp adds isolated nodes and per-trial degrees; max_rounds stops push
  // and pull runs that cannot reach them.
  const NodeId n = 256;
  const std::pair<const char*, GraphFactory> factories[] = {
      {"regular", [n](Rng& rng) { return random_regular_simple(n, 8, rng); }},
      {"gnp", [n](Rng& rng) { return gnp(n, 6.0 / (n - 1), rng); }},
  };
  for (const auto& [family, factory] : factories) {
    for (const BroadcastScheme scheme : kAllSchemes) {
      BroadcastOptions opt;
      opt.scheme = scheme;
      opt.seed = 0xba7c40b;
      opt.trials = 9;
      opt.max_rounds = 200;
      opt.record_rounds = true;

      std::vector<RunResult> by_hand;
      for (int i = 0; i < opt.trials; ++i) {
        Rng rng = Rng(opt.seed).fork(static_cast<std::uint64_t>(i));
        const Graph g = factory(rng);
        const auto source = static_cast<NodeId>(rng.uniform_u64(n));
        by_hand.push_back(with_scheme(
            g, opt, [&](auto proto, const ChannelConfig& channel) {
              GraphTopology topo(g);
              PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
              RunLimits limits;
              limits.max_rounds = opt.max_rounds;
              limits.record_rounds = true;
              return engine.run(proto, source, limits);
            }));
      }
      const TrialOutcome expected = detail::reduce_runs(std::move(by_hand));

      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(family) + " " + scheme_name(scheme) +
                     " threads=" + std::to_string(threads));
        opt.runner.threads = threads;
        expect_outcome_eq(broadcast_trials(factory, opt), expected);
      }
    }
  }
}

// ---- Driving the engine directly -------------------------------------------

TEST(BatchedEngine, SingleLaneMatchesSequentialEngine) {
  const Graph g = test_graph();
  const ChannelConfig channel;
  RunLimits limits;
  limits.record_rounds = true;

  Rng seq_rng = Rng(0xba7c407).fork(0);
  PushProtocol seq_proto;
  GraphTopology topo(g);
  PhoneCallEngine<GraphTopology> engine(topo, channel, seq_rng);
  const RunResult sequential = engine.run(seq_proto, NodeId{7}, limits);

  std::vector<Rng> rngs{Rng(0xba7c407).fork(0)};
  PushProtocol lane_proto;
  PushProtocol* protos[] = {&lane_proto};
  const NodeId sources[] = {NodeId{7}};
  BatchedPhoneCallEngine<GraphTopology> batched(topo, channel);
  const std::vector<RunResult> results =
      batched.run(std::span<PushProtocol* const>(protos),
                  std::span<const NodeId>(sources), std::span<Rng>(rngs),
                  limits);
  ASSERT_EQ(results.size(), 1U);
  expect_run_eq(results[0], sequential);
}

TEST(BatchedEngine, StateDependentHookFreeProtocolMatchesSequential) {
  // A hook-free protocol whose action reads the node's local state. It does
  // NOT declare kActionIgnoresState, so the ladder refuses the classic
  // kernel ("state-dependent action") and the lanes take the sequential
  // fallback — this pins that route for hook-free protocols other than the
  // four baselines, four-choice's route included.
  struct TiredPush {
    Action action(NodeId /*v*/, const NodeLocalState& state, Round t) {
      // Push for the three rounds after becoming informed, then go quiet.
      return t - state.informed_at <= 3 ? Action::kPush : Action::kNone;
    }
    bool finished(Round /*t*/, Count informed, Count alive) const {
      return informed >= alive;
    }
    const char* name() const { return "tired-push"; }
  };

  const Graph g = test_graph();
  const ChannelConfig channel;
  GraphTopology topo(g);
  RunLimits limits;
  limits.max_rounds = 64;  // the protocol can stall short of completion
  limits.record_rounds = true;

  constexpr std::size_t kLanes = 5;
  std::vector<TiredPush> lane_protos(kLanes);
  std::vector<TiredPush*> protos;
  std::vector<NodeId> sources;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    protos.push_back(&lane_protos[i]);
    sources.push_back(static_cast<NodeId>(3 * i));
    rngs.push_back(Rng(0xba7c409).fork(i));
  }
  BatchedPhoneCallEngine<GraphTopology> batched(topo, channel);
  const std::vector<RunResult> results =
      batched.run(std::span<TiredPush* const>(protos),
                  std::span<const NodeId>(sources), std::span<Rng>(rngs),
                  limits);

  ASSERT_EQ(results.size(), kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    Rng rng = Rng(0xba7c409).fork(i);
    TiredPush proto;
    PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
    expect_run_eq(results[i],
                  engine.run(proto, static_cast<NodeId>(3 * i), limits));
  }
}

// ---- The kernel ladder -----------------------------------------------------

void expect_choice(const BatchedKernelChoice& got, BatchedKernel kernel,
                   const std::string& reason) {
  EXPECT_EQ(batched_kernel_name(got.kernel), batched_kernel_name(kernel));
  EXPECT_EQ(std::string(got.reason), reason);
}

TEST(BatchedKernelLadder, PinsEachSchemesKernelAtFourLanes) {
  const Graph g = test_graph();
  const GraphTopology topo(g);
  struct Case {
    BroadcastScheme scheme;
    bool quasirandom;
    BatchedKernel kernel;
    const char* reason;
  };
  const Case cases[] = {
      {BroadcastScheme::kPush, false, BatchedKernel::kClassic, ""},
      {BroadcastScheme::kPull, false, BatchedKernel::kClassic, ""},
      {BroadcastScheme::kPushPull, false, BatchedKernel::kClassic, ""},
      {BroadcastScheme::kFixedHorizonPush, false, BatchedKernel::kClassic,
       ""},
      {BroadcastScheme::kFourChoice, false, BatchedKernel::kSequential,
       "state-dependent action"},
      {BroadcastScheme::kMedianCounter, false, BatchedKernel::kSequential,
       "protocol hooks"},
      {BroadcastScheme::kThrottledPushPull, false,
       BatchedKernel::kSequential, "protocol hooks"},
      {BroadcastScheme::kSequentialised, false, BatchedKernel::kSequential,
       "memory > 0"},
      {BroadcastScheme::kPush, true, BatchedKernel::kSequential,
       "quasirandom"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(scheme_name(c.scheme)) +
                 (c.quasirandom ? "/quasirandom" : ""));
    BroadcastOptions opt;
    opt.scheme = c.scheme;
    opt.quasirandom = c.quasirandom;
    expect_choice(
        with_scheme(g, opt,
                    [&](auto proto, const ChannelConfig& channel) {
                      return batched_kernel_for<decltype(proto),
                                                detail::NoMetrics>(
                          channel, 4, topo);
                    }),
        c.kernel, c.reason);
  }
  // Type-erased protocols (run_trials with a ProtocolFactory) expose every
  // hook virtually, so they always take the fallback.
  expect_choice(batched_kernel_for<BroadcastProtocol, detail::NoMetrics>(
                    ChannelConfig{}, 4, topo),
                BatchedKernel::kSequential, "protocol hooks");
  // The remaining refusals: hooked observers and a group wider than a mask.
  expect_choice(batched_kernel_for<PushProtocol, FreeStack>(ChannelConfig{},
                                                            4, topo),
                BatchedKernel::kSequential, "observer hooks");
  expect_choice(batched_kernel_for<PushProtocol, detail::NoMetrics>(
                    ChannelConfig{}, 65, topo),
                BatchedKernel::kSequential, "lanes > 64");
  // Channels the classic kernel does not model: i.i.d. channel failures
  // and more than one call per node per round.
  ChannelConfig failing;
  failing.failure_prob = 0.05;
  expect_choice(
      batched_kernel_for<PushProtocol, detail::NoMetrics>(failing, 4, topo),
      BatchedKernel::kSequential, "failure_prob > 0");
  ChannelConfig two_choices;
  two_choices.num_choices = 2;
  expect_choice(batched_kernel_for<PushProtocol, detail::NoMetrics>(
                    two_choices, 4, topo),
                BatchedKernel::kSequential, "choices > 1");
}

/// A graph with slot 0 permanently dead — the one refusal no scheme or
/// channel option can produce on a Graph.
class DeadSlotZero {
 public:
  explicit DeadSlotZero(const Graph& g) : topo_(g) {}
  [[nodiscard]] NodeId num_slots() const { return topo_.num_slots(); }
  [[nodiscard]] Count num_alive() const { return topo_.num_alive() - 1; }
  [[nodiscard]] bool is_alive(NodeId v) const { return v != 0; }
  [[nodiscard]] NodeId degree(NodeId v) const { return topo_.degree(v); }
  [[nodiscard]] NodeId neighbor(NodeId v, NodeId i) const {
    return topo_.neighbor(v, i);
  }

 private:
  GraphTopology topo_;
};

TEST(BatchedKernelLadder, DeadNodesRunLaneByLaneBitIdentically) {
  const Graph g = test_graph();
  const DeadSlotZero topo(g);
  const ChannelConfig channel;
  expect_choice(
      batched_kernel_for<PushPullProtocol, detail::NoMetrics>(channel, 3, topo),
      BatchedKernel::kSequential, "dead nodes");

  RunLimits limits;
  limits.record_rounds = true;
  std::vector<PushPullProtocol> lane_protos(3);
  std::vector<PushPullProtocol*> protos;
  std::vector<NodeId> sources;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < lane_protos.size(); ++i) {
    protos.push_back(&lane_protos[i]);
    sources.push_back(static_cast<NodeId>(1 + 5 * i));
    rngs.push_back(Rng(0xba7c40a).fork(i));
  }
  BatchedPhoneCallEngine<DeadSlotZero> batched(topo, channel);
  const std::vector<RunResult> results =
      batched.run(std::span<PushPullProtocol* const>(protos),
                  std::span<const NodeId>(sources), std::span<Rng>(rngs),
                  limits);
  ASSERT_EQ(results.size(), lane_protos.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    Rng rng = Rng(0xba7c40a).fork(i);
    PushPullProtocol proto;
    const DeadSlotZero seq_topo(g);
    PhoneCallEngine<const DeadSlotZero> engine(seq_topo, channel, rng);
    const RunResult sequential = engine.run(proto, sources[i], limits);
    EXPECT_EQ(sequential.alive_at_end, g.num_nodes() - 1);
    expect_run_eq(results[i], sequential);
  }
}

// ---- The classic kernel's blocked sweep across several node blocks --------

/// The classic kernel sweeps nodes in blocks of 2^13, so the n <= 512
/// graphs above never leave its first block. This graph spans three full
/// blocks and a ragged tail, n is not a multiple of 64, and with `isolated`
/// a few nodes (block edges, the last word, the last node) lose every edge
/// and so draw nothing.
Graph multi_block_graph(bool isolated) {
  constexpr NodeId kN = 3 * 8192 + 777;  // 25353 = 396 * 64 + 9
  Rng grng(0xb10c5);
  const Graph g = random_regular_simple(kN, 4, grng);
  if (!isolated) return g;
  const NodeId cut[] = {0, 8191, 8192, 16384, kN - 9, kN - 1};
  const auto is_cut = [&](NodeId v) {
    return std::find(std::begin(cut), std::end(cut), v) != std::end(cut);
  };
  std::vector<Edge> edges;
  for (NodeId v = 0; v < kN; ++v)
    for (const NodeId w : g.neighbors(v))
      if (v < w && !is_cut(v) && !is_cut(w)) edges.push_back({v, w});
  return Graph::from_edges(kN, edges);
}

/// Fixed-horizon push that keeps running after its horizon: its lanes turn
/// draw-only (action kNone, every draw still made) until max_rounds.
class PastHorizonPush : public FixedHorizonPush {
 public:
  using FixedHorizonPush::FixedHorizonPush;
  [[nodiscard]] bool finished(Round /*t*/, Count /*informed*/,
                              Count /*alive*/) const {
    return false;
  }
};

/// Runs lane protocols lane_protos[0..B) batched on the classic kernel for
/// each B in `batches` (sources spread over every block, lane i on
/// Rng(seed).fork(i)) and compares every lane's RunResult and next draw
/// with a PhoneCallEngine run of the same trial. Returns the sequential
/// results of lanes 0..max(batches).
template <typename ProtocolT>
std::vector<RunResult> expect_classic_lanes_match(
    const Graph& g, std::initializer_list<std::size_t> batches,
    const RunLimits& limits, const std::vector<ProtocolT>& lane_protos) {
  const GraphTopology topo(g);
  const ChannelConfig channel;
  constexpr std::uint64_t kSeed = 0xb10c50;
  const auto source_of = [&](std::size_t i) {
    return static_cast<NodeId>((1 + 7919 * i) % g.num_nodes());
  };

  const std::size_t max_lanes = std::max(batches);
  EXPECT_LE(max_lanes, lane_protos.size());
  std::vector<RunResult> sequential;
  std::vector<std::uint64_t> next_draw;
  for (std::size_t i = 0; i < max_lanes; ++i) {
    Rng rng = Rng(kSeed).fork(i);
    ProtocolT proto = lane_protos[i];
    GraphTopology seq_topo(g);
    PhoneCallEngine<GraphTopology> engine(seq_topo, channel, rng);
    sequential.push_back(engine.run(proto, source_of(i), limits));
    next_draw.push_back(rng.next_u64());
  }

  for (const std::size_t lanes : batches) {
    SCOPED_TRACE("B=" + std::to_string(lanes));
    EXPECT_EQ(batched_kernel_name(
                  batched_kernel_for<ProtocolT, detail::NoMetrics>(
                      channel, lanes, topo)
                      .kernel),
              batched_kernel_name(BatchedKernel::kClassic));
    std::vector<ProtocolT> protos(lane_protos.begin(),
                                  lane_protos.begin() + lanes);
    std::vector<ProtocolT*> proto_ptrs;
    std::vector<NodeId> sources;
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < lanes; ++i) {
      proto_ptrs.push_back(&protos[i]);
      sources.push_back(source_of(i));
      rngs.push_back(Rng(kSeed).fork(i));
    }
    BatchedPhoneCallEngine<GraphTopology> batched(topo, channel);
    const std::vector<RunResult> results =
        batched.run(std::span<ProtocolT* const>(proto_ptrs),
                    std::span<const NodeId>(sources), std::span<Rng>(rngs),
                    limits);
    EXPECT_EQ(results.size(), lanes);
    for (std::size_t i = 0; i < std::min(lanes, results.size()); ++i) {
      SCOPED_TRACE("lane " + std::to_string(i));
      expect_run_eq(results[i], sequential[i]);
      EXPECT_EQ(rngs[i].next_u64(), next_draw[i]);
    }
  }
  return sequential;
}

/// True when the runs did not all stop in the same round.
bool rounds_differ(const std::vector<RunResult>& runs) {
  const auto [lo, hi] = std::minmax_element(
      runs.begin(), runs.end(),
      [](const RunResult& a, const RunResult& b) {
        return a.rounds < b.rounds;
      });
  return lo->rounds != hi->rounds;
}

TEST(BatchedClassicBlocks, LanesStopInDifferentRounds) {
  const Graph g = multi_block_graph(false);
  RunLimits limits;
  limits.record_rounds = true;
  {
    SCOPED_TRACE("push");
    EXPECT_TRUE(rounds_differ(expect_classic_lanes_match(
        g, {1, 4}, limits, std::vector<PushProtocol>(4))));
  }
  {
    SCOPED_TRACE("pull");
    EXPECT_TRUE(rounds_differ(expect_classic_lanes_match(
        g, {1, 4}, limits, std::vector<PullProtocol>(4))));
  }
  {
    SCOPED_TRACE("push-pull");
    EXPECT_TRUE(rounds_differ(expect_classic_lanes_match(
        g, {1, 4, 64}, limits, std::vector<PushPullProtocol>(64))));
  }
}

TEST(BatchedClassicBlocks, IsolatedNodesAndDrawOnlyLanesTruncate) {
  // With isolated nodes no lane can inform everyone, so every lane runs to
  // max_rounds; the past-horizon lanes go draw-only at staggered rounds.
  const Graph g = multi_block_graph(true);
  for (NodeId v : {NodeId{0}, NodeId{8192}, g.num_nodes() - 1})
    ASSERT_EQ(g.degree(v), 0U);
  RunLimits limits;
  limits.record_rounds = true;
  limits.max_rounds = 14;
  {
    SCOPED_TRACE("fixed-horizon past its horizon");
    std::vector<PastHorizonPush> horizons;
    for (std::size_t i = 0; i < 64; ++i)
      horizons.emplace_back(static_cast<Round>(1 + i % 13));
    expect_classic_lanes_match(g, {1, 4, 64}, limits, horizons);
  }
  {
    SCOPED_TRACE("push");
    expect_classic_lanes_match(g, {1, 4}, limits,
                               std::vector<PushProtocol>(4));
  }
  {
    SCOPED_TRACE("pull");
    expect_classic_lanes_match(g, {1, 4}, limits,
                               std::vector<PullProtocol>(4));
  }
  {
    SCOPED_TRACE("push-pull");
    expect_classic_lanes_match(g, {1, 4}, limits,
                               std::vector<PushPullProtocol>(4));
  }
}

TEST(BatchedEngine, RejectsMismatchedLaneSpans) {
  const Graph g = test_graph();
  GraphTopology topo(g);
  BatchedPhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{});
  PushProtocol p0;
  PushProtocol p1;
  PushProtocol* protos[] = {&p0, &p1};
  const NodeId one_source[] = {NodeId{0}};
  std::vector<Rng> rngs{Rng(1).fork(0), Rng(1).fork(1)};
  EXPECT_THROW(
      (void)engine.run(std::span<PushProtocol* const>(protos),
                       std::span<const NodeId>(one_source),
                       std::span<Rng>(rngs), RunLimits{}),
      std::logic_error);
}

TEST(BatchedEngine, RejectsNegativeBatchConfig) {
  RunnerConfig bad;
  bad.batch = -1;
  EXPECT_THROW(ParallelRunner{bad}, std::logic_error);
}

}  // namespace
}  // namespace rrb
