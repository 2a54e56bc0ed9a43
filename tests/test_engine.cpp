#include "rrb/phonecall/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/phonecall/edge_ids.hpp"
#include "rrb/protocols/baselines.hpp"

namespace rrb {
namespace {

/// A protocol that never transmits and never finishes; exposes engine
/// behaviour at the limits.
class SilentProtocol final : public BroadcastProtocol {
 public:
  Action action(NodeId, const NodeLocalState&, Round) override {
    return Action::kNone;
  }
  bool finished(Round, Count, Count) const override { return false; }
  const char* name() const override { return "silent"; }
};

TEST(Engine, ConfigValidation) {
  const Graph g = complete(4);
  GraphTopology topo(g);
  Rng rng(1);
  ChannelConfig bad;
  bad.num_choices = 0;
  EXPECT_THROW((PhoneCallEngine<GraphTopology>(topo, bad, rng)),
               std::logic_error);
  bad.num_choices = 65;
  EXPECT_THROW((PhoneCallEngine<GraphTopology>(topo, bad, rng)),
               std::logic_error);
  bad.num_choices = 1;
  bad.failure_prob = 1.5;
  EXPECT_THROW((PhoneCallEngine<GraphTopology>(topo, bad, rng)),
               std::logic_error);
  bad.failure_prob = 0.0;
  bad.memory = 2;
  bad.quasirandom = true;
  EXPECT_THROW((PhoneCallEngine<GraphTopology>(topo, bad, rng)),
               std::logic_error);
}

TEST(Engine, PushOnK2TakesOneRoundOneTransmission) {
  const Graph g = complete(2);
  GraphTopology topo(g);
  Rng rng(2);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  const RunResult r = engine.run(push, NodeId{0}, RunLimits{});
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.completion_round, 1);
  EXPECT_EQ(r.push_tx, 1U);
  EXPECT_EQ(r.pull_tx, 0U);
  EXPECT_EQ(r.final_informed, 2U);
}

TEST(Engine, PullOnK2TakesOneRoundOneTransmission) {
  const Graph g = complete(2);
  GraphTopology topo(g);
  Rng rng(3);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PullProtocol pull;
  const RunResult r = engine.run(pull, NodeId{0}, RunLimits{});
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.push_tx, 0U);
  EXPECT_EQ(r.pull_tx, 1U);
}

TEST(Engine, SynchronousSemanticsNoSameRoundForwarding) {
  // On the path 0-1-2 a push broadcast from 0 cannot reach 2 in round 1:
  // messages received in round t are forwardable only from round t+1.
  const Graph g = path(3);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    GraphTopology topo(g);
    Rng rng(seed);
    PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
    PushProtocol push;
    RunLimits limits;
    limits.record_rounds = true;
    const RunResult r = engine.run(push, NodeId{0}, limits);
    ASSERT_TRUE(r.all_informed);
    ASSERT_GE(r.per_round.size(), 2U);
    EXPECT_EQ(r.per_round[0].informed, 2U);  // only node 1 can be new
    EXPECT_GE(r.completion_round, 2);
  }
}

TEST(Engine, ChannelsOpenedCountsChoicesPerNode) {
  const Graph g = complete(5);  // degree 4
  GraphTopology topo(g);
  Rng rng(4);
  ChannelConfig cfg;
  cfg.num_choices = 2;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  SilentProtocol silent;
  RunLimits limits;
  limits.max_rounds = 7;
  const RunResult r = engine.run(silent, NodeId{0}, limits);
  EXPECT_EQ(r.rounds, 7);
  EXPECT_EQ(r.channels_opened, 5U * 2U * 7U);
  EXPECT_EQ(r.total_tx(), 0U);
  EXPECT_FALSE(r.all_informed);
}

TEST(Engine, ChoicesCappedByDegree) {
  const Graph g = cycle(6);  // degree 2
  GraphTopology topo(g);
  Rng rng(5);
  ChannelConfig cfg;
  cfg.num_choices = 4;  // more than the degree
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  SilentProtocol silent;
  RunLimits limits;
  limits.max_rounds = 3;
  const RunResult r = engine.run(silent, NodeId{0}, limits);
  EXPECT_EQ(r.channels_opened, 6U * 2U * 3U);
}

TEST(Engine, FourDistinctChoicesInformAllNeighboursImmediately) {
  // Star K_{1,4}: the centre has degree 4; with num_choices = 4 it calls
  // every leaf in round 1, so a push from the centre always completes in
  // one round.
  const Graph g = star(5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    GraphTopology topo(g);
    Rng rng(seed);
    ChannelConfig cfg;
    cfg.num_choices = 4;
    PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
    PushProtocol push;
    const RunResult r = engine.run(push, NodeId{0}, RunLimits{});
    EXPECT_TRUE(r.all_informed);
    EXPECT_EQ(r.rounds, 1);
    EXPECT_EQ(r.push_tx, 4U);
  }
}

TEST(Engine, MemoryThreeMakesSingleChoiceRoundRobin) {
  // Star K_{1,4}, push from the centre, one choice per round, memory 3:
  // four consecutive calls must hit four distinct leaves, so the broadcast
  // always completes in exactly 4 rounds. Without memory the success
  // probability within 4 rounds is 4!/4^4 ≈ 9%.
  const Graph g = star(5);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    GraphTopology topo(g);
    Rng rng(seed);
    ChannelConfig cfg;
    cfg.num_choices = 1;
    cfg.memory = 3;
    PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
    PushProtocol push;
    RunLimits limits;
    limits.stop_when_all_informed = true;
    const RunResult r = engine.run(push, NodeId{0}, limits);
    EXPECT_TRUE(r.all_informed) << "seed " << seed;
    EXPECT_EQ(r.completion_round, 4) << "seed " << seed;
  }
}

TEST(Engine, MemoryFallsBackWhenDegreeTooSmall) {
  // K2 with memory 3: the only neighbour was always recently called; the
  // constraint must relax rather than deadlock.
  const Graph g = complete(2);
  GraphTopology topo(g);
  Rng rng(6);
  ChannelConfig cfg;
  cfg.num_choices = 1;
  cfg.memory = 3;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  PushProtocol push;
  const RunResult r = engine.run(push, NodeId{0}, RunLimits{});
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.rounds, 1);
}

TEST(MemoryRing, FailedChannelsAreRemembered) {
  // Deliberate semantics, pinned (see the engine's Phase B comment): a
  // failed channel still enters the memory ring, because the call was
  // *placed* even though no message crossed it — the sequentialised
  // model's memory constraint is about whom you dialled, not whom you
  // reached. K2 with failure_prob = 1: both nodes call their only
  // neighbour, every channel fails, yet both rings record the partner.
  const Graph g = complete(2);
  GraphTopology topo(g);
  Rng rng(12);
  ChannelConfig cfg;
  cfg.num_choices = 1;
  cfg.memory = 3;
  cfg.failure_prob = 1.0;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  PushProtocol push;
  RunLimits limits;
  limits.max_rounds = 1;
  const RunResult r = engine.run(push, NodeId{0}, limits);
  EXPECT_EQ(r.channels_failed, r.channels_opened);
  EXPECT_EQ(r.final_informed, 1U);  // nothing was delivered
  EXPECT_EQ(engine.sampler().memory_ring(0)[0], NodeId{1});
  EXPECT_EQ(engine.sampler().memory_ring(1)[0], NodeId{0});
  EXPECT_TRUE(engine.sampler().recently_called(0, 1));
  EXPECT_TRUE(engine.sampler().recently_called(1, 0));
}

TEST(Engine, QuasirandomCoversNeighboursInDRounds) {
  // Quasirandom single choice on the star centre: the cursor walks the
  // whole neighbour list, so 4 rounds always suffice.
  const Graph g = star(5);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    GraphTopology topo(g);
    Rng rng(seed);
    ChannelConfig cfg;
    cfg.num_choices = 1;
    cfg.quasirandom = true;
    PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
    PushProtocol push;
    RunLimits limits;
    limits.stop_when_all_informed = true;
    const RunResult r = engine.run(push, NodeId{0}, limits);
    EXPECT_TRUE(r.all_informed);
    EXPECT_LE(r.completion_round, 4);
  }
}

TEST(Engine, TotalFailureBlocksEverything) {
  const Graph g = complete(8);
  GraphTopology topo(g);
  Rng rng(7);
  ChannelConfig cfg;
  cfg.failure_prob = 1.0;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  PushProtocol push;
  RunLimits limits;
  limits.max_rounds = 20;
  const RunResult r = engine.run(push, NodeId{0}, limits);
  EXPECT_FALSE(r.all_informed);
  EXPECT_EQ(r.final_informed, 1U);
  EXPECT_EQ(r.total_tx(), 0U);
  EXPECT_EQ(r.channels_failed, r.channels_opened);
}

TEST(Engine, FailureRateMatchesConfiguredProbability) {
  const Graph g = complete(50);
  GraphTopology topo(g);
  Rng rng(8);
  ChannelConfig cfg;
  cfg.failure_prob = 0.3;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  SilentProtocol silent;
  RunLimits limits;
  limits.max_rounds = 100;
  const RunResult r = engine.run(silent, NodeId{0}, limits);
  const double rate = static_cast<double>(r.channels_failed) /
                      static_cast<double>(r.channels_opened);
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Engine, DeterministicGivenSeed) {
  Rng graph_rng(9);
  const Graph g = random_regular_simple(128, 6, graph_rng);
  auto run_once = [&](std::uint64_t seed) {
    GraphTopology topo(g);
    Rng rng(seed);
    ChannelConfig cfg;
    cfg.num_choices = 4;
    PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
    PushProtocol push;
    return engine.run(push, NodeId{0}, RunLimits{});
  };
  const RunResult a = run_once(42);
  const RunResult b = run_once(42);
  const RunResult c = run_once(43);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  // A different seed should (overwhelmingly) differ somewhere.
  EXPECT_TRUE(a.push_tx != c.push_tx || a.rounds != c.rounds);
}

TEST(Engine, MultipleSourcesAllStartInformed) {
  const Graph g = cycle(12);
  GraphTopology topo(g);
  Rng rng(10);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  const std::vector<NodeId> sources{0, 6};
  RunLimits limits;
  limits.record_rounds = true;
  const RunResult r = engine.run(
      push, std::span<const NodeId>(sources.data(), sources.size()), limits);
  EXPECT_TRUE(r.all_informed);
  // Two fronts cover the 12-cycle in at most ~4 rounds of deterministic
  // bidirectional growth; strictly fewer rounds than one source needs.
  EXPECT_LE(r.completion_round, 8);
  ASSERT_FALSE(r.per_round.empty());
  EXPECT_GE(r.per_round[0].informed, 3U);  // 2 sources + at least one new
}

TEST(Engine, DuplicateSourcesAreIdempotent) {
  const Graph g = complete(4);
  GraphTopology topo(g);
  Rng rng(11);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  const std::vector<NodeId> sources{2, 2, 2};
  const RunResult r = engine.run(
      push, std::span<const NodeId>(sources.data(), sources.size()),
      RunLimits{});
  EXPECT_TRUE(r.all_informed);
}

TEST(Engine, PerRoundStatsSumToTotals) {
  Rng graph_rng(12);
  const Graph g = random_regular_simple(200, 8, graph_rng);
  GraphTopology topo(g);
  Rng rng(13);
  ChannelConfig cfg;
  cfg.num_choices = 4;
  PhoneCallEngine<GraphTopology> engine(topo, cfg, rng);
  PushPullProtocol pp;
  RunLimits limits;
  limits.record_rounds = true;
  const RunResult r = engine.run(pp, NodeId{0}, limits);
  Count push_sum = 0, pull_sum = 0, ch_sum = 0;
  Count last_informed = 0;
  for (const RoundStats& round : r.per_round) {
    push_sum += round.push_tx;
    pull_sum += round.pull_tx;
    ch_sum += round.channels_opened;
    EXPECT_GE(round.informed, last_informed);  // informed set is monotone
    last_informed = round.informed;
  }
  EXPECT_EQ(push_sum, r.push_tx);
  EXPECT_EQ(pull_sum, r.pull_tx);
  EXPECT_EQ(ch_sum, r.channels_opened);
  EXPECT_EQ(last_informed, r.final_informed);
}

TEST(Engine, MaxRoundsCapIsHonoured) {
  const Graph g = complete(16);
  GraphTopology topo(g);
  Rng rng(14);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  SilentProtocol silent;
  RunLimits limits;
  limits.max_rounds = 5;
  const RunResult r = engine.run(silent, NodeId{0}, limits);
  EXPECT_EQ(r.rounds, 5);
}

/// Minimal hand-written observer, exercising the raw hook interface the
/// way rrb/metrics observers do (the library observers have their own
/// suite in tests/test_metrics.cpp).
struct RoundWatcher {
  [[nodiscard]] const char* name() const { return "round-watcher"; }
  int calls = 0;
  Count last_count = 0;
  void on_round_end(const RoundStats& stats,
                    std::span<const Round> informed_at) {
    ++calls;
    EXPECT_EQ(stats.t, calls);
    Count informed = 0;
    for (const Round r : informed_at)
      if (r != kNever) ++informed;
    EXPECT_GE(informed, last_count);
    last_count = informed;
  }
};

TEST(Engine, ObserverSeesEveryRound) {
  const Graph g = complete(8);
  GraphTopology topo(g);
  Rng rng(15);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  RoundWatcher watcher;
  const RunResult r = engine.run(push, NodeId{0}, RunLimits{}, watcher);
  EXPECT_EQ(watcher.calls, r.rounds);
  EXPECT_EQ(watcher.last_count, r.final_informed);
}

TEST(Engine, EdgeUsageObserverMarksUsedEdges) {
  const Graph g = path(3);
  const EdgeIdMap map = build_edge_id_map(g);
  GraphTopology topo(g);
  Rng rng(16);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  EdgeUsageObserver usage(&g, &map);
  PushProtocol push;
  const RunResult r = engine.run(push, NodeId{0}, RunLimits{}, usage);
  ASSERT_TRUE(r.all_informed);
  // Both edges carried the message.
  EXPECT_EQ(usage.used().size(), 2U);
  EXPECT_EQ(usage.used()[0], 1);
  EXPECT_EQ(usage.used()[1], 1);
}

TEST(Engine, EdgeUsageObserverNotMarkedWithoutTransmission) {
  const Graph g = complete(4);
  const EdgeIdMap map = build_edge_id_map(g);
  GraphTopology topo(g);
  Rng rng(17);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  EdgeUsageObserver usage(&g, &map);
  SilentProtocol silent;
  RunLimits limits;
  limits.max_rounds = 10;
  (void)engine.run(silent, NodeId{0}, limits, usage);
  for (const auto used : usage.used()) EXPECT_EQ(used, 0);
}

TEST(Engine, SelfLoopTransmissionIsCountedButInformsNobody) {
  // One node with one self-loop (degree 2): pushing over a loop stub wastes
  // a transmission on itself, faithfully to stub semantics.
  const std::vector<Edge> edges{{0, 0}};
  const Graph g = Graph::from_edges(1, edges);
  GraphTopology topo(g);
  Rng rng(18);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  RunLimits limits;
  limits.max_rounds = 3;
  const RunResult r = engine.run(push, NodeId{0}, limits);
  EXPECT_TRUE(r.all_informed);  // the only node is the source
  EXPECT_EQ(r.final_informed, 1U);
  EXPECT_EQ(r.push_tx, 1U);  // one loop transmission before oracle stop
}

TEST(Engine, SourceValidation) {
  const Graph g = complete(3);
  GraphTopology topo(g);
  Rng rng(19);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  EXPECT_THROW((void)engine.run(push, NodeId{3}, RunLimits{}),
               std::logic_error);
  EXPECT_THROW(
      (void)engine.run(push, std::span<const NodeId>{}, RunLimits{}),
      std::logic_error);
}

TEST(Engine, InformedAtExposesReceiptRounds) {
  const Graph g = path(3);
  GraphTopology topo(g);
  Rng rng(20);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  PushProtocol push;
  (void)engine.run(push, NodeId{0}, RunLimits{});
  const auto informed = engine.informed_at();
  ASSERT_EQ(informed.size(), 3U);
  EXPECT_EQ(informed[0], 0);  // source at time 0
  EXPECT_EQ(informed[1], 1);  // node 0 has only one neighbour: round 1
  // Node 1 pushes to a *random* neighbour each round, so node 2's receipt
  // round is >= 2 but not deterministic.
  EXPECT_GE(informed[2], 2);
}

TEST(GraphTopologyAdapter, ForwardsGraphAccessors) {
  const Graph g = cycle(5);
  GraphTopology topo(g);
  EXPECT_EQ(topo.num_slots(), 5U);
  EXPECT_EQ(topo.num_alive(), 5U);
  EXPECT_TRUE(topo.is_alive(3));
  EXPECT_EQ(topo.degree(0), 2U);
  EXPECT_EQ(topo.neighbor(0, 0), g.neighbor(0, 0));
}

// ---- The silent-channel skip rule ------------------------------------------
//
// PhoneCallEngine skips the callee work of a silent channel only when no
// set_failure_model predicate is installed. A predicate that never fires
// changes no outcome but turns the skip off, so the two runs below make the
// same draws, one on the plain path and one on the fast path. Any
// difference in the RunResult, informed_at() or the RNG's next draw is a
// skip-rule bug.

struct ChainedRun {
  RunResult result;
  std::vector<Round> informed_at;
  std::uint64_t next_draw = 0;
};

template <typename ObserverT>
ChainedRun run_chained(const Graph& g, BroadcastScheme scheme,
                       double failure_prob, bool plain, ObserverT& observers) {
  BroadcastOptions opt;
  opt.scheme = scheme;
  opt.failure_prob = failure_prob;
  return with_scheme(g, opt, [&](auto proto, const ChannelConfig& channel) {
    Rng rng(0x5c1e47);
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
    if (plain)
      engine.set_failure_model([](Round, NodeId, NodeId) { return false; });
    RunLimits limits;
    limits.max_rounds = opt.max_rounds;
    limits.record_rounds = true;
    ChainedRun out;
    out.result = engine.run(proto, NodeId{3}, limits, observers);
    out.informed_at.assign(engine.informed_at().begin(),
                           engine.informed_at().end());
    out.next_draw = rng.next_u64();
    return out;
  });
}

void expect_chained_eq(const ChainedRun& fast, const ChainedRun& plain) {
  const RunResult& a = fast.result;
  const RunResult& b = plain.result;
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
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    const RoundStats& x = a.per_round[i];
    const RoundStats& y = b.per_round[i];
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.informed, y.informed);
    EXPECT_EQ(x.newly_informed, y.newly_informed);
    EXPECT_EQ(x.push_tx, y.push_tx);
    EXPECT_EQ(x.pull_tx, y.pull_tx);
    EXPECT_EQ(x.channels_opened, y.channels_opened);
    EXPECT_EQ(x.channels_failed, y.channels_failed);
    EXPECT_EQ(x.transmitting_nodes, y.transmitting_nodes);
  }
  EXPECT_EQ(fast.informed_at, plain.informed_at);
  EXPECT_EQ(fast.next_draw, plain.next_draw);
}

Graph skip_rule_graph() {
  Rng grng(0x5c1e);
  return random_regular_simple(512, 8, grng);
}

TEST(SilentChannelSkip, AllSchemesMatchThePlainPath) {
  const Graph g = skip_rule_graph();
  for (const BroadcastScheme scheme : kAllSchemes) {
    for (const double failure_prob : {0.0, 0.05}) {
      SCOPED_TRACE(std::string(scheme_name(scheme)) +
                   " fp=" + std::to_string(failure_prob));
      detail::NoMetrics none;
      const ChainedRun fast =
          run_chained(g, scheme, failure_prob, /*plain=*/false, none);
      const ChainedRun plain =
          run_chained(g, scheme, failure_prob, /*plain=*/true, none);
      expect_chained_eq(fast, plain);
    }
  }
}

TEST(SilentChannelSkip, ObserverStackSeesThePlainPathStreams) {
  using Stack = ObserverSet<RoundStatsObserver, TxHistogramObserver,
                            InformedLatencyObserver>;
  const Graph g = skip_rule_graph();
  for (const BroadcastScheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    Stack fast_obs;
    Stack plain_obs;
    const ChainedRun fast =
        run_chained(g, scheme, 0.05, /*plain=*/false, fast_obs);
    const ChainedRun plain =
        run_chained(g, scheme, 0.05, /*plain=*/true, plain_obs);
    expect_chained_eq(fast, plain);
    EXPECT_EQ(fast_obs.get<RoundStatsObserver>().rounds().size(),
              plain_obs.get<RoundStatsObserver>().rounds().size());
    EXPECT_EQ(fast_obs.get<TxHistogramObserver>().sends(),
              plain_obs.get<TxHistogramObserver>().sends());
    EXPECT_EQ(fast_obs.get<InformedLatencyObserver>().latencies(),
              plain_obs.get<InformedLatencyObserver>().latencies());
  }
}

}  // namespace
}  // namespace rrb
