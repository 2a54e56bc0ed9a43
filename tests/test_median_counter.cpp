#include "rrb/protocols/median_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/p2p/churn.hpp"
#include "rrb/p2p/overlay.hpp"
#include "rrb/phonecall/batched_engine.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

MedianCounterConfig config_for(std::uint64_t n) {
  MedianCounterConfig cfg;
  cfg.n_estimate = n;
  return cfg;
}

RunResult run_mc(const Graph& g, std::uint64_t seed,
                 MedianCounterConfig cfg) {
  MedianCounterProtocol proto(cfg);
  GraphTopology topo(g);
  Rng rng(seed);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  return engine.run(proto, NodeId{0}, RunLimits{});
}

TEST(MedianCounter, ParametersScaleWithN) {
  MedianCounterProtocol small(config_for(1 << 10));
  MedianCounterProtocol large(config_for(1 << 20));
  EXPECT_GE(large.ctr_max(), small.ctr_max());
  EXPECT_GT(large.max_age(), small.max_age());
  EXPECT_GE(small.ctr_max(), 3);
}

TEST(MedianCounter, RejectsTinyEstimate) {
  MedianCounterConfig cfg;
  cfg.n_estimate = 1;
  EXPECT_THROW(MedianCounterProtocol{cfg}, std::logic_error);
}

TEST(MedianCounter, SelfTerminatesOnCompleteGraph) {
  const Graph g = complete(1024);
  const RunResult r = run_mc(g, 1, config_for(1024));
  EXPECT_TRUE(r.all_informed);
  // Terminates on its own well before the engine's default cap.
  EXPECT_LT(r.rounds, 200);
}

TEST(MedianCounter, RoundsAreLogScaleOnCompleteGraph) {
  // Karp et al.: log3 n + O(log log n) rounds to inform everyone.
  const NodeId n = 4096;
  const Graph g = complete(n);
  const RunResult r = run_mc(g, 2, config_for(n));
  ASSERT_TRUE(r.all_informed);
  const double expected = std::log(n) / std::log(3.0);
  EXPECT_GT(static_cast<double>(r.completion_round), 0.6 * expected);
  EXPECT_LT(static_cast<double>(r.completion_round), 3.0 * expected);
}

// Mean per-node transmissions over a few seeds (complete graph, n nodes).
double mean_tx_per_node(NodeId n, std::initializer_list<std::uint64_t> seeds) {
  const Graph g = complete(n);
  double total = 0.0;
  for (const std::uint64_t seed : seeds) {
    const RunResult r = run_mc(g, seed, config_for(n));
    EXPECT_TRUE(r.all_informed);
    total += r.tx_per_node();
  }
  return total / static_cast<double>(seeds.size());
}

TEST(MedianCounter, TransmissionsAreNLogLogScaleOnCompleteGraph) {
  // The whole point of the counter: O(n log log n) transmissions. At
  // laptop scale the honest check is twofold: (a) per-node transmissions
  // stay within a small multiple of log log n, and (b) they grow far more
  // slowly than log n when n is scaled 16x. Seeds are averaged so the
  // ratio bound is not hostage to one unlucky run.
  const double small = mean_tx_per_node(1 << 8, {3, 5, 7});
  const double large = mean_tx_per_node(1 << 12, {4, 6, 8});
  const double lglg_large = std::log2(12.0);
  EXPECT_LT(large, 8.0 * lglg_large);       // small multiple of log log n
  EXPECT_LT(large / small, 1.35);           // log n ratio would be 1.5,
                                            // log log n ratio ~1.2
  EXPECT_GT(large, 1.0);
}

TEST(MedianCounterSlow, TransmissionsScaleTo16k) {
  // The original 64x spread (2^8 -> 2^14): a materialised K_{16384} costs
  // ~1 GB of adjacency and >10 s, so this stronger form of the scaling
  // check lives under the `slow` CTest label (run it via
  // `ctest --preset release-all` or plain `ctest`).
  const double small = mean_tx_per_node(1 << 8, {3});
  const double large = mean_tx_per_node(1 << 14, {4});
  const double lglg_large = std::log2(14.0);
  EXPECT_LT(large, 8.0 * lglg_large);
  EXPECT_LT(large / small, 1.4);            // log n ratio would be 1.75
  EXPECT_GT(large, 1.0);
}

TEST(MedianCounter, StopsEvenIfIsolated) {
  // A graph where the broadcast cannot spread (single node): protocol must
  // still terminate via quiescence/deadline.
  const std::vector<Edge> no_edges;
  const Graph g = Graph::from_edges(1, no_edges);
  MedianCounterProtocol proto(config_for(16));
  GraphTopology topo(g);
  Rng rng(4);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  RunLimits limits;
  limits.max_rounds = 10000;
  const RunResult r = engine.run(proto, NodeId{0}, limits);
  EXPECT_LT(r.rounds, 10000);  // did not hit the cap
}

TEST(MedianCounter, WorksOnRandomRegular) {
  Rng grng(5);
  const NodeId n = 2048;
  const Graph g = random_regular_simple(n, 16, grng);
  const RunResult r = run_mc(g, 6, config_for(n));
  EXPECT_TRUE(r.all_informed);
}

TEST(MedianCounter, UsesBothDirections) {
  const Graph g = complete(256);
  const RunResult r = run_mc(g, 7, config_for(256));
  EXPECT_GT(r.push_tx, 0U);
  EXPECT_GT(r.pull_tx, 0U);
}

TEST(MedianCounter, DeadlineBoundsRunLength) {
  // Even on a hostile topology (long path: pull/push crawl), the protocol
  // stops within max_age + final_rounds of the last activation.
  const Graph g = path(64);
  MedianCounterProtocol proto(config_for(64));
  GraphTopology topo(g);
  Rng rng(8);
  PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
  RunLimits limits;
  limits.max_rounds = 100000;
  const RunResult r = engine.run(proto, NodeId{0}, limits);
  // Path broadcast advances >= 1 hop per ~constant rounds; the deadline
  // guarantees every node stops at most max_age + final_rounds after its
  // own activation, so the whole run is O(n + max_age).
  EXPECT_LT(r.rounds, 64 * 8 + proto.max_age() + proto.final_rounds() + 4);
}

TEST(MedianCounter, SourceLeavesStateBSoRunsEndBeforeTheDeadline) {
  // The source never receives the message, yet it must start counting like
  // every other node: were it stuck in state B, it would push&pull until
  // its own deadline and every run would last exactly max_age + 1 rounds.
  Rng grng(0x3ed1d);
  const Graph clique = complete(1024);
  const Graph regular = random_regular_simple(1 << 12, 8, grng);
  for (const Graph* g : {&clique, &regular}) {
    const MedianCounterProtocol proto(config_for(g->num_nodes()));
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("n " + std::to_string(g->num_nodes()) + " seed " +
                   std::to_string(seed));
      const RunResult r = run_mc(*g, seed, config_for(g->num_nodes()));
      EXPECT_TRUE(r.all_informed);
      EXPECT_LE(r.rounds, proto.max_age());
    }
  }
}

TEST(MedianCounter, StampCarriesCounter) {
  MedianCounterProtocol proto(config_for(256));
  proto.reset(4);
  MessageMeta meta;
  meta.counter = 5;
  proto.on_receive(2, meta, 1, /*first_time=*/true);
  // A freshly informed node has ctr = 1 and stamps it.
  EXPECT_EQ(proto.stamp(2, 2).counter, 1);
  // An uninformed node stamps 0 (it never transmits anyway).
  EXPECT_EQ(proto.stamp(3, 2).counter, 0);
}

TEST(MedianCounter, MedianRuleAdvancesCounter) {
  MedianCounterProtocol proto(config_for(256));
  proto.reset(2);
  MessageMeta first;
  first.counter = 1;
  proto.on_receive(0, first, 1, /*first_time=*/true);  // ctr[0] = 1
  // Deliver three copies with counters {2, 2, 3}: median 2 >= 1 -> ctr 2.
  for (const int c : {2, 2, 3}) {
    MessageMeta m;
    m.counter = c;
    proto.on_receive(0, m, 2, /*first_time=*/false);
  }
  proto.on_round_start(3);
  EXPECT_EQ(proto.stamp(0, 3).counter, 2);
}

TEST(MedianCounter, LowMediansDoNotAdvanceCounter) {
  MedianCounterProtocol proto(config_for(256));
  proto.reset(2);
  MessageMeta first;
  first.counter = 1;
  proto.on_receive(0, first, 1, /*first_time=*/true);
  proto.on_round_start(2);  // no samples: unchanged
  EXPECT_EQ(proto.stamp(0, 2).counter, 1);
  // ctr reaches 2 first.
  for (const int c : {5, 5, 5}) {
    MessageMeta m;
    m.counter = c;
    proto.on_receive(0, m, 2, /*first_time=*/false);
  }
  proto.on_round_start(3);
  ASSERT_EQ(proto.stamp(0, 3).counter, 2);
  // Now deliver counters below 2: median 0 < 2, no advance.
  for (const int c : {0, 0, 1}) {
    MessageMeta m;
    m.counter = c;
    proto.on_receive(0, m, 3, /*first_time=*/false);
  }
  proto.on_round_start(4);
  EXPECT_EQ(proto.stamp(0, 4).counter, 2);
}

// ---- Byte counters against the sample matrix they replaced ------------------

/// The protocol as it stood when each node kept the first kMaxSamples
/// counters it received in a round (an n x 32 matrix) and compared their
/// nth_element median with its own counter, with the source rule of the
/// current protocol (a source starts in state B on its first action).
/// Frozen as the reference the two byte counters must reproduce bit for
/// bit; `capped` counts the samples the cap dropped, so a case can show
/// that the cap binds.
class SampleMatrixMedianCounter {
 public:
  explicit SampleMatrixMedianCounter(const MedianCounterConfig& cfg) {
    const MedianCounterProtocol current(cfg);
    ctr_max_ = current.ctr_max();
    final_rounds_ = current.final_rounds();
    max_age_ = current.max_age();
  }

  void reset(NodeId n) {
    ctr_.assign(n, 0);
    c_entered_.assign(n, kNever);
    sample_count_.assign(n, 0);
    samples_.assign(static_cast<std::size_t>(n) * kMaxSamples, 0);
    touched_.clear();
    active_this_round_ = 0;
  }
  void on_round_start(Round /*t*/) {
    active_this_round_ = 0;
    for (const NodeId v : touched_) {
      const std::size_t cnt = sample_count_[v];
      if (cnt == 0 || ctr_[v] == 0) {
        sample_count_[v] = 0;
        continue;
      }
      auto* first =
          samples_.data() + static_cast<std::size_t>(v) * kMaxSamples;
      auto* mid = first + cnt / 2;
      std::nth_element(first, mid, first + cnt);
      if (*mid >= ctr_[v]) ++ctr_[v];
      sample_count_[v] = 0;
    }
    touched_.clear();
  }
  [[nodiscard]] Action action(NodeId v, const NodeLocalState& state,
                              Round t) {
    if (t - state.informed_at > max_age_) return Action::kNone;
    if (ctr_[v] == 0) ctr_[v] = 1;  // a source enters state B
    if (c_entered_[v] != kNever) {
      if (t - c_entered_[v] >= final_rounds_) return Action::kNone;
      ++active_this_round_;
      return Action::kPushPull;
    }
    if (ctr_[v] >= ctr_max_) c_entered_[v] = t;
    ++active_this_round_;
    return Action::kPushPull;
  }
  [[nodiscard]] MessageMeta stamp(NodeId v, Round /*t*/) {
    MessageMeta meta;
    meta.counter = ctr_[v];
    return meta;
  }
  void on_receive(NodeId v, const MessageMeta& meta, Round /*t*/,
                  bool first_time) {
    if (first_time) {
      ctr_[v] = 1;
      return;
    }
    if (ctr_[v] == 0) return;
    const std::size_t cnt = sample_count_[v];
    if (cnt < kMaxSamples) {
      if (cnt == 0) touched_.push_back(v);
      samples_[static_cast<std::size_t>(v) * kMaxSamples + cnt] =
          meta.counter;
      ++sample_count_[v];
    } else {
      ++capped;
    }
  }
  [[nodiscard]] bool finished(Round /*t*/, Count informed,
                              Count /*alive*/) const {
    return informed == 0 || active_this_round_ == 0;
  }
  [[nodiscard]] const char* name() const { return "median-counter-matrix"; }

  Count capped = 0;

 private:
  static constexpr std::size_t kMaxSamples = 32;
  int ctr_max_ = 0;
  int final_rounds_ = 0;
  int max_age_ = 0;
  std::vector<std::int32_t> ctr_;
  std::vector<Round> c_entered_;
  std::vector<std::uint8_t> sample_count_;
  std::vector<std::int32_t> samples_;
  std::vector<NodeId> touched_;
  Count active_this_round_ = 0;
};

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
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    const RoundStats& x = a.per_round[i];
    const RoundStats& y = b.per_round[i];
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.transmitting_nodes, y.transmitting_nodes);
    EXPECT_EQ(x.channels_opened, y.channels_opened);
    EXPECT_EQ(x.channels_failed, y.channels_failed);
    EXPECT_EQ(x.push_tx, y.push_tx);
    EXPECT_EQ(x.pull_tx, y.pull_tx);
    EXPECT_EQ(x.newly_informed, y.newly_informed);
    EXPECT_EQ(x.informed, y.informed);
  }
}

/// What one engine run exposes: its result with per-round stats, the round
/// each node was informed, and the next draw of its stream.
struct Observed {
  RunResult result;
  std::vector<Round> informed_at;
  std::uint64_t next_draw = 0;
  Count capped = 0;  ///< samples the cap dropped (reference protocol only)
};

void expect_same(const Observed& counts, const Observed& matrix) {
  expect_run_eq(counts.result, matrix.result);
  EXPECT_EQ(counts.informed_at, matrix.informed_at);
  EXPECT_EQ(counts.next_draw, matrix.next_draw);
}

/// Run Proto on `topo` from `source`; `wire(engine)` may install hooks.
template <typename Proto, typename Topology,
          typename Wire = void (*)(PhoneCallEngine<Topology>&)>
Observed run_observed(Topology& topo, const ChannelConfig& channel, Rng& rng,
                      std::uint64_t n_estimate, NodeId source,
                      Wire wire = [](PhoneCallEngine<Topology>&) {}) {
  Proto proto(config_for(n_estimate));
  PhoneCallEngine<Topology> engine(topo, channel, rng);
  wire(engine);
  RunLimits limits;
  limits.record_rounds = true;
  Observed out;
  out.result = engine.run(proto, source, limits);
  out.informed_at.assign(engine.informed_at().begin(),
                         engine.informed_at().end());
  out.next_draw = rng.next_u64();
  if constexpr (std::is_same_v<Proto, SampleMatrixMedianCounter>)
    out.capped = proto.capped;
  return out;
}

template <typename Proto>
Observed run_static(const Graph& g, double failure_prob, std::uint64_t seed,
                    NodeId source) {
  GraphTopology topo(g);
  ChannelConfig channel;
  channel.failure_prob = failure_prob;
  Rng rng(seed);
  return run_observed<Proto>(topo, channel, rng, g.num_nodes(), source);
}

/// An e13-style churn cell: a 512-peer overlay with joins, leaves and
/// maintenance switches every round, so departed peers forget the message
/// and reused slots are informed afresh.
template <typename Proto>
Observed run_churn(std::uint64_t seed) {
  constexpr NodeId kPeers = 512;
  Rng rng(seed);
  DynamicOverlay overlay(kPeers + kPeers / 8, kPeers, 8, rng);
  ChurnConfig churn;
  churn.joins_per_round = 4.0;
  churn.leaves_per_round = 4.0;
  churn.switches_per_round = 2;
  ChurnDriver driver(overlay, churn, rng);
  const NodeId source = overlay.random_alive(rng);
  return run_observed<Proto>(
      overlay, ChannelConfig{}, rng, kPeers, source,
      [&driver](PhoneCallEngine<DynamicOverlay>& engine) {
        attach_churn(engine, driver);
      });
}

TEST(MedianCounterCounts, MatchesSampleMatrix) {
  Rng grng(0x3ed1a);
  const Graph regular = random_regular_simple(1 << 10, 8, grng);
  const Graph clique = complete(200);
  // The hub of a star hears from every informed leaf each round, far
  // more than kMaxSamples, so there the cap drops samples.
  const Graph hub = star(200);

  struct Case {
    const char* name;
    const Graph* g;
    double failure_prob;
    bool cap_binds;
  };
  const Case cases[] = {{"G(2^10, 8)", &regular, 0.0, false},
                        {"G(2^10, 8) failure 0.05", &regular, 0.05, false},
                        {"K_200", &clique, 0.0, false},
                        {"star(200)", &hub, 0.0, true}};
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      const NodeId source = static_cast<NodeId>(seed % c.g->num_nodes());
      const Observed matrix = run_static<SampleMatrixMedianCounter>(
          *c.g, c.failure_prob, seed, source);
      expect_same(
          run_static<MedianCounterProtocol>(*c.g, c.failure_prob, seed,
                                            source),
          matrix);
      if (c.cap_binds) {
        EXPECT_GT(matrix.capped, 0U);
      }
    }
  }

  for (const std::uint64_t seed : {4, 5}) {
    SCOPED_TRACE("churn seed " + std::to_string(seed));
    const Observed matrix = run_churn<SampleMatrixMedianCounter>(seed);
    EXPECT_GT(matrix.result.final_informed, 0U);
    expect_same(run_churn<MedianCounterProtocol>(seed), matrix);
  }

  // The hooks alone, with fan-ins up to twice the cap and counters spread
  // around the receiver's own, so every sample can sway the rule and the
  // cap has to drop the right ones. Every eighth node is never informed.
  {
    constexpr NodeId kNodes = 64;
    MedianCounterProtocol counts(config_for(1 << 16));
    SampleMatrixMedianCounter matrix(config_for(1 << 16));
    counts.reset(kNodes);
    matrix.reset(kNodes);
    Rng rng(0x3ed1c);
    for (Round t = 1; t <= 300; ++t) {
      counts.on_round_start(t);
      matrix.on_round_start(t);
      for (NodeId v = 0; v < kNodes; ++v) {
        const std::int32_t own = matrix.stamp(v, t).counter;
        ASSERT_EQ(counts.stamp(v, t).counter, own)
            << "node " << v << " round " << t;
        if (v % 8 == 0) continue;
        const std::uint64_t fan_in = rng.uniform_u64(65);
        for (std::uint64_t k = 0; k < fan_in; ++k) {
          MessageMeta meta;
          meta.counter =
              own - 2 + static_cast<std::int32_t>(rng.uniform_u64(5));
          const bool first_time = t == 1 && k == 0;
          counts.on_receive(v, meta, t, first_time);
          matrix.on_receive(v, meta, t, first_time);
        }
      }
    }
    EXPECT_GT(matrix.capped, 0U);
  }

  // broadcast_trials on every scheduling path (sequential, worker pool,
  // lockstep lanes) against the reference run trial by trial: trial i
  // draws its source, then its rounds, from Rng(seed).fork(i).
  BroadcastOptions options;
  options.scheme = BroadcastScheme::kMedianCounter;
  options.seed = 0x3ed1b;
  options.trials = 6;
  options.record_rounds = true;
  std::vector<Observed> reference;
  for (int i = 0; i < options.trials; ++i) {
    Rng rng = Rng(options.seed).fork(static_cast<std::uint64_t>(i));
    const auto source =
        static_cast<NodeId>(rng.uniform_u64(regular.num_nodes()));
    GraphTopology topo(regular);
    reference.push_back(run_observed<SampleMatrixMedianCounter>(
        topo, ChannelConfig{}, rng, regular.num_nodes(), source));
  }
  for (const int threads : {1, 4}) {
    for (const int batch : {0, 2}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " batch " +
                   std::to_string(batch));
      options.runner.threads = threads;
      options.runner.batch = batch;
      const TrialOutcome outcome = broadcast_trials(regular, options);
      ASSERT_EQ(outcome.runs.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        expect_run_eq(outcome.runs[i], reference[i].result);
      }
    }
  }

  // The same trials as lockstep lanes, where each lane's stream is visible.
  MedianCounterProtocol lane_proto(config_for(regular.num_nodes()));
  std::vector<MedianCounterProtocol> protos(reference.size(), lane_proto);
  std::vector<MedianCounterProtocol*> proto_ptrs;
  std::vector<NodeId> sources;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    proto_ptrs.push_back(&protos[i]);
    rngs.push_back(Rng(options.seed).fork(i));
    sources.push_back(
        static_cast<NodeId>(rngs.back().uniform_u64(regular.num_nodes())));
  }
  const GraphTopology topo(regular);
  BatchedPhoneCallEngine<GraphTopology> batched(topo, ChannelConfig{});
  RunLimits limits;
  limits.record_rounds = true;
  const std::vector<RunResult> lanes = batched.run(
      std::span<MedianCounterProtocol* const>(proto_ptrs),
      std::span<const NodeId>(sources), std::span<Rng>(rngs), limits);
  ASSERT_EQ(lanes.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    expect_run_eq(lanes[i], reference[i].result);
    EXPECT_EQ(rngs[i].next_u64(), reference[i].next_draw);
  }
}

}  // namespace
}  // namespace rrb
