#include "rrb/sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "rrb/graph/generators.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

TraceConfig quick_config() {
  TraceConfig cfg;
  cfg.trials = 2;
  cfg.seed = 7;
  return cfg;
}

TEST(Trace, InformedIsMonotoneAndPartitionsN) {
  const NodeId n = 512;
  TraceConfig cfg = quick_config();
  const auto trace = trace_set_sizes(
      [n](Rng& rng) { return random_regular_simple(n, 6, rng); },
      [](const Graph&) { return make_protocol<PushProtocol>(); }, cfg);
  ASSERT_FALSE(trace.empty());
  double last = 0.0;
  for (const SetTracePoint& p : trace) {
    EXPECT_GE(p.informed, last);
    EXPECT_NEAR(p.informed + p.uninformed, static_cast<double>(n), 1e-9);
    last = p.informed;
  }
  EXPECT_NEAR(trace.back().informed, static_cast<double>(n), 1e-9);
}

TEST(Trace, NewlyInformedSumsToInformedMinusSource) {
  const NodeId n = 256;
  TraceConfig cfg = quick_config();
  cfg.trials = 1;
  const auto trace = trace_set_sizes(
      [n](Rng& rng) { return random_regular_simple(n, 6, rng); },
      [](const Graph&) { return make_protocol<PushProtocol>(); }, cfg);
  double sum = 0.0;
  for (const SetTracePoint& p : trace) sum += p.newly_informed;
  EXPECT_NEAR(sum, static_cast<double>(n - 1), 1e-9);
}

TEST(Trace, HSetsAreNestedAndBelowUninformed) {
  const NodeId n = 1024;
  TraceConfig cfg = quick_config();
  cfg.trials = 1;
  const auto trace = trace_set_sizes(
      [n](Rng& rng) { return random_regular_simple(n, 8, rng); },
      [n](const Graph&) {
        FourChoiceConfig fc;
        fc.n_estimate = n;
        return make_protocol<FourChoiceBroadcast>(fc);
      },
      cfg);
  for (const SetTracePoint& p : trace) {
    EXPECT_LE(p.h5, p.h4);
    EXPECT_LE(p.h4, p.h1);
    EXPECT_LE(p.h1, p.uninformed);
  }
}

TEST(Trace, RoundIndicesAreSequential) {
  const auto trace = trace_set_sizes(
      [](Rng& rng) { return random_regular_simple(128, 4, rng); },
      [](const Graph&) { return make_protocol<PushProtocol>(); },
      quick_config());
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(trace[i].t, static_cast<Round>(i + 1));
}

TEST(Trace, EdgeUsageCountIsMonotoneDecreasing) {
  // |U(t)| (nodes with an unused incident edge) can only shrink over time.
  TraceConfig cfg = quick_config();
  cfg.trials = 1;
  cfg.track_edge_usage = true;
  const NodeId n = 512;
  const auto trace = trace_set_sizes(
      [n](Rng& rng) { return random_regular_simple(n, 6, rng); },
      [n](const Graph&) {
        FourChoiceConfig fc;
        fc.n_estimate = n;
        return make_protocol<FourChoiceBroadcast>(fc);
      },
      cfg);
  double last = static_cast<double>(n);
  for (const SetTracePoint& p : trace) {
    EXPECT_LE(p.unused_edge_nodes, last + 1e-9);
    last = p.unused_edge_nodes;
  }
  // Something must have been used by the end.
  EXPECT_LT(trace.back().unused_edge_nodes, static_cast<double>(n));
}

TEST(Trace, HSetsSkippedWhenDisabled) {
  TraceConfig cfg = quick_config();
  cfg.track_h_sets = false;
  const auto trace = trace_set_sizes(
      [](Rng& rng) { return random_regular_simple(128, 4, rng); },
      [](const Graph&) { return make_protocol<PushProtocol>(); }, cfg);
  for (const SetTracePoint& p : trace) {
    EXPECT_DOUBLE_EQ(p.h1, 0.0);
    EXPECT_DOUBLE_EQ(p.h4, 0.0);
  }
}

TEST(Trace, AveragesOverTrialsAreFractional) {
  // With 3 trials the averaged informed counts are generally non-integral;
  // sanity check the averaging machinery ran (values within [0, n]).
  const NodeId n = 256;
  TraceConfig cfg = quick_config();
  cfg.trials = 3;
  const auto trace = trace_set_sizes(
      [n](Rng& rng) { return random_regular_simple(n, 6, rng); },
      [](const Graph&) { return make_protocol<PushProtocol>(); }, cfg);
  for (const SetTracePoint& p : trace) {
    EXPECT_GE(p.informed, 0.0);
    EXPECT_LE(p.informed, static_cast<double>(n));
  }
}

TEST(Trace, RejectsZeroTrials) {
  TraceConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(
      (void)trace_set_sizes(
          [](Rng& rng) { return random_regular_simple(64, 4, rng); },
          [](const Graph&) { return make_protocol<PushProtocol>(); },
          cfg),
      std::logic_error);
}

TEST(Trace, RejectsNullProtocol) {
  EXPECT_THROW(
      (void)trace_set_sizes(
          [](Rng& rng) { return random_regular_simple(64, 4, rng); },
          [](const Graph&) { return std::unique_ptr<BroadcastProtocol>(); },
          quick_config()),
      std::logic_error);
}

TEST(Trace, RejectsGraphsBelowTwoNodes) {
  EXPECT_THROW(
      (void)trace_set_sizes(
          [](Rng&) { return Graph::from_edges(1, {}); },
          [](const Graph&) { return make_protocol<PushProtocol>(); },
          quick_config()),
      std::logic_error);
}

TEST(Trace, EachRoundAveragesOnlyTheTrialsStillRunning) {
  // Push trials end at different rounds; round t of the trace must be the
  // mean over the trials that ran >= t rounds of their own set sizes — the
  // SetSizeObserver series of the observed run_trials on the same streams.
  const NodeId n = 256;
  const GraphFactory graphs = [n](Rng& rng) {
    return random_regular_simple(n, 4, rng);
  };
  const ProtocolFactory push = [](const Graph&) {
    return make_protocol<PushProtocol>();
  };
  TraceConfig cfg = quick_config();
  cfg.trials = 6;
  cfg.track_h_sets = false;
  const auto trace = trace_set_sizes(graphs, push, cfg);

  TrialConfig trial_cfg;
  trial_cfg.trials = cfg.trials;
  trial_cfg.seed = cfg.seed;
  const auto observed = run_trials(graphs, push, trial_cfg, [](const Graph&) {
    return SetSizeObserver{};
  });
  std::size_t shortest = trace.size();
  for (const SetSizeObserver& trial : observed.observers)
    shortest = std::min(shortest, trial.points().size());
  ASSERT_LT(shortest, trace.size()) << "trials must end at different rounds";

  for (std::size_t i = 0; i < trace.size(); ++i) {
    double informed = 0.0;
    double newly = 0.0;
    int running = 0;
    for (const SetSizeObserver& trial : observed.observers) {
      if (i >= trial.points().size()) continue;
      informed += static_cast<double>(trial.points()[i].informed);
      newly += static_cast<double>(trial.points()[i].newly_informed);
      ++running;
    }
    ASSERT_GT(running, 0);
    EXPECT_DOUBLE_EQ(trace[i].informed, informed / running) << "round " << i;
    EXPECT_DOUBLE_EQ(trace[i].newly_informed, newly / running)
        << "round " << i;
  }
}

}  // namespace
}  // namespace rrb
