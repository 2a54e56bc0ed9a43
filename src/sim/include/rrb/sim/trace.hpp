#pragma once

#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/sim/trial.hpp"

/// \file trace.hpp
/// Per-round set-size traces averaged over trials: the raw material for the
/// phase-dynamics experiments (Lemmas 1–4, 8). For each round we record the
/// quantities the paper's analysis tracks: |I(t)|, |I+(t)|, h(t) = |H(t)|,
/// and h_i(t) = |{v in H(t) : v has >= i neighbours in H(t)}| for i = 1,4,5.
///
/// Measurement runs through the metric-observer pipeline
/// (SetSizeObserver / HSetObserver / EdgeUsageObserver in
/// rrb/metrics/observers.hpp) on the observed run_trials sweep
/// (rrb/sim/trial.hpp) — this driver only averages the per-round series.
/// The observer migration is value-exact: tests/test_metrics.cpp pins the
/// traced numbers against values captured from the pre-observer engine
/// path.
///
/// Trials run on the deterministic parallel runner (rrb/sim/runner.hpp):
/// each trial records its own per-round trace from Rng(seed).fork(trial),
/// and the traces are averaged in trial order afterwards, so the result is
/// bit-identical for any RunnerConfig.

namespace rrb {

/// One round's set sizes (averaged over trials as doubles).
struct SetTracePoint {
  Round t = 0;
  double informed = 0.0;        ///< |I(t)|
  double newly_informed = 0.0;  ///< |I+(t)|
  double uninformed = 0.0;      ///< h(t)
  double h1 = 0.0;              ///< nodes of H(t) with >= 1 neighbour in H(t)
  double h4 = 0.0;              ///< ... >= 4 neighbours in H(t)
  double h5 = 0.0;              ///< ... >= 5 neighbours in H(t)
  double unused_edge_nodes = 0.0;  ///< |U(t)| when edge tracking is on
};

struct TraceConfig {
  int trials = 3;
  std::uint64_t seed = 0x77ace;
  ChannelConfig channel;
  RunLimits limits;
  bool track_h_sets = true;      ///< compute h1/h4/h5 (O(m) per round)
  bool track_edge_usage = false; ///< compute |U(t)| (needs edge id map)
  RunnerConfig runner;           ///< worker pool; never changes the output
};

/// Run trials and average the per-round set sizes. The trace length is the
/// maximum round count across trials, and round t is averaged only over the
/// trials that ran at least t rounds: a trial that stopped earlier does not
/// contribute to later rounds, so the tail of the trace describes the
/// slowest trials alone. Throws std::logic_error when trials < 1, a trial
/// graph has fewer than 2 nodes, or the protocol factory returns null.
[[nodiscard]] std::vector<SetTracePoint> trace_set_sizes(
    const GraphFactory& graph_factory,
    const ProtocolFactory& protocol_factory, const TraceConfig& config);

}  // namespace rrb
