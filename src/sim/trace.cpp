#include "rrb/sim/trace.hpp"

#include <memory>

#include "rrb/metrics/observers.hpp"
#include "rrb/phonecall/edge_ids.hpp"

namespace rrb {

namespace {

/// Owns a trial's edge-id map on the heap, so the EdgeUsageObserver's raw
/// pointer into it survives every move of the observer set.
struct EdgeIdsOwner {
  std::unique_ptr<const EdgeIdMap> map;
  [[nodiscard]] const char* name() const { return "edge-ids"; }
};

using TraceObservers =
    ObserverSet<SetSizeObserver, HSetObserver, EdgeUsageObserver, EdgeIdsOwner>;

}  // namespace

std::vector<SetTracePoint> trace_set_sizes(
    const GraphFactory& graph_factory,
    const ProtocolFactory& protocol_factory, const TraceConfig& config) {
  TrialConfig trial_config;
  trial_config.trials = config.trials;
  trial_config.seed = config.seed;
  trial_config.channel = config.channel;
  trial_config.limits = config.limits;
  trial_config.runner = config.runner;

  // HSetObserver and EdgeUsageObserver are disabled by null topology
  // pointers when the config does not ask for them.
  const auto observed = run_trials(
      graph_factory, protocol_factory, trial_config,
      [&config](const Graph& graph) {
        std::unique_ptr<const EdgeIdMap> edge_ids;
        if (config.track_edge_usage)
          edge_ids = std::make_unique<const EdgeIdMap>(build_edge_id_map(graph));
        const EdgeIdMap* ids = edge_ids.get();
        return TraceObservers(
            SetSizeObserver{},
            HSetObserver(config.track_h_sets ? &graph : nullptr),
            EdgeUsageObserver(ids != nullptr ? &graph : nullptr, ids,
                              /*record_per_round=*/true),
            EdgeIdsOwner{std::move(edge_ids)});
      });

  // Sum in trial order — the same float addition order as a sequential
  // run, so the averaged trace is byte-identical for any thread count.
  std::vector<SetTracePoint> trace;
  std::vector<int> contributions;  // trials that ran each round
  for (const TraceObservers& observers : observed.observers) {
    const auto& sizes = observers.get<SetSizeObserver>().points();
    const auto& hsets = observers.get<HSetObserver>().points();
    const auto& unused =
        observers.get<EdgeUsageObserver>().unused_edge_nodes_per_round();
    if (trace.size() < sizes.size()) {
      trace.resize(sizes.size());
      contributions.resize(sizes.size(), 0);
    }
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SetTracePoint& point = trace[i];
      point.t = sizes[i].t;
      point.informed += static_cast<double>(sizes[i].informed);
      point.newly_informed += static_cast<double>(sizes[i].newly_informed);
      point.uninformed += static_cast<double>(sizes[i].uninformed);
      if (config.track_h_sets) {
        point.h1 += static_cast<double>(hsets[i].h1);
        point.h4 += static_cast<double>(hsets[i].h4);
        point.h5 += static_cast<double>(hsets[i].h5);
      }
      if (config.track_edge_usage)
        point.unused_edge_nodes += static_cast<double>(unused[i]);
      ++contributions[i];
    }
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    SetTracePoint& point = trace[i];
    const double scale = 1.0 / static_cast<double>(contributions[i]);
    point.informed *= scale;
    point.newly_informed *= scale;
    point.uninformed *= scale;
    point.h1 *= scale;
    point.h4 *= scale;
    point.h5 *= scale;
    point.unused_edge_nodes *= scale;
  }
  return trace;
}

}  // namespace rrb
