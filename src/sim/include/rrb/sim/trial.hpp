#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/metrics/observer.hpp"
#include "rrb/phonecall/batched_engine.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/phonecall/protocol.hpp"
#include "rrb/phonecall/result.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/aggregate.hpp"
#include "rrb/sim/runner.hpp"

/// \file trial.hpp
/// Repeated-trial experiment driver: runs a protocol from a random source
/// on a graph rebuilt per trial (the paper's "random graph, random
/// algorithm" probability space) or on one fixed graph ("random algorithm"
/// only), and aggregates.
///
/// Every public driver is a thin wrapper over one sweep, detail::sweep. It
/// takes a graph source (a per-trial GraphFactory, or one fixed Graph — the
/// only source config.runner.batch can advance in lockstep), a protocol
/// source (a BroadcastOptions scheme, statically dispatched per trial graph,
/// or a type-erased ProtocolFactory plus its ChannelConfig) and an observer
/// factory. Trial i draws every random bit from Rng(seed).fork(i), writes
/// its own result slot, and the slots are reduced in trial order, so the
/// outcome is bit-identical for any RunnerConfig.
///
/// The observer-aware overloads build a fresh MetricObserver per trial
/// (rrb/metrics/observer.hpp) and return the observers *in trial order*
/// next to the usual TrialOutcome. Observers are read-only and draw
/// nothing, so the instrumented overloads return byte-identical
/// TrialOutcomes to the bare ones (pinned in tests/test_metrics.cpp).

namespace rrb {

/// Builds a fresh graph for each trial. Receives the per-trial Rng.
/// Invoked concurrently from worker threads, one call per trial: the
/// callable must be reentrant (capture by value or reference state it only
/// reads), which every pure generator factory already is.
using GraphFactory = std::function<Graph(Rng&)>;

/// Builds a fresh protocol instance per trial (protocols are stateful).
/// Same reentrancy requirement as GraphFactory.
using ProtocolFactory =
    std::function<std::unique_ptr<BroadcastProtocol>(const Graph&)>;

struct TrialConfig {
  int trials = 5;
  std::uint64_t seed = 0x5eed;
  ChannelConfig channel;
  RunLimits limits;
  bool random_source = true;  ///< random source per trial; node 0 otherwise
  RunnerConfig runner;        ///< worker pool; never changes the output
};

/// Everything measured across the trials of one experiment cell.
struct TrialOutcome {
  std::vector<RunResult> runs;  ///< indexed by trial
  Summary rounds;            ///< rounds until the protocol stopped
  Summary completion_round;  ///< rounds until all nodes informed (only
                             ///< completed runs contribute)
  Summary total_tx;
  Summary tx_per_node;
  Summary push_tx;
  Summary pull_tx;
  Summary coverage;          ///< final_informed / n per run (< 1 when a
                             ///< self-terminating scheme leaves stragglers,
                             ///< e.g. under channel failures)
  double completion_rate = 0.0;  ///< fraction of runs informing everyone
};

/// An instrumented trial sweep: the usual TrialOutcome (byte-identical to
/// the bare overload's) plus one observer per trial, in trial order — the
/// shape the seeding contract demands for any reduction over them.
template <MetricObserver Obs>
struct ObservedOutcome {
  TrialOutcome outcome;
  std::vector<Obs> observers;  ///< indexed by trial
};

namespace detail {

/// Reduce per-trial RunResults, already in trial order, into a
/// TrialOutcome: samples enter each Summary in ascending trial order.
[[nodiscard]] TrialOutcome reduce_runs(std::vector<RunResult>&& runs);

/// Everything a sweep needs besides its sources.
struct SweepPlan {
  int trials = 1;
  std::uint64_t seed = 0;
  RunLimits limits;
  NodeId source = kNoNode;  ///< kNoNode: a uniform source drawn per trial
  RunnerConfig runner;
};

[[nodiscard]] SweepPlan plan_for(const TrialConfig& config);
[[nodiscard]] SweepPlan plan_for(const BroadcastOptions& options,
                                 NodeId source);

/// Protocol source: a type-erased factory paired with a fixed channel.
struct FactorySource {
  const ProtocolFactory& factory;
  const ChannelConfig& channel;
};

/// Build `lanes` fresh protocol instances for `graph` and invoke
/// body(std::span<P* const>, channel) with the protocols' static type P: a
/// scheme's concrete protocol, or BroadcastProtocol for a factory.
template <typename Body>
decltype(auto) with_protocols(const BroadcastOptions& options,
                              const Graph& graph, std::size_t lanes,
                              Body&& body) {
  return with_scheme(
      graph, options, [&](auto proto, const ChannelConfig& channel) {
        using Proto = decltype(proto);
        std::vector<Proto> protos(lanes, proto);
        std::vector<Proto*> ptrs;
        for (Proto& p : protos) ptrs.push_back(&p);
        return body(std::span<Proto* const>(ptrs), channel);
      });
}

template <typename Body>
decltype(auto) with_protocols(const FactorySource& source, const Graph& graph,
                              std::size_t lanes, Body&& body) {
  std::vector<std::unique_ptr<BroadcastProtocol>> protos;
  std::vector<BroadcastProtocol*> ptrs;
  for (std::size_t b = 0; b < lanes; ++b) {
    protos.push_back(source.factory(graph));
    RRB_REQUIRE(protos.back() != nullptr, "protocol factory returned null");
    ptrs.push_back(protos.back().get());
  }
  return body(std::span<BroadcastProtocol* const>(ptrs), source.channel);
}

/// The trial's graph: the fixed one, or a fresh one built from the trial
/// stream (its draws come first, before the source and the round loop).
template <typename Body>
void with_trial_graph(const Graph& graph, Rng&, Body&& body) {
  body(graph);
}

template <typename Body>
void with_trial_graph(const GraphFactory& factory, Rng& rng, Body&& body) {
  body(factory(rng));
}

struct MakeNoMetrics {
  NoMetrics operator()(const Graph&) const { return {}; }
};

/// Trials [first, first + runs.size()) of a sweep, as one group: trial
/// first + b writes runs[b] and observers[b] and nothing else, so groups
/// may run concurrently. Trial i seeds Rng(plan.seed).fork(i) and draws, in
/// order: its graph (per-trial sources only), its source (unless
/// plan.source fixes one), then the engine's round draws. A per-trial
/// graph's one-lane group, and a fixed graph's group at plan.runner.batch
/// >= 1, run on BatchedPhoneCallEngine with the same per-lane streams:
/// batched_kernel_for() sends classical schemes to the classic kernel and
/// every other group lane by lane to PhoneCallEngine, so runs and
/// observers come out bit-identical to PhoneCallEngine runs (pinned by
/// tests/test_batched_engine.cpp). A fixed graph at batch 0 stays on
/// PhoneCallEngine: it is the sequential reference those tests compare the
/// kernels with. Every sweep body runs here: sweep below, and the campaign
/// scheduler's (cell, trial) queue.
template <typename GraphSource, typename ProtocolSource,
          typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
void sweep_group(const GraphSource& graphs, const ProtocolSource& protocols,
                 const SweepPlan& plan, const MakeObserver& make_observer,
                 std::size_t first, std::span<RunResult> runs,
                 std::span<std::optional<Obs>> observer_slots) {
  constexpr bool kFixedGraph = std::is_same_v<GraphSource, Graph>;
  const std::size_t lanes = runs.size();
  RRB_REQUIRE(lanes >= 1 && observer_slots.size() == lanes,
              "sweep group needs one run and one observer slot per lane");
  Rng rng = Rng(plan.seed).fork(first);
  with_trial_graph(graphs, rng, [&](const Graph& graph) {
    RRB_REQUIRE(graph.num_nodes() >= 2, "trial graph too small");
    RRB_REQUIRE(plan.source == kNoNode || plan.source < graph.num_nodes(),
                "source out of range");
    // Lane b is trial first + b and draws its source from its own
    // stream; lane 0 continues `rng` past the graph's draws.
    std::vector<Rng> rngs;
    std::vector<NodeId> sources;
    for (std::size_t b = 0; b < lanes; ++b) {
      rngs.push_back(b == 0 ? rng : Rng(plan.seed).fork(first + b));
      sources.push_back(
          plan.source != kNoNode
              ? plan.source
              : static_cast<NodeId>(
                    rngs.back().uniform_u64(graph.num_nodes())));
    }
    std::vector<Obs> observers;
    observers.reserve(lanes);
    for (std::size_t b = 0; b < lanes; ++b)
      observers.push_back(make_observer(graph));

    with_protocols(protocols, graph, lanes,
                   [&](auto protos, const ChannelConfig& channel) {
      GraphTopology topo(graph);
      if (!kFixedGraph || plan.runner.batch >= 1) {
        BatchedPhoneCallEngine<GraphTopology> engine(topo, channel);
        std::vector<RunResult> results = engine.run(
            protos, std::span<const NodeId>(sources), std::span<Rng>(rngs),
            plan.limits, std::span<Obs>(observers));
        for (std::size_t b = 0; b < lanes; ++b)
          runs[b] = std::move(results[b]);
        return;
      }
      PhoneCallEngine<GraphTopology> engine(topo, channel, rngs[0]);
      runs[0] = engine.run(*protos[0], sources[0], plan.limits, observers[0]);
    });
    for (std::size_t b = 0; b < lanes; ++b)
      observer_slots[b] = std::move(observers[b]);
  });
}

/// The one trial sweep every driver runs: plan.trials trials in groups of
/// plan.runner.batch lanes (fixed graph only; a per-trial graph source
/// ignores batch and runs one-lane groups, since lockstep lanes need one
/// shared topology), each group a sweep_group on the worker pool, reduced
/// in trial order.
template <typename GraphSource, typename ProtocolSource,
          typename MakeObserver = MakeNoMetrics,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> sweep(
    const GraphSource& graphs, const ProtocolSource& protocols,
    const SweepPlan& plan, const MakeObserver& make_observer = {}) {
  RRB_REQUIRE(plan.trials >= 1, "need at least one trial");
  constexpr bool kFixedGraph = std::is_same_v<GraphSource, Graph>;
  const int width = kFixedGraph ? std::max(1, plan.runner.batch) : 1;
  const auto trials = static_cast<std::size_t>(plan.trials);
  std::vector<RunResult> runs(trials);
  std::vector<std::optional<Obs>> slots(trials);

  ParallelRunner runner(plan.runner);
  runner.for_each_trial((plan.trials + width - 1) / width, [&](int group) {
    const auto first = static_cast<std::size_t>(group) *
                       static_cast<std::size_t>(width);
    const std::size_t lanes =
        std::min(static_cast<std::size_t>(width), trials - first);
    sweep_group(graphs, protocols, plan, make_observer, first,
                std::span<RunResult>(runs).subspan(first, lanes),
                std::span<std::optional<Obs>>(slots).subspan(first, lanes));
  });

  ObservedOutcome<Obs> observed;
  observed.outcome = reduce_runs(std::move(runs));
  observed.observers.reserve(trials);
  for (std::optional<Obs>& slot : slots)
    observed.observers.push_back(std::move(*slot));
  return observed;
}

}  // namespace detail

/// Run `config.trials` independent trials, regenerating the random graph
/// per trial. Rebuilding the topology every trial is what the paper's
/// probability space asks for, and it is also why this overload ignores
/// config.runner.batch — lockstep lanes need one shared topology.
[[nodiscard]] TrialOutcome run_trials(const GraphFactory& graph_factory,
                                      const ProtocolFactory& protocol_factory,
                                      const TrialConfig& config);

/// Fixed-graph trial sweep: every trial runs a fresh protocol instance on
/// the same immutable graph ("random algorithm" randomness only). Trial i
/// draws from Rng(config.seed).fork(i): its source first (uniform when
/// config.random_source, else node 0), then the engine's round draws.
/// This is the overload config.runner.batch accelerates.
[[nodiscard]] TrialOutcome run_trials(const Graph& graph,
                                      const ProtocolFactory& protocol_factory,
                                      const TrialConfig& config);

/// Repeat a broadcast() scheme options.trials times on a fixed graph,
/// scheduled by options.runner (batch included). Trial i runs a fresh,
/// statically dispatched protocol instance seeded from (options.seed, i);
/// `source` fixes the originator, or pass kNoNode to draw a fresh uniform
/// source per trial.
[[nodiscard]] TrialOutcome broadcast_trials(const Graph& graph,
                                            const BroadcastOptions& options,
                                            NodeId source = kNoNode);

/// broadcast_trials on a graph rebuilt per trial: the scheme is dispatched
/// statically on each trial's own graph, so degree-keyed schemes (throttled,
/// four-choice Alg 1 vs 2, fixed horizon) follow that graph's min or mean
/// degree. Ignores options.runner.batch, like the factory run_trials: each
/// trial is a one-lane BatchedPhoneCallEngine group, so the classical
/// schemes run on its classic kernel.
[[nodiscard]] TrialOutcome broadcast_trials(const GraphFactory& graph_factory,
                                            const BroadcastOptions& options,
                                            NodeId source = kNoNode);

/// Observer-aware run_trials: `make_observer(graph)` builds the trial's
/// observer before the run; the engine fires its hooks from inside the
/// round loop. Randomness is untouched — trial i still draws exactly
/// Rng(config.seed).fork(i) in the bare overload's order.
template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> run_trials(
    const GraphFactory& graph_factory,
    const ProtocolFactory& protocol_factory, const TrialConfig& config,
    const MakeObserver& make_observer) {
  return detail::sweep(graph_factory,
                       detail::FactorySource{protocol_factory, config.channel},
                       detail::plan_for(config), make_observer);
}

/// Observer-aware broadcast_trials, on a fixed graph or a per-trial
/// GraphFactory: the bare overload's draws with a per-trial observer.
template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> broadcast_trials(
    const Graph& graph, const BroadcastOptions& options,
    const MakeObserver& make_observer, NodeId source = kNoNode) {
  return detail::sweep(graph, options, detail::plan_for(options, source),
                       make_observer);
}

template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> broadcast_trials(
    const GraphFactory& graph_factory, const BroadcastOptions& options,
    const MakeObserver& make_observer, NodeId source = kNoNode) {
  return detail::sweep(graph_factory, options,
                       detail::plan_for(options, source), make_observer);
}

}  // namespace rrb
