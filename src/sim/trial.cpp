#include "rrb/sim/trial.hpp"

namespace rrb {

namespace detail {

TrialOutcome reduce_runs(std::vector<RunResult>&& runs) {
  SummaryAccumulator rounds, completion, total_tx, tx_per_node, push_tx,
      pull_tx, coverage;
  int completed = 0;
  for (const RunResult& run : runs) {
    rounds.add(static_cast<double>(run.rounds));
    total_tx.add(static_cast<double>(run.total_tx()));
    tx_per_node.add(run.tx_per_node());
    push_tx.add(static_cast<double>(run.push_tx));
    pull_tx.add(static_cast<double>(run.pull_tx));
    coverage.add(run.n == 0 ? 0.0
                            : static_cast<double>(run.final_informed) /
                                  static_cast<double>(run.n));
    if (run.all_informed) {
      ++completed;
      completion.add(static_cast<double>(run.completion_round));
    }
  }
  TrialOutcome outcome;
  outcome.rounds = rounds.finish();
  outcome.completion_round = completion.finish();
  outcome.total_tx = total_tx.finish();
  outcome.tx_per_node = tx_per_node.finish();
  outcome.push_tx = push_tx.finish();
  outcome.pull_tx = pull_tx.finish();
  outcome.coverage = coverage.finish();
  outcome.completion_rate =
      static_cast<double>(completed) / static_cast<double>(runs.size());
  outcome.runs = std::move(runs);
  return outcome;
}

SweepPlan plan_for(const TrialConfig& config) {
  return {config.trials, config.seed, config.limits,
          config.random_source ? kNoNode : 0, config.runner};
}

SweepPlan plan_for(const BroadcastOptions& options, NodeId source) {
  RunLimits limits;
  limits.max_rounds = options.max_rounds;
  limits.record_rounds = options.record_rounds;
  return {options.trials, options.seed, limits, source, options.runner};
}

}  // namespace detail

TrialOutcome run_trials(const GraphFactory& graph_factory,
                        const ProtocolFactory& protocol_factory,
                        const TrialConfig& config) {
  return detail::sweep(graph_factory,
                       detail::FactorySource{protocol_factory, config.channel},
                       detail::plan_for(config))
      .outcome;
}

TrialOutcome run_trials(const Graph& graph,
                        const ProtocolFactory& protocol_factory,
                        const TrialConfig& config) {
  return detail::sweep(graph,
                       detail::FactorySource{protocol_factory, config.channel},
                       detail::plan_for(config))
      .outcome;
}

TrialOutcome broadcast_trials(const Graph& graph,
                              const BroadcastOptions& options, NodeId source) {
  return detail::sweep(graph, options, detail::plan_for(options, source))
      .outcome;
}

TrialOutcome broadcast_trials(const GraphFactory& graph_factory,
                              const BroadcastOptions& options, NodeId source) {
  return detail::sweep(graph_factory, options,
                       detail::plan_for(options, source))
      .outcome;
}

}  // namespace rrb
