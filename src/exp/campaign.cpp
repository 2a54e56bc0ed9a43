#include "rrb/exp/campaign.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/common/check.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/journal.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/registry.hpp"
#include "rrb/p2p/churn.hpp"
#include "rrb/p2p/overlay.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/aggregate.hpp"
#include "rrb/sim/runner.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb::exp {

namespace {

[[nodiscard]] std::string to_hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

/// The facade options a cell translates to. Trial i of the cell draws from
/// Rng(cell.seed).fork(i).
[[nodiscard]] BroadcastOptions options_for(const CampaignSpec& spec,
                                           const CampaignCell& cell) {
  BroadcastOptions options;
  options.scheme = cell.scheme;
  options.seed = cell.seed;
  options.trials = spec.trials;
  options.n_estimate = cell.n;
  options.alpha = cell.alpha;
  options.failure_prob = cell.failure;
  options.quasirandom = cell.quasirandom;
  options.num_choices = cell.choices;  // 0 = scheme canonical
  options.memory = cell.memory;        // -1 = scheme canonical
  options.max_rounds = spec.max_rounds;
  return options;
}

[[nodiscard]] GraphFactory graph_factory_for(const CampaignSpec& spec,
                                             const CampaignCell& cell) {
  const NodeId n = cell.n;
  const NodeId d = cell.d;
  switch (cell.graph) {
    case GraphFamily::kRegular:
      return [n, d](Rng& rng) { return random_regular_simple(n, d, rng); };
    case GraphFamily::kConfigModel:
      return [n, d](Rng& rng) { return configuration_model(n, d, rng); };
    case GraphFamily::kGnp: {
      const double p =
          std::min(1.0, static_cast<double>(d) / static_cast<double>(n - 1));
      return [n, p](Rng& rng) { return gnp(n, p, rng); };
    }
    case GraphFamily::kHypercube: {
      const NodeId dim = cell.d;  // normalised by expand_cells
      return [dim](Rng&) { return hypercube(static_cast<int>(dim)); };
    }
    case GraphFamily::kComplete:
      return [n](Rng&) { return complete(n); };
    case GraphFamily::kChunked: {
      // The chunked generator is seeded from the trial stream (one draw),
      // so its per-trial identity follows the same (cell_seed, trial)
      // contract as every stateful generator. `chunks` only batches
      // execution and changes no graph byte.
      const int chunks = spec.chunks;
      return [n, d, chunks](Rng& rng) {
        bigtopo::ChunkedParams params;
        params.n = n;
        params.d = d;
        params.seed = rng.next_u64();
        params.chunks = chunks;
        return bigtopo::chunked_configuration_model(params);
      };
    }
    case GraphFamily::kProductK5:
      // The E10 construction: a random (d-4)-regular base on n/5 nodes,
      // each node blown up into a K_5 (cartesian product), giving a
      // d-regular product graph (expand_cells validated divisibility).
      return [n, d](Rng& rng) {
        return cartesian_product(random_regular_simple(n / 5, d - 4, rng),
                                 complete(5));
      };
  }
  throw std::runtime_error("unknown graph family");
}

/// Axis echo shared by every record, so each JSONL line is self-describing
/// and the CSV carries the full grid coordinates.
void set_axis_fields(JsonObject& record, const CampaignSpec& spec,
                     const CampaignCell& cell) {
  record.set("key", cell.key)
      .set("scheme", scheme_name(cell.scheme))
      .set("quasirandom", cell.quasirandom)
      .set("graph", graph_family_name(cell.graph))
      .set("n", static_cast<std::uint64_t>(cell.n))
      .set("d", static_cast<std::uint64_t>(cell.d))
      .set("alpha", cell.alpha)
      .set("failure", cell.failure)
      .set("churn", cell.churn)
      .set("overlay", cell.overlay)
      .set("trials", spec.trials)
      .set("cell_seed", to_hex(cell.seed));
}

/// Registry-metric columns: the digest means over trials via the shared
/// metric_summary_mean reduction (trial order, so the columns are
/// byte-identical for any schedule). Only the *selected* metrics emit
/// columns (the stack collects all of them in one engine pass; unselected
/// digests are simply not rendered).
void set_metric_columns(JsonObject& record, const CampaignSpec& spec,
                        const std::vector<MetricStack>& per_trial) {
  for (const MetricKind kind : spec.metrics) {
    const QuantileSummary mean = metric_summary_mean(per_trial, kind);
    const std::string prefix = metric_column_prefix(kind);
    record.set(prefix + "_p50_mean", mean.p50)
        .set(prefix + "_p90_mean", mean.p90)
        .set(prefix + "_p99_mean", mean.p99)
        .set(prefix + "_max_mean", mean.max);
  }
}

void set_static_columns(JsonObject& record, const TrialOutcome& out) {
  record.set("rounds_mean", out.rounds.mean)
      .set("rounds_min", out.rounds.min)
      .set("rounds_max", out.rounds.max)
      .set("completion_mean", out.completion_round.mean)
      .set("completion_rate", out.completion_rate)
      .set("coverage_mean", out.coverage.mean)
      .set("tx_per_node_mean", out.tx_per_node.mean)
      .set("tx_per_node_max", out.tx_per_node.max)
      .set("total_tx_mean", out.total_tx.mean)
      .set("push_tx_mean", out.push_tx.mean)
      .set("pull_tx_mean", out.pull_tx.mean);
}

/// One cell's trials: the per-trial body and the cell's reduce. Trial i
/// draws from Rng(cell.seed).fork(i) and writes only slot i, so distinct
/// trials may run concurrently; reduce() reads the slots in trial order,
/// which makes the record a pure function of (spec, cell) for any schedule.
///
/// Static cells regenerate the graph per trial and dispatch the scheme
/// statically on it, through the same detail::sweep_group every trial
/// sweep runs. Churn cells run on a DynamicOverlay while a ChurnDriver
/// joins/leaves/switches between rounds (the E13 setting, generalised to
/// every scheme). With metrics selected, each trial also fills a
/// MetricStack; observers are read-only and draw nothing, so every base
/// column keeps its exact metric-less value and the digests land in
/// appended columns (pinned in tests/test_campaign.cpp).
class CellTrials {
 public:
  CellTrials(const CampaignSpec& spec, const CampaignCell& cell)
      : spec_(spec),
        cell_(cell),
        options_(options_for(spec, cell)),
        plan_(detail::plan_for(options_,
                               spec.random_source ? kNoNode : NodeId{0})),
        runs_(static_cast<std::size_t>(spec.trials)),
        churn_totals_(cell.overlay ? runs_.size() : 0),
        stacks_(spec.metrics.empty() ? 0 : runs_.size()) {
    if (!cell.overlay) graphs_ = graph_factory_for(spec, cell);
  }

  void run(int trial) {
    const auto t = static_cast<std::size_t>(trial);
    if (cell_.overlay)
      run_churn(t);
    else if (stacks_.empty())
      (void)sweep_trial(t, detail::MakeNoMetrics{});
    else
      stacks_[t] = sweep_trial(t, [](const Graph&) { return MetricStack{}; });
  }

  /// The cell's record, once every trial has run.
  [[nodiscard]] JsonObject reduce() {
    JsonObject record;
    set_axis_fields(record, spec_, cell_);
    if (cell_.overlay)
      set_churn_columns(record);
    else
      set_static_columns(record, detail::reduce_runs(std::move(runs_)));
    if (!stacks_.empty()) set_metric_columns(record, spec_, stacks_);
    return record;
  }

 private:
  /// Static-cell trial t: its run lands in runs_[t], its observer is
  /// returned.
  template <typename MakeObserver,
            typename Obs =
                std::invoke_result_t<const MakeObserver&, const Graph&>>
  Obs sweep_trial(std::size_t t, const MakeObserver& make_observer) {
    std::optional<Obs> observer;
    detail::sweep_group(graphs_, options_, plan_, make_observer, t,
                        std::span<RunResult>(runs_).subspan(t, 1),
                        std::span(&observer, 1));
    return std::move(observer).value();
  }

  void run_churn(std::size_t trial) {
    // expand_cells has normalised cell.d to the family's effective degree
    // (hypercube dim, complete n-1), so it IS the overlay's degree.
    const SchemeShape shape{cell_.n, cell_.d, static_cast<double>(cell_.d)};
    const NodeId capacity =
        cell_.n + static_cast<NodeId>(std::ceil(
                      static_cast<double>(cell_.n) * spec_.churn_headroom));
    Rng rng = Rng(cell_.seed).fork(trial);
    DynamicOverlay overlay(capacity, cell_.n, cell_.d, rng);
    ChurnConfig churn;
    churn.joins_per_round = cell_.churn;
    churn.leaves_per_round = cell_.churn;
    churn.switches_per_round = spec_.churn_switches;
    ChurnDriver driver(overlay, churn, rng);

    // Observers draw nothing: attaching the stack leaves the trial's draw
    // sequence untouched.
    MetricStack stack;
    runs_[trial] = with_scheme(
        shape, options_, [&](auto proto, const ChannelConfig& channel) {
          PhoneCallEngine<DynamicOverlay> engine(overlay, channel, rng);
          attach_churn(engine, driver);
          const NodeId source = plan_.source == kNoNode
                                    ? overlay.random_alive(rng)
                                    : plan_.source;
          if (!stacks_.empty())
            return engine.run(proto, source, plan_.limits, stack);
          return engine.run(proto, source, plan_.limits);
        });
    if (!stacks_.empty()) stacks_[trial] = std::move(stack);
    churn_totals_[trial] = {driver.total_joins(), driver.total_leaves()};
  }

  void set_churn_columns(JsonObject& record) const {
    SummaryAccumulator rounds, coverage, joins, leaves, alive, tx;
    int completed = 0;
    for (std::size_t t = 0; t < runs_.size(); ++t) {
      const RunResult& run = runs_[t];
      const auto n_alive = static_cast<double>(run.alive_at_end);
      rounds.add(static_cast<double>(run.rounds));
      coverage.add(n_alive > 0.0
                       ? static_cast<double>(run.final_informed) / n_alive
                       : 0.0);
      joins.add(static_cast<double>(churn_totals_[t].first));
      leaves.add(static_cast<double>(churn_totals_[t].second));
      alive.add(n_alive);
      tx.add(n_alive > 0.0 ? static_cast<double>(run.total_tx()) / n_alive
                           : 0.0);
      if (run.all_informed) ++completed;
    }
    const Summary coverage_summary = coverage.finish();
    record.set("rounds_mean", rounds.finish().mean)
        .set("coverage_mean", coverage_summary.mean)
        .set("coverage_min", coverage_summary.min)
        .set("completion_rate", static_cast<double>(completed) /
                                    static_cast<double>(spec_.trials))
        .set("joins_mean", joins.finish().mean)
        .set("leaves_mean", leaves.finish().mean)
        .set("alive_mean", alive.finish().mean)
        .set("tx_per_alive_mean", tx.finish().mean);
  }

  const CampaignSpec& spec_;
  const CampaignCell& cell_;
  BroadcastOptions options_;
  detail::SweepPlan plan_;
  GraphFactory graphs_;  // static cells
  std::vector<RunResult> runs_;
  std::vector<std::pair<Count, Count>> churn_totals_;  // joins, leaves
  std::vector<MetricStack> stacks_;                    // metrics selected
};

/// Scheduling state of one cell in the queue. Every field but `trials` is
/// guarded by the scheduler's mutex.
struct QueuedCell {
  std::unique_ptr<CellTrials> trials;  // freed by the cell's reduce
  int remaining = 0;                   // trials not yet finished
  std::int64_t start_us = -1;          // first trial start (side channel)
  double wall_ms = 0.0;
  bool done = false;  // record ready to commit
};

/// The one campaign scheduler. Every (cell, trial) pair of the cells not
/// yet `reused` goes, in cell order and then trial order, on one
/// ParallelRunner; a claim takes one pair (each builds its own graph, so no
/// claim dominates; ParallelRunner::for_each_unit). When a
/// cell's last trial lands, that worker reduces the cell into its record
/// and frees the slots. Then, under the mutex, finished cells are committed
/// strictly in cell order — reused cells in their place — by
/// commit(i, wall_ms); commit runs under the mutex because that order is
/// what makes the manifest and the progress stream schedule-independent.
/// If commit throws, no further cell is committed and the exception
/// propagates; finished cells not yet committed are lost (a resume
/// recomputes them, bit-identically).
void execute(const CampaignSpec& spec, std::vector<CellResult>& cells,
             const RunnerConfig& runner,
             const std::function<void(std::size_t, double)>& commit) {
  std::mutex mutex;
  std::vector<QueuedCell> queue(cells.size());
  std::size_t next = 0;  // first cell not yet committed
  bool failed = false;   // commit threw

  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].reused) {
      queue[i].done = true;
      continue;
    }
    queue[i].trials = std::make_unique<CellTrials>(spec, cells[i].cell);
    queue[i].remaining = spec.trials;
    todo.push_back(i);
  }

  const auto commit_ready = [&] {  // caller holds `mutex`
    while (!failed && next < cells.size() && queue[next].done) {
      failed = true;  // stays set if commit throws
      commit(next, queue[next].wall_ms);
      failed = false;
      ++next;
    }
  };
  {
    const std::lock_guard<std::mutex> lock(mutex);
    commit_ready();
  }

  const auto trials = static_cast<std::size_t>(spec.trials);
  RRB_REQUIRE(todo.size() <= static_cast<std::size_t>(
                                 std::numeric_limits<int>::max()) / trials,
              "campaign has too many (cell, trial) pairs");
  ParallelRunner(runner).for_each_unit(
      static_cast<int>(todo.size() * trials), [&](int pair) {
        const std::size_t i = todo[static_cast<std::size_t>(pair) / trials];
        const int trial = static_cast<int>(static_cast<std::size_t>(pair) %
                                           trials);
        QueuedCell& cell = queue[i];
        // Wall-clock reads go through telemetry::now_us, the audited
        // side-channel entry point: the values feed only commit's wall_ms
        // and the span, never a record.
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (cell.start_us < 0) cell.start_us = telemetry::now_us();
        }
        {
          telemetry::Span span("campaign", cells[i].cell.key);
          if (span.active())
            span.set_args("{\"trial\":" + std::to_string(trial) + "}");
          cell.trials->run(trial);
        }
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (--cell.remaining > 0) return;
        }
        JsonObject record = cell.trials->reduce();
        cell.trials.reset();
        const std::int64_t end_us = telemetry::now_us();

        const std::lock_guard<std::mutex> lock(mutex);
        cells[i].record = std::move(record);
        cell.wall_ms = static_cast<double>(end_us - cell.start_us) / 1000.0;
        cell.done = true;
        commit_ready();
      });
}

}  // namespace

JsonObject CampaignRunner::run_cell(const CampaignSpec& spec,
                                    const CampaignCell& cell,
                                    const RunnerConfig& trial_runner) {
  std::vector<CellResult> one(1);
  one[0].cell = cell;
  execute(spec, one, trial_runner, [](std::size_t, double) {});
  return std::move(one[0].record);
}

CampaignRunner::CampaignRunner(CampaignSpec spec, CampaignConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {
  if (config_.shard_count < 1)
    throw std::runtime_error("shard count must be >= 1");
  if (config_.shard_index < 0 || config_.shard_index >= config_.shard_count)
    throw std::runtime_error("shard index out of range");
  cells_ = expand_cells(spec_);
}

CampaignOutcome CampaignRunner::run(const CellProgress& progress) {
  namespace fs = std::filesystem;

  CampaignOutcome outcome;
  outcome.total_cells = cells_.size();

  const bool persist = !config_.out_dir.empty();
  const std::string fingerprint = to_hex(spec_fingerprint(spec_));

  // ---- Load the journal: completed cells from earlier (possibly
  // interrupted, possibly sharded) runs of this same spec. The loader
  // skips a truncated final line (a run killed mid-write) and the writer
  // cuts that partial tail before appending — that cell just recomputes,
  // bit-identically.
  std::map<std::string, JsonObject> journal;
  std::optional<JournalWriter> journal_out;
  if (persist) {
    fs::create_directories(config_.out_dir);
    outcome.manifest_path = config_.out_dir + "/manifest.jsonl";
    Journal loaded = load_journal(outcome.manifest_path, fingerprint);
    journal_out.emplace(outcome.manifest_path, loaded, spec_.name,
                        fingerprint, cells_.size());
    journal = std::move(loaded.records);
  }

  // Timing side channel (see campaign.hpp): wall time per freshly computed
  // cell, appended in cell order. Deliberately kept out of the
  // manifest/results so the deterministic artifacts stay byte-identical
  // whatever the hardware did; a failed open just disables the channel.
  std::ofstream timing_out;
  if (persist) {
    outcome.timing_path = config_.out_dir + "/timing.jsonl";
    timing_out.open(outcome.timing_path, std::ios::app);
  }

  // ---- This shard's cells, in cell order: journal records are reused,
  // the rest computed.
  for (const CampaignCell& cell : cells_) {
    if (static_cast<int>(cell.index % static_cast<std::size_t>(
                             config_.shard_count)) != config_.shard_index)
      continue;
    CellResult& slot = outcome.cells.emplace_back();
    slot.cell = cell;
    if (const auto found = journal.find(cell.key); found != journal.end()) {
      slot.record = found->second;
      slot.reused = true;
      ++outcome.reused;
    }
  }
  outcome.computed = outcome.cells.size() - outcome.reused;

  // Commit, in cell order: one journal line per freshly computed cell,
  // flushed before its timing line and the progress callback, so however
  // the run dies afterwards the cell is already resumable.
  execute(spec_, outcome.cells, config_.runner,
          [&](std::size_t i, double wall_ms) {
            const CellResult& cell = outcome.cells[i];
            if (!cell.reused) {
              if (persist) journal_out->append(cell.record);
              if (timing_out) {
                JsonObject line;
                line.set("key", cell.cell.key)
                    .set("wall_ms", wall_ms)
                    .set("trials", spec_.trials)
                    .set("trials_per_s",
                         wall_ms > 0.0 ? static_cast<double>(spec_.trials) /
                                             (wall_ms / 1000.0)
                                       : 0.0)
                    .set("peak_rss_bytes", telemetry::peak_rss_bytes());
                timing_out << line.to_line() << "\n" << std::flush;
              }
            }
            if (progress) progress(cell);
          });

  // ---- Final artifacts, rewritten in cell order. Byte-identical for any
  // thread count, shard replay, or interrupt/resume history. The stream
  // covers every cell of the grid with a record available — this shard's
  // slots plus other shards' journal lines — so a sharded re-run over a
  // directory that already holds the full campaign never truncates the
  // results to its own subset; cells no shard has produced yet are simply
  // absent until a run computes them.
  if (persist) {
    journal_out->close();

    std::vector<const JsonObject*> final_records;
    final_records.reserve(cells_.size());
    {
      std::size_t slot = 0;
      for (const CampaignCell& cell : cells_) {
        if (slot < outcome.cells.size() &&
            outcome.cells[slot].cell.index == cell.index) {
          final_records.push_back(&outcome.cells[slot].record);
          ++slot;
        } else if (const auto found = journal.find(cell.key);
                   found != journal.end()) {
          final_records.push_back(&found->second);
        }
      }
    }

    outcome.results_json_path = config_.out_dir + "/results.jsonl";
    std::ofstream json_out(outcome.results_json_path);
    if (!json_out)
      throw std::runtime_error("cannot write " + outcome.results_json_path);
    for (const JsonObject* record : final_records)
      json_out << record->to_line() << "\n";
    json_out.close();

    std::vector<std::string> columns;
    for (const JsonObject* record : final_records)
      for (const JsonObject::Field& field : record->fields()) {
        bool seen = false;
        for (const std::string& column : columns)
          if (column == field.key) {
            seen = true;
            break;
          }
        if (!seen) columns.push_back(field.key);
      }
    outcome.results_csv_path = config_.out_dir + "/results.csv";
    std::ofstream csv_out(outcome.results_csv_path);
    if (!csv_out)
      throw std::runtime_error("cannot write " + outcome.results_csv_path);
    const CsvWriter csv(columns);
    csv.write_header(csv_out);
    for (const JsonObject* record : final_records)
      csv.write_row(csv_out, *record);
    csv_out.close();

    JsonObject meta;
    // Identity only — no shard split, timings or completion counts — so
    // the file is byte-identical however the campaign was executed.
    meta.set("campaign", spec_.name)
        .set("seed", to_hex(spec_.seed))
        .set("fingerprint", fingerprint)
        .set("cells", static_cast<std::uint64_t>(cells_.size()))
        .set("spec", describe(spec_));
    outcome.meta_path = config_.out_dir + "/campaign.json";
    std::ofstream meta_out(outcome.meta_path);
    if (!meta_out)
      throw std::runtime_error("cannot write " + outcome.meta_path);
    meta.write(meta_out, 0);
    meta_out << "\n";
  }

  return outcome;
}

}  // namespace rrb::exp
