#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/exp/artifact.hpp"
#include "rrb/exp/spec.hpp"

/// \file campaign.hpp
/// Deterministic, resumable execution of an experiment campaign.
///
/// A campaign is the expanded cell grid of a CampaignSpec. The runner
/// executes every cell's trials under the library's seeding contract
/// (trial i of a cell runs on Rng(cell.seed).fork(i), reduced in trial
/// order), so a cell's record is a pure function of (spec, cell) — never of
/// the thread count, the shard split, or which cells ran
/// before it. That purity is what the artifact layer leans on:
///
///  * `manifest.jsonl` — an append-only journal, one flushed line per
///    completed cell (plus a header naming the spec fingerprint). A
///    re-run reuses journal lines verbatim and computes only missing
///    cells, so an interrupted campaign resumes bit-identically; deleting
///    journal lines merely re-runs those cells.
///  * `results.jsonl` / `results.csv` — the full record stream in cell
///    order, rewritten at the end of every run.
///  * `campaign.json` — the spec echo + fingerprint. Contains no
///    timings or completion counts, so it is byte-identical however the
///    campaign was executed.
///  * `timing.jsonl` — a SIDE CHANNEL, never part of the deterministic
///    record set: one appended line per freshly computed cell with its
///    wall time (first trial start to the cell's reduce) and trial
///    throughput, so campaign runs feed the perf trajectory the way
///    bench_micro_engine's BENCH_*.json does. Cells' trials overlap on the
///    pool, so the cells' wall_ms no longer sum to the run's wall time.
///    Determinism diffs (CI, tests) must never include this file.
///
/// Sharding: `shard_index/shard_count` restricts a run to cells with
/// `index % shard_count == shard_index`. Shards write to separate
/// directories; concatenating their manifests into one directory and
/// re-running unsharded reuses every line and emits the full artifacts
/// without recomputing anything — the plug-in point for distributed cells.

namespace rrb::exp {

/// Execution knobs. None of these affect the recorded numbers.
struct CampaignConfig {
  /// The one worker pool. Every (cell, trial) pair still to compute is
  /// queued on it in cell order, then trial order, and a claim takes one
  /// pair. Cells overlap, but they are reduced in trial order and
  /// committed in cell order, so the artifacts — the manifest included —
  /// are byte-identical for every thread count. Threads default via
  /// $RRB_THREADS.
  RunnerConfig runner;

  int shard_index = 0;
  int shard_count = 1;

  /// Artifact directory (created if missing). Empty = in-memory run: no
  /// files are read or written.
  std::string out_dir;
};

/// A completed cell with its record.
struct CellResult {
  CampaignCell cell;
  JsonObject record;
  bool reused = false;  ///< satisfied from the manifest, not recomputed
};

/// Everything a run produced, in cell order (this shard's cells only).
struct CampaignOutcome {
  std::vector<CellResult> cells;
  std::size_t total_cells = 0;  ///< full grid size, across all shards
  std::size_t computed = 0;
  std::size_t reused = 0;
  std::string manifest_path;      ///< empty for in-memory runs
  std::string results_json_path;  ///< empty for in-memory runs
  std::string results_csv_path;   ///< empty for in-memory runs
  std::string meta_path;          ///< empty for in-memory runs
  std::string timing_path;        ///< wall-time side channel; empty for
                                  ///< in-memory runs (see timing.jsonl above)
};

/// Streamed per-cell completion callback. Invoked always in cell order
/// (reused cells in their place), after the cell's journal and timing
/// lines have been flushed. Throwing aborts the run: no further cell is
/// committed, and committed cells stay in the journal, so a later run
/// resumes where this one stopped.
using CellProgress = std::function<void(const CellResult&)>;

class CampaignRunner {
 public:
  /// Expands the spec (throws std::runtime_error on invalid specs or
  /// config, e.g. a bad shard split).
  explicit CampaignRunner(CampaignSpec spec, CampaignConfig config = {});

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<CampaignCell>& cells() const {
    return cells_;
  }

  /// Execute (or resume) the campaign and write the artifacts.
  CampaignOutcome run(const CellProgress& progress = {});

  /// Execute one cell: the run() scheduler over this cell alone — `trials`
  /// runs under the seeding contract, reduced in trial order into a
  /// deterministic record. Pure in (spec, cell); `trial_runner` only
  /// schedules.
  [[nodiscard]] static JsonObject run_cell(const CampaignSpec& spec,
                                           const CampaignCell& cell,
                                           const RunnerConfig& trial_runner);

 private:
  CampaignSpec spec_;
  CampaignConfig config_;
  std::vector<CampaignCell> cells_;
};

}  // namespace rrb::exp
