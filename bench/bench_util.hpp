#pragma once

/// Shared helpers for the experiment harness binaries (bench_e*, bench_x*,
/// bench_micro_engine) and rrb_campaign. Every bench binary runs
/// argument-free with laptop-scale defaults and prints paper-style tables;
/// experiments whose table is one row per campaign cell are specs with a
/// `report =` line instead (bench/campaigns/).
///
/// Besides the tables, every bench can emit a machine-readable
/// BENCH_<name>.json (see BenchReport below) so the repo accumulates a
/// bench trajectory across PRs: wall time, thread count, git revision and
/// whatever per-case metrics the bench adds.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rrb/analysis/fit.hpp"
#include "rrb/common/math.hpp"
#include "rrb/common/table.hpp"
#include "rrb/exp/artifact.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/protocols/throttled.hpp"
#include "rrb/sim/runner.hpp"
#include "rrb/sim/trace.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"

// Git revision baked in by bench/CMakeLists.txt (git describe --always).
#ifndef RRB_GIT_DESCRIBE
#define RRB_GIT_DESCRIBE "unknown"
#endif

// Absolute path of bench/campaigns/, baked in so the migrated experiment
// binaries find their declarative specs whatever the working directory is.
#ifndef RRB_CAMPAIGN_DIR
#define RRB_CAMPAIGN_DIR "bench/campaigns"
#endif

namespace rrb::bench {

/// Path of a committed campaign spec, e.g. campaign_path("e1_smalld").
inline std::string campaign_path(const std::string& stem) {
  return std::string(RRB_CAMPAIGN_DIR) + "/" + stem + ".campaign";
}

/// Numeric field of a campaign cell record; throws naming the key when the
/// record lacks it (a migrated bench asking for a metric its spec's
/// execution path does not produce is a harness bug, not data).
inline double record_number(const rrb::exp::JsonObject& record,
                            const char* key) {
  const auto value = record.find_number(key);
  if (!value)
    throw std::logic_error(std::string("campaign record lacks ") + key);
  return *value;
}

/// First record in `cells` matching `pred(cell)`; throws if absent. The
/// migrated bench drivers use this to look cells up by axis values.
template <typename Predicate>
const rrb::exp::JsonObject& find_record(
    const std::vector<rrb::exp::CellResult>& cells, Predicate&& pred) {
  for (const rrb::exp::CellResult& cell : cells)
    if (pred(cell.cell)) return cell.record;
  throw std::logic_error("campaign is missing an expected cell");
}

/// Worker threads the default RunnerConfig resolves to — what every
/// run_trials/trace_set_sizes call in the benches will use unless a bench
/// overrides TrialConfig::runner. RRB_THREADS=1 gives the sequential
/// baseline for speedup comparisons; outputs are identical either way.
inline int report_threads() {
  return ParallelRunner::resolve_threads(RunnerConfig{});
}

/// Header printed by every experiment binary.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "=====================================================\n"
            << id << "\n"
            << claim << "\n"
            << "threads: " << report_threads()
            << " (override with RRB_THREADS; results are thread-count"
               " independent)\n"
            << "=====================================================\n";
}

// ---- Machine-readable bench trajectory ------------------------------------

/// Flat JSON record — the shared serialisation type from the campaign
/// subsystem's artifact layer (rrb/exp/artifact.hpp), so benches and
/// campaigns escape and format through one code path.
using JsonObject = rrb::exp::JsonObject;

/// Accumulates a bench's machine-readable results and writes
/// `BENCH_<name>.json` (into $RRB_BENCH_JSON_DIR, default the working
/// directory) when write() is called — alongside, never instead of, the
/// human-readable tables. A thin wrapper over rrb::exp::BenchReport that
/// bakes in the git revision and the resolved thread count, so trajectory
/// files from different PRs are comparable.
class BenchReport : public rrb::exp::BenchReport {
 public:
  /// `threads` defaults to the automatic pool size; a driver with its own
  /// --threads flag passes the count it resolved.
  explicit BenchReport(std::string name, int threads = report_threads())
      : rrb::exp::BenchReport(std::move(name), RRB_GIT_DESCRIBE, threads) {}

  /// Add a top-level scalar (e.g. a fitted slope). Re-declared so the
  /// builder keeps returning the bench-side type.
  template <typename T>
  BenchReport& set(const std::string& key, T value) {
    rrb::exp::BenchReport::set(key, value);
    return *this;
  }

  /// Write BENCH_<name>.json, stamping the process peak RSS first so every
  /// trajectory file carries a memory data point next to its wall time
  /// (tools/bench-diff compares both).
  std::string write() {
    set("peak_rss_bytes",
        static_cast<std::uint64_t>(telemetry::peak_rss_bytes()));
    return rrb::exp::BenchReport::write();
  }
};

/// Scoped bench phase: records `phase_<name>_ms` on the report at scope
/// exit, and emits a telemetry span (category "bench") when tracing is
/// enabled — so the coarse phase structure lands in the BENCH_*.json
/// trajectory always, and in the Chrome trace when one is taken.
class Phase {
 public:
  Phase(BenchReport& report, std::string name)
      : report_(report),
        name_(std::move(name)),
        span_("bench", name_),
        begin_us_(telemetry::now_us()) {}
  ~Phase() {
    report_.set(
        "phase_" + name_ + "_ms",
        static_cast<double>(telemetry::now_us() - begin_us_) / 1000.0);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  BenchReport& report_;
  std::string name_;
  telemetry::Span span_;
  std::int64_t begin_us_;
};

// ---- Factories -------------------------------------------------------------

inline GraphFactory regular_graph(NodeId n, NodeId d) {
  return [n, d](Rng& rng) { return random_regular_simple(n, d, rng); };
}

inline ProtocolFactory four_choice_protocol(std::uint64_t n_estimate,
                                            double alpha = 1.5) {
  return [n_estimate, alpha](const Graph&) {
    FourChoiceConfig cfg;
    cfg.n_estimate = n_estimate;
    cfg.alpha = alpha;
    return make_protocol<FourChoiceBroadcast>(cfg);
  };
}

inline ProtocolFactory push_pull_protocol() {
  return [](const Graph&) { return make_protocol<PushPullProtocol>(); };
}

/// Print a proportional-fit line "<label>: y ≈ a*x, R² = r".
inline void print_fit(const std::string& label,
                      const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  const ProportionalFit fit = fit_proportional(xs, ys);
  std::cout << label << ": slope " << fit.slope << ", R^2 " << fit.r2
            << "\n";
}

}  // namespace rrb::bench
