#pragma once

/// \file bench.hpp
/// Shared plumbing of the perfbench harness: options, the metric sink, the
/// correctness tally, clocks, and the workload/layer entry points.
///
/// The harness links the library and calls only its public headers; every
/// number it reports is measured around those calls from this directory's
/// code (or summarised from the spans the library already emits).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/exp/spec.hpp"
#include "rrb/phonecall/result.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";  ///< scratch artifacts
  std::string spec_dir = "perfbench/specs";              ///< frozen specs
  int threads = 4;  ///< min(4, hardware threads); resolved in main
};

/// Ordered name -> (value, unit) sink; the final JSON line prints it.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Correctness bookkeeping: every checked item counts as attempted; every
/// item that breaks a check (or throws) counts as failed and is described.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Record `items` checked items; when !ok, all of them failed.
  void check(bool ok, std::uint64_t items, const std::string& what);
};

/// Exact work counts: pure functions of the seed, so two runs with the same
/// seed must agree to the last unit.
struct ExactCounts {
  std::uint64_t node_rounds = 0;    ///< sum over trials of n * rounds
  std::uint64_t transmissions = 0;  ///< sum over trials of total_tx()
  std::uint64_t edges = 0;          ///< edges of the graphs the counts cover
};

/// Field-by-field RunResult equality (per-round stats included).
[[nodiscard]] bool same_result(const rrb::RunResult& a,
                               const rrb::RunResult& b);

/// Fold one trial's RunResult into node-round / transmission counts.
void add_run(ExactCounts& counts, const rrb::RunResult& run);

/// The five schemes the phone-call layer is measured on, with metric-safe
/// names (no '/').
struct SchemeCase {
  const char* name;  ///< metric-name spelling
  rrb::BroadcastScheme scheme;
};
[[nodiscard]] const std::vector<SchemeCase>& scheme_cases();

/// Peak RSS (VmHWM) in MB, and a reset of it (Linux clear_refs "5"), so a
/// phase's own peak can be read in-process. reset returns false when the
/// kernel refuses.
[[nodiscard]] double peak_rss_mb();
bool reset_peak_rss();

/// System-wide CPU ticks from /proc/stat. On a shared virtual machine the
/// host takes CPU away from busy vCPUs at times ("steal"), which inflates
/// every wall time by the stolen share; timings are reported net of it.
struct CpuTicks {
  std::uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// busy / (busy + steal) between two readings: the share of wanted CPU time
/// the host actually gave. 1 without steal or without readable ticks.
[[nodiscard]] double unstolen_share(const CpuTicks& from, const CpuTicks& to);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// One metric of the catalogue BENCHMARK.json lists.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool per_layer = false;
  bool higher_is_better = false;
};
/// Every metric the harness can print, end-to-end first. The traced run
/// prints exactly the per-layer ones, the plain run exactly the others.
[[nodiscard]] const std::vector<MetricSpec>& metric_catalog();

/// Run one workload end to end: set-up, warm-up, the timed closed loop,
/// correctness checks; with opts.trace also the traced pass and the layer
/// probes. Fills `metrics` and `tally`; prints report lines on stdout.
void run_workload(const Options& opts, Metrics& metrics, Tally& tally);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The campaign-grid specs (e1_smalld, e8_protocol_comparison, e13_churn)
/// from opts.spec_dir, campaign seed i derived from the run's seed.
[[nodiscard]] std::vector<rrb::exp::CampaignSpec> load_grid_specs(
    const Options& opts);

/// The workload-independent layer probes of the traced run (layers.cpp).
void probe_layers(const Options& opts, Metrics& metrics, Tally& tally);

}  // namespace perfbench
