/// perfbench — the repository benchmark harness.
///
///   rrb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--work-dir <dir>] [--spec-dir <dir>]
///   rrb_perfbench --list-metrics     # the metric catalogue as JSON lines
///   rrb_perfbench --selftest         # in-process checks of the checkers
///
/// Prints human-readable report lines, then as its LAST stdout line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics, or with --trace 1 the per-layer ones. Exits 1 when any
/// correctness check failed, 2 on a usage error.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "rrb/telemetry/telemetry.hpp"
#include "spans.hpp"

namespace perfbench {

void Metrics::set(std::string name, double value, std::string unit) {
  for (Entry& entry : entries_)
    if (entry.name == name) {
      entry.value = value;
      entry.unit = std::move(unit);
      return;
    }
  entries_.push_back({std::move(name), value, std::move(unit)});
}

void Tally::check(bool ok, std::uint64_t items, const std::string& what) {
  attempted += items;
  if (ok) return;
  failed += items;
  if (failures.size() < 20) failures.push_back(what);
}

bool same_result(const rrb::RunResult& a, const rrb::RunResult& b) {
  if (a.n != b.n || a.alive_at_end != b.alive_at_end ||
      a.all_informed != b.all_informed || a.rounds != b.rounds ||
      a.completion_round != b.completion_round || a.push_tx != b.push_tx ||
      a.pull_tx != b.pull_tx || a.channels_opened != b.channels_opened ||
      a.channels_failed != b.channels_failed ||
      a.final_informed != b.final_informed ||
      a.per_round.size() != b.per_round.size())
    return false;
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    const rrb::RoundStats& x = a.per_round[i];
    const rrb::RoundStats& y = b.per_round[i];
    if (x.t != y.t || x.informed != y.informed ||
        x.newly_informed != y.newly_informed || x.push_tx != y.push_tx ||
        x.pull_tx != y.pull_tx || x.channels_opened != y.channels_opened ||
        x.channels_failed != y.channels_failed ||
        x.transmitting_nodes != y.transmitting_nodes)
      return false;
  }
  return true;
}

void add_run(ExactCounts& counts, const rrb::RunResult& run) {
  counts.node_rounds += static_cast<std::uint64_t>(run.n) *
                        static_cast<std::uint64_t>(run.rounds);
  counts.transmissions += static_cast<std::uint64_t>(run.total_tx());
}

const std::vector<SchemeCase>& scheme_cases() {
  using rrb::BroadcastScheme;
  static const std::vector<SchemeCase> cases = {
      {"push", BroadcastScheme::kPush},
      {"push-pull", BroadcastScheme::kPushPull},
      {"four-choice", BroadcastScheme::kFourChoice},
      {"median-counter", BroadcastScheme::kMedianCounter},
      {"sequentialised", BroadcastScheme::kSequentialised},
  };
  return cases;
}

double peak_rss_mb() {
  return static_cast<double>(rrb::telemetry::peak_rss_bytes()) / 1e6;
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back so the new peak starts low
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal;
  if (!stat || label != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

double unstolen_share(const CpuTicks& from, const CpuTicks& to) {
  const double busy = static_cast<double>(to.busy - from.busy);
  const double steal = static_cast<double>(to.steal - from.steal);
  return busy + steal > 0.0 ? busy / (busy + steal) : 1.0;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = [] {
    constexpr bool kHigher = true;
    constexpr bool kLower = false;
    std::vector<MetricSpec> out = {
        {"trials_per_s", "1/s", false, kHigher},
        {"setup_s", "s", false, kLower},
        {"peak_rss_mb", "MB", false, kLower},
    };
    const auto layer = [&](std::string name, const char* unit, bool higher) {
      out.push_back({std::move(name), unit, true, higher});
    };
    layer("telemetry.overhead", "ratio", kLower);
    layer("layers.attributed_share", "ratio", kHigher);
    // Exact work counts: they must never move; less work would be better.
    layer("phonecall.node_rounds", "count", kLower);
    layer("phonecall.transmissions", "count", kLower);
    layer("graph.edges", "count", kLower);
    layer("graph.gen_ms", "ms", kLower);
    layer("graph.gen_share", "ratio", kLower);
    layer("sim.parallel_efficiency", "ratio", kHigher);
    layer("sim.chunk_busy_share", "ratio", kHigher);
    layer("bigtopo.ns_per_slot", "ns", kLower);
    layer("bigtopo.fill_ms", "ms", kLower);
    layer("bigtopo.sort_ms", "ms", kLower);
    layer("bigtopo.bytes_per_node", "B", kLower);
    for (const SchemeCase& s : scheme_cases()) {
      const std::string name = s.name;
      layer("phonecall.seq.trials_per_s." + name, "1/s", kHigher);
      layer("phonecall.batched.trials_per_s." + name, "1/s", kHigher);
      layer("phonecall.batched_speedup." + name, "ratio", kHigher);
      layer("phonecall.batched.peak_rss_mb." + name, "MB", kLower);
      layer("core.adapter_slowdown." + name, "ratio", kLower);
    }
    for (const char* name : {"exp.spec_expand_ms", "exp.cell_ms_p50",
                             "exp.cell_ms_max", "exp.finalize_ms",
                             "p2p.overlay_build_ms"})
      layer(name, "ms", kLower);
    layer("p2p.churn_hook_share", "ratio", kLower);
    for (const TrackedSpan& span : tracked_spans()) {
      const std::string stem = span.metric;
      layer(stem + ".count", "count", kLower);
      layer(stem + ".total_ms", "ms", kLower);
      layer(stem + ".self_ms", "ms", kLower);
    }
    return out;
  }();
  return catalog;
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The final line: exactly the catalogue's metrics for this mode, in
/// catalogue order. A metric the run failed to produce is a failure.
std::string result_line(bool trace, const Metrics& metrics, Tally& tally) {
  std::string body;
  for (const MetricSpec& spec : metric_catalog()) {
    if (spec.per_layer != trace) continue;
    const Metrics::Entry* found = nullptr;
    for (const Metrics::Entry& entry : metrics.entries())
      if (entry.name == spec.name) found = &entry;
    const bool ok = found != nullptr && std::isfinite(found->value);
    tally.check(ok, ok ? 0 : 1, "metric " + spec.name + " missing or not finite");
    if (found == nullptr) continue;
    if (!body.empty()) body += ", ";
    body += "\"" + spec.name + "\": {\"value\": " + json_number(found->value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  const bool correct = tally.failures.empty();
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(tally.attempted) +
         ", \"failed\": " + std::to_string(tally.failed) +
         ", \"metrics\": {" + body + "}}";
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  rrb::RunResult a;
  a.n = 64;
  a.alive_at_end = 64;
  a.all_informed = true;
  a.rounds = 9;
  a.completion_round = 9;
  a.push_tx = 300;
  a.pull_tx = 20;
  a.final_informed = 64;
  a.per_round.resize(2);
  rrb::RunResult b = a;
  expect(same_result(a, b), "identical results match");
  b.pull_tx += 1;
  expect(!same_result(a, b), "a changed transmission count is a mismatch");
  b = a;
  b.per_round[1].newly_informed = 5;
  expect(!same_result(a, b), "a changed per-round stat is a mismatch");

  Tally tally;
  tally.check(same_result(a, b), 3, "mismatched spot-check");
  expect(tally.failed == 3 && tally.attempted == 3,
         "a mismatched spot-check counts every item as failed");
  Metrics metrics;
  for (const MetricSpec& spec : metric_catalog())
    if (!spec.per_layer) metrics.set(spec.name, 1.0, spec.unit);
  const std::string line = result_line(false, metrics, tally);
  expect(line.find("\"correct\": false") != std::string::npos,
         "a failed check makes the result incorrect");

  ExactCounts c1;
  add_run(c1, a);
  expect(c1.node_rounds == 64U * 9U && c1.transmissions == 320U,
         "exact counts fold n*rounds and total transmissions");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0}) == 2.5,
         "median of odd and even samples");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: rrb_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>] [--spec-dir <dir>]\n"
               "       rrb_perfbench --list-metrics | --selftest\n"
               "workloads:");
  for (const std::string& name : workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--list-metrics") {
        for (const MetricSpec& spec : metric_catalog())
          std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                      "\"%s\", \"per_layer\": %s}\n",
                      spec.name.c_str(), spec.unit.c_str(),
                      spec.higher_is_better ? "higher" : "lower",
                      spec.per_layer ? "true" : "false");
        return 0;
      }
      if (flag == "--selftest") return selftest();
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        opts.seed = std::stoull(value, &used, 0);
        if (used != value.size()) throw std::invalid_argument("bad --seed");
        have_seed = true;
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
        if (!(opts.seconds > 0.0)) throw std::invalid_argument("bad --seconds");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1")
          throw std::invalid_argument("--trace takes 0 or 1");
        opts.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
      } else if (flag == "--spec-dir") {
        opts.spec_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    const auto& names = workload_names();
    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        std::find(names.begin(), names.end(), opts.workload) == names.end())
      throw std::invalid_argument("missing or unknown argument");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrb_perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  opts.threads = static_cast<int>(std::clamp(hw, 1U, 4U));

  Metrics metrics;
  Tally tally;
  try {
    run_workload(opts, metrics, tally);
    if (opts.trace) probe_layers(opts, metrics, tally);
  } catch (const std::exception& e) {
    tally.check(false, 1, std::string("exception: ") + e.what());
  }
  for (const std::string& failure : tally.failures)
    std::printf("FAILED: %s\n", failure.c_str());
  const std::string line = result_line(opts.trace, metrics, tally);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return tally.failures.empty() ? 0 : 1;
}
