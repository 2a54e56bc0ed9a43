/// The three workloads. Each is a closed loop of identical units (one
/// sweep or one campaign pass, same seed every time) run back to back from
/// one process: unit 1 is the warm-up and fixes the reference outputs, and
/// every later unit must reproduce them exactly — which is also how exact
/// work counts are proven to repeat.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace telemetry = rrb::telemetry;

[[nodiscard]] bool is_classic(rrb::BroadcastScheme scheme) {
  return scheme == rrb::BroadcastScheme::kPush ||
         scheme == rrb::BroadcastScheme::kPushPull;
}

/// Oracle-terminated push and push-pull must inform every node.
[[nodiscard]] bool informs_all(const rrb::RunResult& run) {
  return run.all_informed && run.final_informed == run.n;
}

[[nodiscard]] bool is_regular(const rrb::Graph& graph, rrb::NodeId n,
                              rrb::NodeId d) {
  if (graph.num_nodes() != n) return false;
  for (rrb::NodeId v = 0; v < n; ++v)
    if (graph.degree(v) != d) return false;
  return true;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-ups per plain run; setup_s is their median.
  [[nodiscard]] virtual int setup_reps() const = 0;
  /// Build the workload's input from scratch (graph, or specs + cells).
  virtual void setup(Tally& tally) = 0;
  /// One unit of closed-loop work at `threads`; returns trials completed.
  /// The first unit records the reference outputs, later units must match.
  virtual std::uint64_t run_unit(int threads, Tally& tally) = 0;
  /// Correctness checks outside the timed region.
  virtual void spot_checks(Tally& tally) = 0;
  [[nodiscard]] virtual ExactCounts counts() const = 0;
  /// graph.* and bigtopo.* for the traced run. `setup_s` is one set-up,
  /// `unit_t1_s` one unit at threads 1.
  virtual void graph_metrics(Metrics& metrics, double setup_s,
                             double unit_t1_s, Tally& tally) = 0;
  /// Forget per-unit timings (after the warm-up unit).
  virtual void reset_timings() {}
  /// Extra report lines after the timed loop (per-scheme rates).
  virtual void report(double /*timed_s*/) const {}
};

/// bigtopo.* from one traced chunked_configuration_model(n, d) build: its
/// own fill/sort spans, time per adjacency slot, and peak-RSS growth per
/// node. Also checks that the result is d-regular.
void bigtopo_metrics(Metrics& metrics, rrb::NodeId n, rrb::NodeId d,
                     std::uint64_t seed, Tally& tally) {
  reset_peak_rss();
  const auto rss_before =
      static_cast<double>(telemetry::current_rss_bytes());
  rrb::bigtopo::ChunkedParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  telemetry::enable(true);
  const auto start = Clock::now();
  std::optional<rrb::Graph> graph =
      rrb::bigtopo::chunked_configuration_model(params);
  const double seconds = seconds_since(start);
  const auto peak = static_cast<double>(telemetry::peak_rss_bytes());
  telemetry::enable(false);
  const SpanSummary spans = summarise_spans(telemetry::drain());
  tally.check(is_regular(*graph, n, d), 1,
              "bigtopo probe graph is not d-regular");
  graph.reset();

  const auto span_ms = [&](const char* key) {
    const auto found = spans.by_key.find(key);
    return found == spans.by_key.end() ? 0.0 : found->second.total_ms;
  };
  metrics.set("bigtopo.ns_per_slot",
              seconds * 1e9 /
                  (static_cast<double>(n) * static_cast<double>(d)),
              "ns");
  metrics.set("bigtopo.fill_ms", span_ms("bigtopo/config-model/fill"), "ms");
  metrics.set("bigtopo.sort_ms", span_ms("bigtopo/config-model/sort"), "ms");
  metrics.set("bigtopo.bytes_per_node",
              std::max(0.0, peak - rss_before) / static_cast<double>(n), "B");
  std::printf("bigtopo n=%u d=%u: %.1f ms (fill %.1f, sort %.1f)\n", n, d,
              seconds * 1e3, span_ms("bigtopo/config-model/fill"),
              span_ms("bigtopo/config-model/sort"));
}

// ---------------------------------------------------------------------------
// Fixed-graph sweeps: fixed-graph-sweep and large-n-push.

struct SweepEntry {
  SchemeCase scheme;
  int trials = 0;
  int batch = 0;
};

class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, rrb::NodeId n, rrb::NodeId d,
                std::vector<SweepEntry> entries, int spot_trials)
      : seed_(seed),
        n_(n),
        d_(d),
        entries_(std::move(entries)),
        spot_trials_(spot_trials),
        reference_(entries_.size()),
        seconds_(entries_.size(), 0.0) {}

  std::uint64_t run_unit(int threads, Tally& tally) override {
    std::uint64_t trials = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const SweepEntry& entry = entries_[i];
      rrb::BroadcastOptions options = options_for(i);
      options.trials = entry.trials;
      options.runner.threads = threads;
      options.runner.batch = entry.batch;
      const auto start = Clock::now();
      rrb::TrialOutcome out;
      {
        const telemetry::Span span("perfbench", "sim");
        out = rrb::broadcast_trials(*graph_, options);
      }
      seconds_[i] += seconds_since(start);
      check_runs(i, out.runs, tally);
      trials += static_cast<std::uint64_t>(entry.trials);
    }
    ++units_;
    return trials;
  }

  void spot_checks(Tally& tally) override {
    // The sequential engine (batch 0, threads 1) is the reference path the
    // batched kernels must reproduce bit for bit.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      rrb::BroadcastOptions options = options_for(i);
      options.trials = std::min(spot_trials_, entries_[i].trials);
      options.runner.threads = 1;
      options.runner.batch = 0;
      const rrb::TrialOutcome out = rrb::broadcast_trials(*graph_, options);
      for (std::size_t t = 0; t < out.runs.size(); ++t)
        tally.check(t < reference_[i].size() &&
                        same_result(out.runs[t], reference_[i][t]),
                    1,
                    std::string("sequential spot-check differs: ") +
                        entries_[i].scheme.name + " trial " +
                        std::to_string(t));
    }
  }

  ExactCounts counts() const override {
    ExactCounts counts;
    for (const std::vector<rrb::RunResult>& runs : reference_)
      for (const rrb::RunResult& run : runs) add_run(counts, run);
    counts.edges = edges_;
    return counts;
  }

  void reset_timings() override {
    std::fill(seconds_.begin(), seconds_.end(), 0.0);
    units_ = 0;
  }

  void report(double timed_s) const override {
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::printf("  %-16s %4d trials x %d units, batch %2d: %9.3f trials/s "
                  "(%.1f%% of the timed wall)\n",
                  entries_[i].scheme.name, entries_[i].trials, units_,
                  entries_[i].batch,
                  seconds_[i] > 0.0 ? entries_[i].trials * units_ / seconds_[i]
                                    : 0.0,
                  timed_s > 0.0 ? 100.0 * seconds_[i] / timed_s : 0.0);
  }

  void graph_metrics(Metrics& metrics, double setup_s, double unit_t1_s,
                     Tally& tally) override {
    // One graph serves every unit: its share is against one unit of use.
    metrics.set("graph.gen_ms", setup_s * 1e3, "ms");
    metrics.set("graph.gen_share", setup_s / (setup_s + unit_t1_s), "ratio");
    bigtopo_metrics(metrics, n_, d_, rrb::derive_seed(seed_, 1), tally);
  }

 protected:
  [[nodiscard]] rrb::BroadcastOptions options_for(std::size_t i) const {
    rrb::BroadcastOptions options;
    options.scheme = entries_[i].scheme.scheme;
    options.seed = rrb::derive_seed(seed_, 100 + i);
    return options;
  }

  void check_runs(std::size_t i, const std::vector<rrb::RunResult>& runs,
                  Tally& tally) {
    const bool classic = is_classic(entries_[i].scheme.scheme);
    if (reference_[i].empty()) {
      reference_[i] = runs;
      for (const rrb::RunResult& run : runs)
        tally.check(!classic || informs_all(run), 1,
                    std::string(entries_[i].scheme.name) +
                        " trial left nodes uninformed");
      return;
    }
    for (std::size_t t = 0; t < runs.size(); ++t)
      tally.check(t < reference_[i].size() &&
                      same_result(runs[t], reference_[i][t]),
                  1,
                  std::string(entries_[i].scheme.name) + " trial " +
                      std::to_string(t) + " differs from the first unit");
  }

  std::uint64_t seed_;
  rrb::NodeId n_;
  rrb::NodeId d_;
  std::vector<SweepEntry> entries_;
  int spot_trials_;
  std::optional<rrb::Graph> graph_;
  std::uint64_t edges_ = 0;
  std::vector<std::vector<rrb::RunResult>> reference_;
  std::vector<double> seconds_;
  int units_ = 0;
};

/// fixed-graph-sweep: one random_regular_simple G(2^16, 8), then the five
/// schemes batched at threads 4. Trial counts give the classic (push,
/// push-pull), bitmask (four-choice) and general (median-counter,
/// sequentialised) kernels comparable shares of the wall time; each batch
/// is a quarter of its scheme's trials, so every scheme splits into four
/// lockstep groups — one per worker.
class FixedGraphSweep final : public SweepWorkload {
 public:
  explicit FixedGraphSweep(std::uint64_t seed)
      : SweepWorkload(seed, 1U << 16, 8,
                      {{scheme_cases()[0], 128, 32},
                       {scheme_cases()[1], 128, 32},
                       {scheme_cases()[2], 16, 4},
                       {scheme_cases()[3], 8, 2},
                       {scheme_cases()[4], 4, 1}},
                      2) {}

  int setup_reps() const override { return 5; }

  void setup(Tally&) override {
    graph_.reset();
    rrb::Rng rng(rrb::derive_seed(seed_, 0));
    const telemetry::Span span("perfbench", "graph");
    graph_ = rrb::random_regular_simple(n_, d_, rng);
    edges_ = static_cast<std::uint64_t>(graph_->num_edges());
  }
};

/// large-n-push: bigtopo::chunked_configuration_model at n = 2^19,
/// d = 19 = log2 n (E18's density point, scaled so three set-ups per run
/// fit the run budget), then push and push-pull batched across all workers.
class LargeNPush final : public SweepWorkload {
 public:
  explicit LargeNPush(std::uint64_t seed)
      : SweepWorkload(seed, 1U << 19, 19,
                      {{scheme_cases()[0], 16, 4}, {scheme_cases()[1], 16, 4}},
                      1) {}

  int setup_reps() const override { return 3; }

  void setup(Tally& tally) override {
    graph_.reset();  // never hold two CSRs at once
    rrb::bigtopo::ChunkedParams params;
    params.n = n_;
    params.d = d_;
    params.seed = rrb::derive_seed(seed_, 0);
    {
      const telemetry::Span span("perfbench", "bigtopo");
      graph_ = rrb::bigtopo::chunked_configuration_model(params);
    }
    edges_ = static_cast<std::uint64_t>(graph_->num_edges());
    tally.check(is_regular(*graph_, n_, d_), 1,
                "large-n graph has a vertex of degree != d");
  }

  void graph_metrics(Metrics& metrics, double setup_s, double unit_t1_s,
                     Tally& tally) override {
    graph_.reset();  // the probe rebuilds the same graph, traced
    metrics.set("graph.gen_ms", setup_s * 1e3, "ms");
    metrics.set("graph.gen_share", setup_s / (setup_s + unit_t1_s), "ratio");
    bigtopo_metrics(metrics, n_, d_, rrb::derive_seed(seed_, 0), tally);
  }
};

// ---------------------------------------------------------------------------
// campaign-grid: CampaignRunner::run over three frozen specs.

class CampaignGrid final : public Workload {
 public:
  explicit CampaignGrid(const Options& opts) : opts_(opts) {}

  // Sub-millisecond each: many reps keep the median off timer noise.
  int setup_reps() const override { return 201; }

  void setup(Tally&) override {
    cells_.clear();
    const telemetry::Span span("perfbench", "exp");
    specs_ = load_grid_specs(opts_);
    for (const rrb::exp::CampaignSpec& spec : specs_)
      cells_.push_back(rrb::exp::CampaignRunner(spec).cells());
  }

  std::uint64_t run_unit(int threads, Tally& tally) override {
    std::uint64_t trials = 0;
    const bool first = reference_.empty();
    if (first) reference_.resize(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const rrb::exp::CampaignSpec& spec = specs_[i];
      const std::string dir = opts_.work_dir + "/campaign-" + spec.name;
      fs::remove_all(dir);
      rrb::exp::CampaignConfig config;
      config.runner.threads = threads;
      config.out_dir = dir;
      rrb::exp::CampaignOutcome outcome;
      {
        const telemetry::Span span("perfbench", "exp");
        rrb::exp::CampaignRunner runner(spec, config);
        outcome = runner.run();
      }
      fs::remove_all(dir);
      tally.check(outcome.cells.size() == cells_[i].size() &&
                      outcome.computed == cells_[i].size(),
                  1, spec.name + ": cells missing or reused");
      const auto spec_trials = static_cast<std::uint64_t>(spec.trials);
      for (std::size_t c = 0; c < outcome.cells.size(); ++c) {
        const rrb::exp::CellResult& result = outcome.cells[c];
        trials += spec_trials;
        if (first) {
          reference_[i].push_back(result.record);
          const double rate =
              result.record.find_number("completion_rate").value_or(0.0);
          tally.check(!is_classic(result.cell.scheme) || rate == 1.0,
                      spec_trials,
                      result.cell.key +
                          ": a push/push-pull trial left nodes uninformed");
        } else {
          tally.check(
              c < reference_[i].size() &&
                  result.record.to_line() == reference_[i][c].to_line(),
              spec_trials,
              result.cell.key + ": record differs from the first pass");
        }
      }
    }
    return trials;
  }

  void spot_checks(Tally& tally) override {
    // Two cells recomputed alone at threads 1 must give byte-identical
    // records: e8's median-counter cell and e13's churn-16 cell.
    const auto recheck = [&](std::size_t spec, const auto& pick) {
      for (std::size_t c = 0; c < cells_[spec].size(); ++c) {
        if (!pick(cells_[spec][c])) continue;
        rrb::RunnerConfig one;
        one.threads = 1;
        const rrb::exp::JsonObject record =
            rrb::exp::CampaignRunner::run_cell(specs_[spec], cells_[spec][c],
                                               one);
        tally.check(c < reference_[spec].size() &&
                        record.to_line() == reference_[spec][c].to_line(),
                    static_cast<std::uint64_t>(specs_[spec].trials),
                    cells_[spec][c].key + ": run_cell at threads 1 differs");
        return;
      }
      tally.check(false, 1, specs_[spec].name + ": spot cell missing");
    };
    recheck(1, [](const rrb::exp::CampaignCell& cell) {
      return cell.scheme == rrb::BroadcastScheme::kMedianCounter;
    });
    recheck(2, [](const rrb::exp::CampaignCell& cell) {
      return cell.churn == 16.0;
    });
  }

  ExactCounts counts() const override {
    // Record means times trials give back the exact integer sums.
    ExactCounts counts;
    counts.edges = probe_edges_;
    for (std::size_t i = 0; i < reference_.size(); ++i)
      for (const rrb::exp::JsonObject& record : reference_[i]) {
        const double trials = static_cast<double>(specs_[i].trials);
        const double n = record.find_number("n").value_or(0.0);
        counts.node_rounds += static_cast<std::uint64_t>(std::llround(
            n * record.find_number("rounds_mean").value_or(0.0) * trials));
        counts.transmissions += static_cast<std::uint64_t>(std::llround(
            record.find_number("total_tx_mean").value_or(0.0) * trials));
      }
    return counts;
  }

  void graph_metrics(Metrics& metrics, double /*setup_s*/, double unit_t1_s,
                     Tally& tally) override {
    // Time one random_regular_simple graph per static (n, d) of the grid;
    // every trial of a static cell regenerates such a graph.
    double gen_s = 0.0;
    double graphs = 0.0;
    rrb::NodeId max_n = 0;
    rrb::NodeId max_d = 0;
    probe_edges_ = 0;
    std::vector<std::pair<std::pair<rrb::NodeId, rrb::NodeId>, double>> timed;
    for (std::size_t i = 0; i < specs_.size(); ++i)
      for (const rrb::exp::CampaignCell& cell : cells_[i]) {
        if (cell.overlay) continue;
        const auto key = std::make_pair(cell.n, cell.d);
        auto found = std::find_if(timed.begin(), timed.end(), [&](const auto& e) {
          return e.first == key;
        });
        if (found == timed.end()) {
          rrb::Rng rng(rrb::derive_seed(opts_.seed, 1000 + timed.size()));
          const auto start = Clock::now();
          const rrb::Graph graph =
              rrb::random_regular_simple(cell.n, cell.d, rng);
          timed.emplace_back(key, seconds_since(start));
          probe_edges_ += static_cast<std::uint64_t>(graph.num_edges());
          found = timed.end() - 1;
        }
        gen_s += found->second * specs_[i].trials;
        graphs += specs_[i].trials;
        if (cell.n > max_n) {
          max_n = cell.n;
          max_d = cell.d;
        }
      }
    metrics.set("graph.gen_ms", graphs > 0.0 ? gen_s * 1e3 / graphs : 0.0,
                "ms");
    metrics.set("graph.gen_share", unit_t1_s > 0.0 ? gen_s / unit_t1_s : 0.0,
                "ratio");
    bigtopo_metrics(metrics, max_n, max_d, rrb::derive_seed(opts_.seed, 1),
                    tally);
  }

 private:
  Options opts_;
  std::vector<rrb::exp::CampaignSpec> specs_;
  std::vector<std::vector<rrb::exp::CampaignCell>> cells_;
  std::vector<std::vector<rrb::exp::JsonObject>> reference_;
  std::uint64_t probe_edges_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "fixed-graph-sweep")
    return std::make_unique<FixedGraphSweep>(opts.seed);
  if (opts.workload == "campaign-grid")
    return std::make_unique<CampaignGrid>(opts);
  if (opts.workload == "large-n-push")
    return std::make_unique<LargeNPush>(opts.seed);
  throw std::invalid_argument("unknown workload " + opts.workload);
}

struct PassTiming {
  double wall_s = 0.0;
  std::uint64_t trials_per_unit = 0;  ///< every unit runs the same trials
  std::vector<double> unit_s;         ///< per unit, net of hypervisor steal

  [[nodiscard]] int units() const { return static_cast<int>(unit_s.size()); }
  /// Median unit: robust to a noise burst that slows a minority of units.
  [[nodiscard]] double median_unit_s() const { return median(unit_s); }
  [[nodiscard]] double trials_per_s() const {
    return static_cast<double>(trials_per_unit) / median_unit_s();
  }
};

/// Whole units back to back until at least `min_seconds` of wall time
/// have passed (at least one unit).
PassTiming timed_units(Workload& workload, int threads, double min_seconds,
                       Tally& tally) {
  PassTiming timing;
  const auto start = Clock::now();
  do {
    const CpuTicks ticks = read_cpu_ticks();
    const auto unit_start = Clock::now();
    timing.trials_per_unit = workload.run_unit(threads, tally);
    timing.unit_s.push_back(seconds_since(unit_start) *
                            unstolen_share(ticks, read_cpu_ticks()));
    timing.wall_s = seconds_since(start);
  } while (timing.wall_s < min_seconds);
  return timing;
}

/// `reps` timed set-ups; the median, net of steal over all of them.
double timed_setups(Workload& workload, int reps, Tally& tally) {
  std::vector<double> setups;
  const CpuTicks ticks = read_cpu_ticks();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    workload.setup(tally);
    setups.push_back(seconds_since(start));
  }
  const double share = unstolen_share(ticks, read_cpu_ticks());
  std::printf("setup: median wall %.6f s of %d, %.1f%% stolen\n",
              median(setups), reps, 100.0 * (1.0 - share));
  return median(setups) * share;
}

void set_span_metrics(Metrics& metrics, const SpanSummary& spans) {
  for (const TrackedSpan& tracked : tracked_spans()) {
    const auto found = spans.by_key.find(tracked.key);
    const SpanStat stat =
        found == spans.by_key.end() ? SpanStat{} : found->second;
    const std::string stem = tracked.metric;
    metrics.set(stem + ".count", static_cast<double>(stat.count), "count");
    metrics.set(stem + ".total_ms", stat.total_ms, "ms");
    metrics.set(stem + ".self_ms", stat.self_ms, "ms");
  }
  std::printf("spans of the traced pass (count, total ms, self ms):\n");
  for (const auto& [key, stat] : spans.by_key)
    std::printf("  %-34s %8llu %12.1f %12.1f\n", key.c_str(),
                static_cast<unsigned long long>(stat.count), stat.total_ms,
                stat.self_ms);
  std::printf("attributed to named layers: %.1f%% of the traced pass\n",
              100.0 * spans.attributed_share);
}

}  // namespace

std::vector<rrb::exp::CampaignSpec> load_grid_specs(const Options& opts) {
  std::vector<rrb::exp::CampaignSpec> specs;
  for (const char* name :
       {"e1_smalld", "e8_protocol_comparison", "e13_churn"}) {
    specs.push_back(
        rrb::exp::load_spec(opts.spec_dir + "/" + name + ".campaign"));
    specs.back().seed = rrb::derive_seed(opts.seed, specs.size() - 1);
  }
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fixed-graph-sweep", "campaign-grid", "large-n-push"};
  return names;
}

void run_workload(const Options& opts, Metrics& metrics, Tally& tally) {
  fs::create_directories(opts.work_dir);
  const std::unique_ptr<Workload> workload = make_workload(opts);
  std::printf("workload %s  seed %llu  threads %d  seconds %g  trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.threads,
              opts.seconds, opts.trace ? 1 : 0);

  // The first set-up feeds the warm-up unit: the first unit in a process
  // runs slow (allocator growth, page faults) and fixes the reference
  // outputs. Set-up is then timed on a warm process — each repeat rebuilds
  // the same input from the same seed, which later units re-check.
  workload->setup(tally);
  const auto warm_start = Clock::now();
  workload->run_unit(opts.threads, tally);
  std::printf("warm-up unit: %.3f s\n", seconds_since(warm_start));
  workload->reset_timings();
  const double setup_s =
      timed_setups(*workload, opts.trace ? 1 : workload->setup_reps(), tally);

  if (!opts.trace) {
    const PassTiming timed =
        timed_units(*workload, opts.threads, opts.seconds, tally);
    std::printf("timed: %d units of %llu trials in %.3f s wall; unit "
                "seconds net of steal:",
                timed.units(),
                static_cast<unsigned long long>(timed.trials_per_unit),
                timed.wall_s);
    for (const double s : timed.unit_s) std::printf(" %.3f", s);
    std::printf("\n");
    workload->report(timed.wall_s);
    workload->spot_checks(tally);
    metrics.set("trials_per_s", timed.trials_per_s(), "1/s");
    metrics.set("setup_s", setup_s, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Equal halves untraced and traced give telemetry.overhead; one unit
    // at threads 1 gives the parallel efficiency.
    const double half = opts.seconds / 2.0;
    const PassTiming plain = timed_units(*workload, opts.threads, half, tally);
    telemetry::enable(true);
    PassTiming traced;
    {
      const telemetry::Span pass("perfbench", "pass");
      traced = timed_units(*workload, opts.threads, half, tally);
    }
    telemetry::enable(false);
    const SpanSummary spans = summarise_spans(telemetry::drain());
    workload->report(plain.wall_s + traced.wall_s);
    const double unit_t1_s =
        timed_units(*workload, 1, 0.0, tally).median_unit_s();
    const double unit_s = plain.median_unit_s();
    workload->spot_checks(tally);

    metrics.set("telemetry.overhead", traced.median_unit_s() / unit_s - 1.0,
                "ratio");
    metrics.set("layers.attributed_share", spans.attributed_share, "ratio");
    metrics.set("sim.parallel_efficiency",
                unit_t1_s / (opts.threads * unit_s), "ratio");
    metrics.set("sim.chunk_busy_share", spans.chunk_busy_share, "ratio");
    std::printf("unit: %.3f s at threads %d, %.3f s at threads 1 (net of "
                "steal)\n",
                unit_s, opts.threads, unit_t1_s);
    set_span_metrics(metrics, spans);
    workload->graph_metrics(metrics, setup_s, unit_t1_s, tally);
  }

  const ExactCounts counts = workload->counts();
  metrics.set("phonecall.node_rounds", static_cast<double>(counts.node_rounds),
              "count");
  metrics.set("phonecall.transmissions",
              static_cast<double>(counts.transmissions), "count");
  metrics.set("graph.edges", static_cast<double>(counts.edges), "count");
  std::printf("exact: node_rounds=%llu transmissions=%llu edges=%llu\n",
              static_cast<unsigned long long>(counts.node_rounds),
              static_cast<unsigned long long>(counts.transmissions),
              static_cast<unsigned long long>(counts.edges));
  fs::remove_all(opts.work_dir);
}

}  // namespace perfbench
