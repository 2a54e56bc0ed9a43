/// Layer probes of the traced run. Each probe calls one module's public
/// functions on fixed inputs derived from the run's seed, so these numbers
/// mean the same thing in every workload's traced run:
///  - phonecall / core: the five schemes on G(2^16, 8) (the
///    fixed-graph-sweep point) — sequential engine, one lockstep batch,
///    and the type-erased run_trials path;
///  - exp: spec load + expansion and per-cell timing of the campaign grid;
///  - p2p: one e13 churn cell assembled by hand from DynamicOverlay,
///    ChurnDriver and PhoneCallEngine, cross-checked against run_cell.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/artifact.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/p2p/churn.hpp"
#include "rrb/p2p/overlay.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/aggregate.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace telemetry = rrb::telemetry;

/// Lanes of the lockstep probe per scheme, sized so each scheme's probe
/// takes about a second on the sequential engine.
int probe_batch(rrb::BroadcastScheme scheme) {
  switch (scheme) {
    case rrb::BroadcastScheme::kPush:
    case rrb::BroadcastScheme::kPushPull:
      return 32;
    case rrb::BroadcastScheme::kFourChoice:
      return 8;
    default:
      return 4;
  }
}

/// The batched kernel a traced lockstep run took, from its own span.
std::string kernel_of(const std::vector<telemetry::Event>& events) {
  for (const telemetry::Event& event : events)
    if (event.category == "batched") return event.name;
  return "none";
}

void probe_phonecall(const Options& opts, Metrics& metrics, Tally& tally) {
  rrb::Rng rng(rrb::derive_seed(opts.seed, 2));
  const rrb::Graph graph = rrb::random_regular_simple(1U << 16, 8, rng);
  std::printf("phonecall probe on G(2^16, 8), threads 1 "
              "(seq / batched / adapter trials/s):\n");
  for (const SchemeCase& scheme : scheme_cases()) {
    const std::string name = scheme.name;
    const int lanes = probe_batch(scheme.scheme);
    rrb::BroadcastOptions options;
    options.scheme = scheme.scheme;
    options.seed = rrb::derive_seed(opts.seed, 200);
    options.trials = lanes;
    options.runner.threads = 1;

    options.runner.batch = 0;
    auto start = Clock::now();
    const rrb::TrialOutcome seq = rrb::broadcast_trials(graph, options);
    const double seq_s = seconds_since(start);

    options.runner.batch = lanes;
    reset_peak_rss();
    telemetry::enable(true);
    start = Clock::now();
    const rrb::TrialOutcome batched = rrb::broadcast_trials(graph, options);
    const double batched_s = seconds_since(start);
    telemetry::enable(false);
    const double batched_rss = peak_rss_mb();
    const std::string kernel = kernel_of(telemetry::drain());

    rrb::TrialConfig config;
    config.trials = lanes;
    config.seed = options.seed;
    config.channel = rrb::make_scheme(graph, options).channel;
    config.runner.threads = 1;
    const rrb::ProtocolFactory factory = [options](const rrb::Graph& g) {
      return rrb::make_scheme(g, options).protocol;
    };
    start = Clock::now();
    const rrb::TrialOutcome adapter = rrb::run_trials(graph, factory, config);
    const double adapter_s = seconds_since(start);

    for (std::size_t t = 0; t < seq.runs.size(); ++t) {
      tally.check(t < batched.runs.size() &&
                      same_result(batched.runs[t], seq.runs[t]),
                  1, name + ": batched probe trial differs from sequential");
      tally.check(t < adapter.runs.size() &&
                      same_result(adapter.runs[t], seq.runs[t]),
                  1, name + ": adapter probe trial differs from static");
    }
    const double seq_rate = lanes / seq_s;
    const double batched_rate = lanes / batched_s;
    metrics.set("phonecall.seq.trials_per_s." + name, seq_rate, "1/s");
    metrics.set("phonecall.batched.trials_per_s." + name, batched_rate, "1/s");
    metrics.set("phonecall.batched_speedup." + name, batched_rate / seq_rate,
                "ratio");
    metrics.set("phonecall.batched.peak_rss_mb." + name, batched_rss, "MB");
    metrics.set("core.adapter_slowdown." + name, adapter_s / seq_s, "ratio");
    std::printf("  %-16s %2d lanes: %9.3f / %9.3f (%s, x%.2f, %.0f MB) / "
                "%9.3f (x%.3f slower)\n",
                scheme.name, lanes, seq_rate, batched_rate, kernel.c_str(),
                batched_rate / seq_rate, batched_rss, lanes / adapter_s,
                adapter_s / seq_s);
  }
}

void probe_exp(const Options& opts, Metrics& metrics) {
  std::vector<double> expand_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (const rrb::exp::CampaignSpec& spec : load_grid_specs(opts))
      (void)rrb::exp::expand_cells(spec);
    expand_ms.push_back(seconds_since(start) * 1e3);
  }

  std::vector<double> cell_ms;
  double finalize_ms = 0.0;
  for (const rrb::exp::CampaignSpec& spec : load_grid_specs(opts)) {
    rrb::exp::CampaignConfig config;
    config.runner.threads = opts.threads;
    config.out_dir = opts.work_dir + "/probe-" + spec.name;
    fs::remove_all(config.out_dir);
    rrb::exp::CampaignRunner runner(spec, config);
    auto last = Clock::now();
    (void)runner.run([&](const rrb::exp::CellResult&) {
      const auto now = Clock::now();
      cell_ms.push_back(std::chrono::duration<double, std::milli>(now - last)
                            .count());
      last = now;
    });
    finalize_ms += seconds_since(last) * 1e3;
    fs::remove_all(config.out_dir);
  }
  metrics.set("exp.spec_expand_ms", median(expand_ms), "ms");
  metrics.set("exp.cell_ms_p50", median(cell_ms), "ms");
  metrics.set("exp.cell_ms_max", *std::max_element(cell_ms.begin(),
                                                   cell_ms.end()),
              "ms");
  metrics.set("exp.finalize_ms", finalize_ms, "ms");
  std::printf("exp probe: expand %.3f ms, %zu cells p50 %.1f ms max %.1f ms, "
              "finalize %.1f ms\n",
              median(expand_ms), cell_ms.size(), median(cell_ms),
              *std::max_element(cell_ms.begin(), cell_ms.end()), finalize_ms);
}

/// The e13 churn-16 cell, assembled from the p2p pieces the way the
/// campaign runner's churn path does, with ChurnDriver::apply timed.
void probe_p2p(const Options& opts, Metrics& metrics, Tally& tally) {
  rrb::exp::CampaignSpec spec = load_grid_specs(opts)[2];
  spec.churn_rates = {16.0};
  const rrb::exp::CampaignCell cell = rrb::exp::expand_cells(spec).at(0);

  rrb::BroadcastOptions options;
  options.scheme = cell.scheme;
  options.n_estimate = cell.n;
  options.alpha = cell.alpha;
  options.failure_prob = cell.failure;
  options.quasirandom = cell.quasirandom;
  options.num_choices = cell.choices;
  options.memory = cell.memory;
  options.max_rounds = spec.max_rounds;
  rrb::SchemeShape shape;
  shape.n = cell.n;
  shape.degree = cell.d;
  shape.mean_degree = static_cast<double>(cell.d);
  const rrb::NodeId capacity =
      cell.n + static_cast<rrb::NodeId>(std::ceil(
                   static_cast<double>(cell.n) * spec.churn_headroom));

  double build_s = 0.0;
  double hook_s = 0.0;
  double run_s = 0.0;
  rrb::SummaryAccumulator rounds;
  for (int trial = 0; trial < spec.trials; ++trial) {
    rrb::Rng rng = rrb::Rng(cell.seed).fork(static_cast<std::uint64_t>(trial));
    auto start = Clock::now();
    rrb::DynamicOverlay overlay(capacity, cell.n, cell.d, rng);
    build_s += seconds_since(start);
    rrb::ChurnConfig churn;
    churn.joins_per_round = cell.churn;
    churn.leaves_per_round = cell.churn;
    churn.switches_per_round = spec.churn_switches;
    rrb::ChurnDriver driver(overlay, churn, rng);
    const rrb::RunResult result = rrb::with_scheme(
        shape, options, [&](auto proto, const rrb::ChannelConfig& channel) {
          rrb::PhoneCallEngine<rrb::DynamicOverlay> engine(overlay, channel,
                                                           rng);
          rrb::attach_churn(engine, driver);
          engine.set_round_hook([&](rrb::Round t) {
            const auto hook_start = Clock::now();
            driver.apply(t);
            hook_s += seconds_since(hook_start);
          });
          rrb::RunLimits limits;
          limits.max_rounds = spec.max_rounds;
          const rrb::NodeId source =
              spec.random_source ? overlay.random_alive(rng) : 0;
          const auto run_start = Clock::now();
          const rrb::RunResult r = engine.run(proto, source, limits);
          run_s += seconds_since(run_start);
          return r;
        });
    rounds.add(static_cast<double>(result.rounds));
  }
  rrb::RunnerConfig one;
  one.threads = 1;
  const rrb::exp::JsonObject record =
      rrb::exp::CampaignRunner::run_cell(spec, cell, one);
  const auto expected = record.find_plain("rounds_mean");
  tally.check(expected.has_value() &&
                  *expected == rrb::exp::format_double(rounds.finish().mean),
              static_cast<std::uint64_t>(spec.trials),
              "hand-built churn cell differs from run_cell");
  metrics.set("p2p.overlay_build_ms", build_s * 1e3 / spec.trials, "ms");
  metrics.set("p2p.churn_hook_share", run_s > 0.0 ? hook_s / run_s : 0.0,
              "ratio");
  std::printf("p2p probe (%s): overlay build %.2f ms/trial, churn hook %.1f%% "
              "of engine.run\n",
              cell.key.c_str(), build_s * 1e3 / spec.trials,
              run_s > 0.0 ? 100.0 * hook_s / run_s : 0.0);
}

}  // namespace

void probe_layers(const Options& opts, Metrics& metrics, Tally& tally) {
  fs::create_directories(opts.work_dir);
  probe_phonecall(opts, metrics, tally);
  probe_exp(opts, metrics);
  probe_p2p(opts, metrics, tally);
  fs::remove_all(opts.work_dir);
}

}  // namespace perfbench
