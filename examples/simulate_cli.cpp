/// Command-line simulator: run any broadcast scheme on any topology —
/// either a generated one or an edge list loaded from a file (see
/// rrb/graph/io.hpp) — and print the outcome. Demonstrates composing the
/// whole public API from flags, the way a downstream experimenter would.
///
/// Usage:
///   simulate_cli [--protocol SCHEME] [--list-schemes]
///                [--graph regular|gnp|hypercube|pa|chunked|chunked-out|
///                 FILE.edges]
///                [--n 16384] [--d 8] [--chunks C] [--choices K]
///                [--memory M] [--quasirandom] [--failure P] [--alpha A]
///                [--seed S] [--trials T] [--threads W]
///                [--json PATH] [--trace PATH] [--metrics LIST]
///
/// SCHEME is any canonical scheme name (`--list-schemes` prints all of
/// them, straight from the library's scheme table) or one of the short
/// aliases push-pull/median/seq. With no arguments it runs the four-choice
/// algorithm on G(2^14, 8). Trials run on the deterministic parallel
/// runner: --threads only changes wall-clock time, never the printed
/// numbers. --json additionally writes the summaries as a machine-readable
/// report through the shared artifact writer. --metrics attaches the
/// observer pipeline's registry metrics (rrb/metrics/registry.hpp) — the
/// same names the campaign spec's `metrics =` line accepts — and prints
/// their per-node distribution digests; observers are read-only, so every
/// other printed number is unchanged.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/common/table.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/artifact.hpp"
#include "rrb/exp/spec.hpp"
#include "rrb/graph/algorithms.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/graph/io.hpp"
#include "rrb/metrics/registry.hpp"
#include "rrb/sim/runner.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace {

struct Options {
  std::string protocol = "four-choice";
  std::string graph = "regular";
  rrb::NodeId n = 1 << 14;
  rrb::NodeId d = 8;
  int chunks = 0;     // execution batches for the chunked generators
  int choices = -1;   // -1 = scheme default
  int memory = -1;    // -1 = scheme default
  bool quasirandom = false;
  double failure = 0.0;
  double alpha = 1.5;
  std::uint64_t seed = 1;
  int trials = 3;
  rrb::RunnerConfig runner;
  std::string json_path;   // empty = no JSON report
  std::string trace_path;  // empty = no Chrome trace (telemetry stays off)
  std::string metrics;     // comma list of registry metrics, or "all"
  bool list_schemes = false;
};

void usage() {
  std::cout <<
      "usage: simulate_cli [--protocol SCHEME] [--list-schemes]\n"
      "                    [--graph regular|gnp|hypercube|pa|chunked|"
      "chunked-out|FILE.edges]\n"
      "                    [--n N] [--d D] [--chunks C] [--choices K] "
      "[--memory M]\n"
      "                    [--quasirandom] [--failure P] [--alpha A] "
      "[--seed S] [--trials T]\n"
      "                    [--threads W] [--json PATH] [--trace PATH]\n"
      "                    [--metrics LIST]\n"
      "\n"
      "  --graph chunked      rrb::bigtopo chunked configuration model "
      "(compact CSR\n"
      "               build; reaches n in the millions). chunked-out is "
      "the d-out\n"
      "               overlay variant (degree d + in-degree).\n"
      "  --chunks C   execution batches for the chunked generators "
      "(default 0 =\n"
      "               one per canonical chunk; 1 = one batch, inline). "
      "Batches run\n"
      "               on min(batches, $RRB_THREADS or cores) workers. "
      "Scheduling\n"
      "               only: the graph bytes are identical for every C.\n"
      "  --protocol SCHEME  a canonical scheme name (see --list-schemes) "
      "or one of\n"
      "               the aliases push-pull, median, seq\n"
      "  --list-schemes  print every scheme the library implements and "
      "exit\n"
      "  --quasirandom  quasirandom channel selection "
      "(Doerr-Friedrich-Sauerwald):\n"
      "               each node walks its neighbour list cyclically from a "
      "random start\n"
      "               instead of sampling. Mutually exclusive with a "
      "positive --memory.\n"
      "  --threads W  worker threads for the trial runner (default 0 = "
      "auto:\n"
      "               $RRB_THREADS if set, else one per hardware core; 1 = "
      "sequential).\n"
      "               Results are identical for every W — only wall-clock "
      "time changes.\n"
      "  --json PATH  also write the summaries as a JSON report (shared "
      "artifact\n"
      "               writer, same layout as the BENCH_*.json files)\n"
      "  --trace PATH record a Chrome trace-event JSON of the run (engine\n"
      "               and runner spans; open in Perfetto or\n"
      "               chrome://tracing). Side channel only: the printed\n"
      "               numbers and --json report are unchanged.\n"
      "  --metrics LIST  comma-separated registry metrics to collect via "
      "the\n"
      "               observer pipeline (tx-histogram, latency), or 'all'.\n"
      "               Read-only: the other printed numbers do not change.\n";
}

/// Resolve --metrics into registry kinds ("all" = the whole registry).
std::vector<rrb::MetricKind> parse_metric_list(const std::string& list) {
  std::vector<rrb::MetricKind> selected;
  if (list.empty()) return selected;
  if (list == "all") {
    selected.assign(rrb::kAllMetrics.begin(), rrb::kAllMetrics.end());
    return selected;
  }
  std::string_view rest = list;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    const auto kind = rrb::parse_metric(item);
    if (!kind)
      throw std::runtime_error("unknown metric '" + std::string(item) +
                               "' (known: " + rrb::known_metric_names() +
                               ", all)");
    // Same rule as the campaign spec parser: duplicates would print (and
    // report) the same digest twice.
    for (const rrb::MetricKind existing : selected)
      if (existing == *kind)
        throw std::runtime_error("duplicate metric '" + std::string(item) +
                                 "'");
    selected.push_back(*kind);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return selected;
}

/// A numeric flag value through the spec loader's strict integer rule
/// (decimal, 0x-hex, 2^k; no sign, no trailing characters), range-checked
/// into T.
template <typename T>
T int_flag(const std::string& flag, const char* text) {
  std::uint64_t value = 0;
  try {
    value = rrb::exp::parse_u64(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(flag + ": " + e.what());
  }
  if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    throw std::runtime_error(flag + ": " + text + " is out of range");
  return static_cast<T>(value);
}

double double_flag(const std::string& flag, const char* text) {
  try {
    return rrb::exp::parse_double(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(flag + ": " + e.what());
  }
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--protocol") opt.protocol = next();
    else if (flag == "--list-schemes") opt.list_schemes = true;
    else if (flag == "--graph") opt.graph = next();
    else if (flag == "--n") opt.n = int_flag<rrb::NodeId>(flag, next());
    else if (flag == "--d") opt.d = int_flag<rrb::NodeId>(flag, next());
    else if (flag == "--chunks") opt.chunks = int_flag<int>(flag, next());
    else if (flag == "--choices") opt.choices = int_flag<int>(flag, next());
    else if (flag == "--memory") opt.memory = int_flag<int>(flag, next());
    else if (flag == "--quasirandom") opt.quasirandom = true;
    else if (flag == "--failure") opt.failure = double_flag(flag, next());
    else if (flag == "--alpha") opt.alpha = double_flag(flag, next());
    else if (flag == "--seed") opt.seed = int_flag<std::uint64_t>(flag, next());
    else if (flag == "--trials") opt.trials = int_flag<int>(flag, next());
    else if (flag == "--threads")
      opt.runner.threads = int_flag<int>(flag, next());
    else if (flag == "--json") opt.json_path = next();
    else if (flag == "--trace") opt.trace_path = next();
    else if (flag == "--metrics") opt.metrics = next();
    else throw std::runtime_error("unknown flag: " + flag);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrb;
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return 2;
  }

  if (opt.list_schemes) {
    // One source of truth: the library's scheme table.
    for (const BroadcastScheme scheme : kAllSchemes)
      std::cout << scheme_name(scheme) << "\n";
    return 0;
  }

  if (!opt.trace_path.empty()) {
    telemetry::enable();
    telemetry::set_process_id(1);
    telemetry::set_process_label("simulate_cli");
  }

  const auto scheme = parse_scheme(opt.protocol);
  if (!scheme) {
    std::cerr << "error: unknown protocol " << opt.protocol
              << " (try --list-schemes)\n";
    usage();
    return 2;
  }

  // Topology factory.
  GraphFactory graph_factory;
  if (opt.graph == "regular") {
    graph_factory = [&](Rng& rng) {
      return random_regular_simple(opt.n, opt.d, rng);
    };
  } else if (opt.graph == "gnp") {
    graph_factory = [&](Rng& rng) {
      return gnp(opt.n, static_cast<double>(opt.d) / (opt.n - 1), rng);
    };
  } else if (opt.graph == "hypercube") {
    graph_factory = [&](Rng&) {
      int dim = 0;
      while ((1U << dim) < opt.n) ++dim;
      return hypercube(dim);
    };
  } else if (opt.graph == "pa") {
    graph_factory = [&](Rng& rng) {
      return preferential_attachment(opt.n, std::max<NodeId>(2, opt.d / 2),
                                     rng);
    };
  } else if (opt.graph == "chunked" || opt.graph == "chunked-out") {
    // rrb::bigtopo compact-CSR path, seeded from the trial stream like the
    // campaign runner's chunked family. --chunks batches execution only.
    const bool out_links = opt.graph == "chunked-out";
    graph_factory = [&, out_links](Rng& rng) {
      bigtopo::ChunkedParams params;
      params.n = opt.n;
      params.d = opt.d;
      params.seed = rng.next_u64();
      params.chunks = opt.chunks;
      return out_links ? bigtopo::chunked_random_out(params)
                       : bigtopo::chunked_configuration_model(params);
    };
  } else {
    // Treat as a file path.
    std::ifstream file(opt.graph);
    if (!file) {
      std::cerr << "error: cannot open graph file " << opt.graph << "\n";
      return 2;
    }
    const Graph loaded = read_edge_list(file);
    graph_factory = [loaded](Rng&) { return loaded; };
    opt.n = loaded.num_nodes();
  }

  // Trials dispatch the scheme statically on each trial's graph, exactly as
  // broadcast() does; the CLI channel overrides ride on the options.
  BroadcastOptions scheme_options;
  scheme_options.scheme = *scheme;
  scheme_options.seed = opt.seed;
  scheme_options.n_estimate = opt.n;
  scheme_options.alpha = opt.alpha;
  scheme_options.failure_prob = opt.failure;
  scheme_options.memory = opt.memory;
  scheme_options.num_choices = std::max(0, opt.choices);
  scheme_options.quasirandom = opt.quasirandom;
  scheme_options.trials = opt.trials;
  scheme_options.runner = opt.runner;

  // Reject bad channel combinations up front, on the nominal shape, with
  // the check the engines themselves make.
  SchemeShape shape;
  shape.n = opt.n;
  shape.degree = opt.d;
  try {
    const ChannelConfig channel = with_scheme(
        shape, scheme_options,
        [](auto, const ChannelConfig& paired) { return paired; });
    if (channel.quasirandom && channel.memory > 0)
      throw std::runtime_error(
          "--quasirandom cannot be combined with a positive memory window "
          "(use --memory 0 with seq)");
    validate_channel(channel);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::vector<MetricKind> selected_metrics;
  try {
    selected_metrics = parse_metric_list(opt.metrics);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // The observed overload returns a byte-identical TrialOutcome (observers
  // are read-only), so both branches print the very same summary table.
  TrialOutcome out;
  std::vector<MetricStack> stacks;
  if (selected_metrics.empty()) {
    out = broadcast_trials(graph_factory, scheme_options);
  } else {
    ObservedOutcome<MetricStack> observed = broadcast_trials(
        graph_factory, scheme_options,
        [](const Graph&) { return MetricStack{}; });
    out = std::move(observed.outcome);
    stacks = std::move(observed.observers);
  }

  Table table({"metric", "mean", "min", "max"});
  table.set_title(opt.protocol + " on " + opt.graph + " (n=" +
                  std::to_string(opt.n) + ", trials=" +
                  std::to_string(opt.trials) + ")");
  auto row = [&table](const std::string& name, const Summary& s,
                      int precision) {
    table.begin_row();
    table.add(name);
    table.add(s.mean, precision);
    table.add(s.min, precision);
    table.add(s.max, precision);
  };
  row("rounds (protocol stop)", out.rounds, 1);
  row("rounds to all informed", out.completion_round, 1);
  row("transmissions/node", out.tx_per_node, 2);
  row("push transmissions", out.push_tx, 0);
  row("pull transmissions", out.pull_tx, 0);
  std::cout << table;
  std::cout << "completion rate: " << out.completion_rate << "\n";

  // Mean-over-trials digest per selected metric, reduced in trial order
  // (the same discipline every deterministic reduction in the repo uses).
  std::vector<rrb::exp::JsonObject> metric_rows;
  if (!selected_metrics.empty()) {
    Table mtable({"metric", "p50", "p90", "p99", "max"});
    mtable.set_title("per-node distributions (means over " +
                     std::to_string(opt.trials) + " trials)");
    for (const MetricKind kind : selected_metrics) {
      const QuantileSummary mean = metric_summary_mean(stacks, kind);
      mtable.begin_row();
      mtable.add(metric_name(kind));
      mtable.add(mean.p50, 2);
      mtable.add(mean.p90, 2);
      mtable.add(mean.p99, 2);
      mtable.add(mean.max, 2);
      metric_rows.emplace_back();
      metric_rows.back()
          .set("metric", metric_name(kind))
          .set("p50_mean", mean.p50)
          .set("p90_mean", mean.p90)
          .set("p99_mean", mean.p99)
          .set("max_mean", mean.max);
    }
    std::cout << mtable;
  }

  if (!opt.json_path.empty()) {
    exp::BenchReport report("simulate_cli", "n/a",
                            ParallelRunner::resolve_threads(opt.runner));
    report.set("scheme", scheme_name(*scheme))
        .set("graph", opt.graph)
        .set("n", static_cast<std::uint64_t>(opt.n))
        .set("d", static_cast<std::uint64_t>(opt.d))
        .set("trials", opt.trials)
        .set("seed", static_cast<std::uint64_t>(opt.seed))
        .set("completion_rate", out.completion_rate);
    auto summary_row = [&report](const char* metric, const Summary& s) {
      report.row()
          .set("metric", metric)
          .set("mean", s.mean)
          .set("stddev", s.stddev)
          .set("min", s.min)
          .set("max", s.max)
          .set("median", s.median);
    };
    summary_row("rounds", out.rounds);
    summary_row("completion_round", out.completion_round);
    summary_row("tx_per_node", out.tx_per_node);
    summary_row("push_tx", out.push_tx);
    summary_row("pull_tx", out.pull_tx);
    for (const exp::JsonObject& metric_row : metric_rows) {
      exp::JsonObject& json_row = report.row();
      for (const exp::JsonObject::Field& field : metric_row.fields())
        json_row.set_raw(field);
    }
    report.write_to(opt.json_path);
  }

  if (!opt.trace_path.empty()) {
    const std::int64_t events = telemetry::write_chrome_trace_file(
        opt.trace_path);
    if (events < 0)
      std::cerr << "warning: cannot write trace " << opt.trace_path << "\n";
    else
      std::cout << "trace: " << opt.trace_path << " (" << events
                << " events; open in Perfetto or chrome://tracing)\n";
  }
  return out.completion_rate == 1.0 ? 0 : 1;
}
