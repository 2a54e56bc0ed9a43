/// Engine micro-benchmarks: round-loop and generator throughput, the
/// costs a downstream user of the library pays. Self-contained timing
/// harness (no external benchmark dependency) so it runs everywhere the
/// library builds; emits BENCH_micro_engine.json so the repo's bench
/// trajectory accumulates a rounds/sec figure per PR.
///
/// Scenarios are chosen to isolate the engine's dispatch layers:
///  - push/four-choice/median-counter broadcasts on G(n, 8): the
///    statically-dispatched round loop (median-counter additionally
///    exercises the stamp/on_receive message path);
///  - the same push broadcast through the virtual ProtocolAdapter: the
///    type-erased path, for measuring the devirtualisation gap;
///  - four-choice under churn on the dynamic overlay: round hook plus the
///    incremental informed-alive bookkeeping;
///  - whole broadcast_trials sweeps per scheme at batch 0 / 4 / 32: one
///    row for both rungs of the batched engine's kernel ladder (classic,
///    sequential fallback) against the plain sequential driver, and a
///    sequential row for every other scheme; plus push with channel
///    failures (failure_prob 0.05) at batch 0 / 32, a channel the classic
///    kernel refuses;
///  - push and push-pull sweeps at E18's density point (bigtopo's chunked
///    configuration model at n = 2^19, d = 19), sequential and B = 4: the
///    classic kernel on a CSR far larger than L2;
///  - median-counter sweeps on G(2^16, 8), sequential and B = 2:
///    fixed-graph-sweep's median-counter point, where the protocol's
///    per-node round state is most of the working set;
///  - the channel sampler alone: Rng::sample_distinct_small in ns per call
///    at the (degree, choices) pairs the schemes and campaigns use;
///  - generator throughput: configuration_model and random_regular_simple
///    from sparse (d = 8) to near-complete (n = 130, d = 128) rows, and
///    bigtopo's chunked_configuration_model at E18's density point
///    (n = 2^19, d = 19) for chunks = 1 (inline) and chunks = 0 (one batch
///    per canonical chunk on the shared pool).

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/p2p/churn.hpp"

namespace rrb {
namespace {

using Clock = std::chrono::steady_clock;

struct Timing {
  int iters = 0;
  double wall_ms = 0.0;       ///< total timed wall time
  double rounds = 0.0;        ///< engine rounds summed over iterations
  double node_rounds = 0.0;   ///< sum of n * rounds (per-node work units)
  double tx = 0.0;            ///< transmissions summed over iterations
};

/// Run `body` (returning a RunResult) until ~min_ms of wall time or
/// max_iters, whichever first; one warmup iteration is discarded.
template <typename Body>
Timing time_runs(Body&& body, double min_ms = 300.0, int max_iters = 64) {
  (void)body();  // warmup
  Timing timing;
  const auto start = Clock::now();
  while (timing.iters < max_iters) {
    const RunResult r = body();
    ++timing.iters;
    timing.rounds += static_cast<double>(r.rounds);
    timing.node_rounds +=
        static_cast<double>(r.rounds) * static_cast<double>(r.n);
    timing.tx += static_cast<double>(r.total_tx());
    timing.wall_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - start)
                         .count();
    if (timing.wall_ms >= min_ms) break;
  }
  return timing;
}

void report(bench::BenchReport& json, const std::string& name,
            const Timing& t) {
  const double secs = t.wall_ms / 1000.0;
  const double rounds_per_sec = secs > 0.0 ? t.rounds / secs : 0.0;
  const double node_rounds_per_sec =
      secs > 0.0 ? t.node_rounds / secs : 0.0;
  std::printf("%-28s %5d iters  %9.2f ms  %12.0f rounds/s  %14.3e "
              "node-rounds/s\n",
              name.c_str(), t.iters, t.wall_ms, rounds_per_sec,
              node_rounds_per_sec);
  json.row()
      .set("name", name)
      .set("iters", t.iters)
      .set("wall_ms", t.wall_ms)
      .set("rounds", t.rounds)
      .set("rounds_per_sec", rounds_per_sec)
      .set("node_rounds_per_sec", node_rounds_per_sec)
      .set("tx", t.tx);
}

/// bigtopo's configuration model with the chunks knob fixed; the seed is
/// one draw from the row's stream.
template <int Chunks>
Graph chunked_cm(NodeId n, NodeId d, Rng& rng) {
  return bigtopo::chunked_configuration_model(
      {.n = n, .d = d, .seed = rng.next_u64(), .chunks = Chunks});
}

/// Generator throughput in nodes/s (the "generators" phase). Each rep
/// draws graphs from the row's seed stream until kRepMs of wall time has
/// passed (at least one graph); a row reports the median of kReps reps
/// with min and max. Every generator makes a fixed sequence of draws per
/// graph, so every capture of a row generates the same graphs.
void bench_generators(bench::BenchReport& json) {
  const bench::Phase phase(json, "generators");
  constexpr int kReps = 5;
  constexpr double kRepMs = 200.0;
  using Generator = Graph (*)(NodeId, NodeId, Rng&);
  struct GenRow {
    const char* generator;
    Generator generate;
    NodeId n;
    NodeId d;
    const char* variant = "";  ///< name suffix for a knob setting
  };
  const GenRow gen_rows[] = {
      {"configuration_model", configuration_model, 1U << 14, 8},
      {"configuration_model", configuration_model, 1U << 17, 8},
      {"random_regular_simple", random_regular_simple, 1U << 14, 8},
      {"random_regular_simple", random_regular_simple, 1U << 17, 8},
      {"random_regular_simple", random_regular_simple, 1U << 17, 34},
      {"random_regular_simple", random_regular_simple, 130, 128},
      {"chunked_configuration_model", chunked_cm<1>, 1U << 19, 19,
       "/chunks1"},
      {"chunked_configuration_model", chunked_cm<0>, 1U << 19, 19,
       "/chunks0"},
  };
  for (const GenRow& row : gen_rows) {
    Rng rng(13);
    std::vector<double> rates;
    double total_ms = 0.0;
    int graphs = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = Clock::now();
      int iters = 0;
      double ms = 0.0;
      do {
        const Graph graph = row.generate(row.n, row.d, rng);
        ++iters;
        ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                       start)
                 .count();
      } while (ms < kRepMs);
      total_ms += ms;
      graphs += iters;
      rates.push_back(static_cast<double>(iters) *
                      static_cast<double>(row.n) / (ms / 1000.0));
    }
    std::sort(rates.begin(), rates.end());
    const double median = rates[rates.size() / 2];
    const std::string name =
        std::string("gen/") + row.generator + "/" +
        (std::has_single_bit(row.n)
             ? "2^" + std::to_string(std::countr_zero(row.n))
             : std::to_string(row.n)) +
        "/d" + std::to_string(row.d) + row.variant;
    std::printf("%-50s %5d graphs %9.2f ms  %12.4g nodes/s  "
                "[%.4g, %.4g]\n",
                name.c_str(), graphs, total_ms, median, rates.front(),
                rates.back());
    json.row()
        .set("name", name)
        .set("n", static_cast<std::uint64_t>(row.n))
        .set("d", static_cast<std::uint64_t>(row.d))
        .set("reps", kReps)
        .set("graphs", graphs)
        .set("wall_ms", total_ms)
        .set("nodes_per_sec", median)
        .set("nodes_per_sec_min", rates.front())
        .set("nodes_per_sec_max", rates.back());
  }
}

/// Channel-sampler cost in ns per call (the "sampler" phase): one
/// Rng::sample_distinct_small(n, k) per call, the draw every node makes
/// every round. (8, 4) is four-choice at d = 8, (8, 1) the single-choice
/// schemes, (10, 4) and (34, 4) the campaign degrees, and (100, 4) the
/// prefix-scan path above 64. Each rep times kCalls calls on the row's
/// seed stream; a row reports the median of kReps reps with min and max.
void bench_sampler(bench::BenchReport& json) {
  const bench::Phase phase(json, "sampler");
  constexpr int kReps = 5;
  constexpr int kCalls = 1 << 21;
  const std::pair<std::uint32_t, std::size_t> rows[] = {
      {8, 4}, {10, 4}, {8, 1}, {34, 4}, {100, 4}};
  for (const auto& [n, k] : rows) {
    Rng rng(21);
    std::array<std::uint32_t, 64> buf{};
    std::uint64_t sink = 0;
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = Clock::now();
      for (int call = 0; call < kCalls; ++call) {
        rng.sample_distinct_small(n, k, buf);
        sink += buf[k - 1];
      }
      ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count() /
          kCalls);
    }
    // The volatile store keeps the sampled values live.
    const volatile std::uint64_t keep = sink;
    (void)keep;
    std::sort(ns.begin(), ns.end());
    const double median = ns[ns.size() / 2];
    const std::string name =
        "sampler/" + std::to_string(n) + "/k" + std::to_string(k);
    std::printf("%-40s %5d reps   %9.2f ns/call  [%.2f, %.2f]\n",
                name.c_str(), kReps, median, ns.front(), ns.back());
    json.row()
        .set("name", name)
        .set("n", static_cast<std::uint64_t>(n))
        .set("k", static_cast<std::uint64_t>(k))
        .set("reps", kReps)
        .set("calls", kCalls)
        .set("ns_per_call", median)
        .set("ns_per_call_min", ns.front())
        .set("ns_per_call_max", ns.back());
  }
}

/// One trials/* row: kReps timed broadcast_trials sweeps of `opt` on `g`,
/// reported as the median trials/s with min and max, so a reader can tell
/// a gain from scheduler noise. The name is trials/<scheme><graph>/<batch>
/// (seq for batch 0).
void bench_trials_row(bench::BenchReport& json, const Graph& g,
                      const BroadcastOptions& opt, const std::string& graph) {
  constexpr int kReps = 5;
  std::vector<double> rates;
  double total_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    (void)broadcast_trials(g, opt);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    total_ms += ms;
    rates.push_back(opt.trials / (ms / 1000.0));
  }
  std::sort(rates.begin(), rates.end());
  const double median = rates[rates.size() / 2];
  const int batch = opt.runner.batch;
  const std::string name =
      std::string("trials/") + scheme_name(opt.scheme) + graph +
      (batch == 0 ? "/seq" : "/B" + std::to_string(batch));
  std::printf("%-28s %5d reps   %9.2f ms  %12.1f trials/s  [%.1f, %.1f]\n",
              name.c_str(), kReps, total_ms, median, rates.front(),
              rates.back());
  json.row()
      .set("name", name)
      .set("batch", batch)
      .set("trials", opt.trials)
      .set("reps", kReps)
      .set("wall_ms", total_ms)
      .set("trials_per_sec", median)
      .set("trials_per_sec_min", rates.front())
      .set("trials_per_sec_max", rates.back());
}

/// trials/{push,push-pull}/2^19/d19/{seq,B4}: E18's density point
/// (e18_density.campaign, perfbench's large-n-push) on bigtopo's chunked
/// configuration model, a 40 MB CSR far past L2, where the classic
/// kernel's round loop is latency-bound on the CSR. One thread, 4 trials
/// per sweep, so B4 is one lane group.
void bench_e18_trials(bench::BenchReport& json) {
  const bench::Phase phase(json, "e18_trials");
  const NodeId n = NodeId{1} << 19;
  const Graph g = bigtopo::chunked_configuration_model(
      {.n = n, .d = 19, .seed = 0xe18, .chunks = 0});
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kPush, BroadcastScheme::kPushPull}) {
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0xbea7;
    opt.trials = 4;
    opt.runner.threads = 1;
    (void)broadcast_trials(g, opt);  // warmup
    for (const int batch : {0, 4}) {
      opt.runner.batch = batch;
      bench_trials_row(json, g, opt, "/2^19/d19");
    }
  }
}

/// trials/median-counter/2^16/d8/{seq,B2}: fixed-graph-sweep's
/// median-counter point (perfbench: random_regular_simple G(2^16, 8),
/// batch 2) at one thread, where the protocol's per-node round state is
/// the working set. 4 trials per sweep, so B2 is two lane groups.
void bench_median_counter_trials(bench::BenchReport& json) {
  const bench::Phase phase(json, "median_counter_trials");
  Rng grng(0x3ed1);
  const Graph g = random_regular_simple(NodeId{1} << 16, 8, grng);
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kMedianCounter;
  opt.seed = 0xbea7;
  opt.trials = 4;
  opt.runner.threads = 1;
  (void)broadcast_trials(g, opt);  // warmup
  for (const int batch : {0, 2}) {
    opt.runner.batch = batch;
    bench_trials_row(json, g, opt, "/2^16/d8");
  }
}

void run_all() {
  const NodeId n = 1 << 14;
  bench::BenchReport json("micro_engine");
  json.set("n", static_cast<std::uint64_t>(n)).set("d", 8);

  const Graph g = [&json, n] {
    const bench::Phase phase(json, "graph_setup");
    Rng grng(4);
    return random_regular_simple(n, 8, grng);
  }();

  std::printf("%-28s %11s  %12s  %15s  %18s\n", "scenario", "iters",
              "wall", "rounds/s", "node-rounds/s");

  // Topology, engine and protocol are constructed once per scenario and
  // reused across iterations: run() re-initialises all per-run state, and
  // reusing the engine exercises the flat-buffer reuse the round loop is
  // built around (it also keeps the allocator out of the measurement).
  {
    Rng rng(5);
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
    PushProtocol push;
    const Timing t = time_runs(
        [&] { return engine.run(push, NodeId{0}, RunLimits{}); });
    report(json, "push/static", t);
  }

  {
    // Identical workload through the virtual adapter: the devirtualisation
    // gap is this row versus push/static.
    Rng rng(5);
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
    ProtocolAdapter<PushProtocol> push;
    BroadcastProtocol& erased = push;
    const Timing t = time_runs(
        [&] { return engine.run(erased, NodeId{0}, RunLimits{}); });
    report(json, "push/virtual-adapter", t);
  }

  {
    Rng rng(7);
    ChannelConfig chan;
    chan.num_choices = 4;
    FourChoiceConfig fc;
    fc.n_estimate = n;
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, chan, rng);
    FourChoiceBroadcast alg(fc);
    const Timing t = time_runs(
        [&] { return engine.run(alg, NodeId{0}, RunLimits{}); });
    report(json, "four-choice/static", t);
  }

  {
    Rng rng(9);
    MedianCounterConfig mc;
    mc.n_estimate = n;
    GraphTopology topo(g);
    PhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{}, rng);
    MedianCounterProtocol alg(mc);
    const Timing t = time_runs(
        [&] { return engine.run(alg, NodeId{0}, RunLimits{}); });
    report(json, "median-counter/static", t);
  }

  {
    // Churn: the round hook mutates the overlay while the engine keeps its
    // informed-alive count incrementally (no O(n) rescan per round).
    Rng rng(11);
    ChannelConfig chan;
    chan.num_choices = 4;
    FourChoiceConfig fc;
    fc.n_estimate = n;
    fc.alpha = 2.0;
    const Timing t = time_runs(
        [&] {
          DynamicOverlay overlay(n + n / 8, n, 8, rng);
          ChurnConfig ccfg;
          ccfg.joins_per_round = 4.0;
          ccfg.leaves_per_round = 4.0;
          ccfg.switches_per_round = 2;
          ChurnDriver driver(overlay, ccfg, rng);
          PhoneCallEngine<DynamicOverlay> engine(overlay, chan, rng);
          attach_churn(engine, driver);
          FourChoiceBroadcast alg(fc);
          return engine.run(alg, overlay.random_alive(rng), RunLimits{});
        },
        300.0, 16);
    report(json, "four-choice/churn", t);
  }

  {
    // Trial-batched engine: trials/sec through the broadcast_trials facade,
    // the sequential driver versus B lockstep lanes over the shared
    // topology (outputs are bit-identical — see test_batched_engine.cpp —
    // so the rows measure pure scheduling). push and push-pull land on the
    // classic kernel; four-choice, median-counter and sequentialised on
    // the lane-by-lane sequential fallback. Each rep times one whole sweep
    // (see bench_trials_row). Trial counts keep
    // every sweep near a second on one core. The schemes without batched
    // rows get the sequential row only, so every scheme's sequential path
    // has one.
    struct Sweep {
      BroadcastScheme scheme;
      int trials;
      bool batched;
    };
    const Sweep sweeps[] = {
        {BroadcastScheme::kPush, 64, true},
        {BroadcastScheme::kPushPull, 64, true},
        {BroadcastScheme::kFourChoice, 32, true},
        {BroadcastScheme::kMedianCounter, 16, true},
        {BroadcastScheme::kSequentialised, 8, true},
        {BroadcastScheme::kPull, 64, false},
        {BroadcastScheme::kFixedHorizonPush, 64, false},
        {BroadcastScheme::kThrottledPushPull, 32, false},
    };
    for (const auto& [scheme, trials, batched] : sweeps) {
      BroadcastOptions opt;
      opt.scheme = scheme;
      opt.seed = 0xbea7;
      opt.trials = trials;
      opt.runner.threads = 1;
      (void)broadcast_trials(g, opt);  // warmup
      for (const int batch : {0, 4, 32}) {
        if (batch != 0 && !batched) break;
        opt.runner.batch = batch;
        bench_trials_row(json, g, opt, "");
      }
    }

    // trials/push/failure/{seq,B32}: i.i.d. channel failures send push's
    // batched lanes to the sequential fallback ("failure_prob > 0").
    BroadcastOptions failing;
    failing.scheme = BroadcastScheme::kPush;
    failing.seed = 0xbea7;
    failing.trials = 64;
    failing.failure_prob = 0.05;
    failing.runner.threads = 1;
    (void)broadcast_trials(g, failing);  // warmup
    for (const int batch : {0, 32}) {
      failing.runner.batch = batch;
      bench_trials_row(json, g, failing, "/failure");
    }
  }

  bench_e18_trials(json);
  bench_median_counter_trials(json);

  bench_sampler(json);
  bench_generators(json);
  json.write();
}

}  // namespace
}  // namespace rrb

int main() {
  rrb::bench::banner("Micro-engine benchmarks",
                     "Round-loop and generator throughput; the "
                     "static-vs-virtual dispatch gap; trial sweeps on every "
                     "batched-engine kernel.");
  rrb::run_all();
  return 0;
}
