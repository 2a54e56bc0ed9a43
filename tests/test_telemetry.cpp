/// Telemetry suite: the API half (spans, counters, RSS, the jsonl shuttle
/// format and the Chrome trace exporter) and the contract half — telemetry
/// is a side channel, so enabling it must leave every deterministic output
/// bit-identical: cell records across all eight schemes x threads {1,4} x
/// batch {1,32}, observer streams, and campaign artifact bytes. Together
/// with the telemetry-side-channel lint rule this pins the ROADMAP
/// telemetry invariant from both directions (can't perturb, can't leak).

#include "rrb/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/artifact.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/exp/spec.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the process-wide switch off and the buffers empty, so
/// suites sharing this binary never see each other's events.
struct TelemetryGuard {
  TelemetryGuard() { telemetry::drain(); }
  ~TelemetryGuard() {
    telemetry::enable(false);
    telemetry::drain();
    telemetry::set_process_id(0);
  }
};

std::string temp_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "rrb_telemetry_" + tag;
  fs::remove_all(path);
  return path;
}

const telemetry::Event* find_event(const std::vector<telemetry::Event>& events,
                                   char phase, std::string_view name) {
  for (const telemetry::Event& event : events)
    if (event.phase == phase && event.name == name) return &event;
  return nullptr;
}

// ---- API -------------------------------------------------------------------

TEST(TelemetryApi, DisabledByDefaultRecordsNothing) {
  TelemetryGuard guard;
  ASSERT_TRUE(telemetry::kCompiledIn);
  EXPECT_FALSE(telemetry::enabled());
  {
    telemetry::Span span("test", "ignored");
    EXPECT_FALSE(span.active());
  }
  telemetry::instant("test", "ignored");
  telemetry::count("ignored", 7);
  EXPECT_TRUE(telemetry::drain().empty());
}

TEST(TelemetryApi, SpanInstantCounterDrain) {
  TelemetryGuard guard;
  telemetry::enable();
  {
    telemetry::Span span("cat", "work", "{\"k\":1}");
    EXPECT_TRUE(span.active());
  }
  telemetry::instant("cat", "tick", "{\"w\":3}");
  telemetry::count("widgets", 3);
  telemetry::count("widgets", 2);
  telemetry::enable(false);
  const std::vector<telemetry::Event> events = telemetry::drain();

  const telemetry::Event* span = find_event(events, 'X', "work");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->category, "cat");
  EXPECT_GE(span->dur_us, 0);
  EXPECT_EQ(span->args_json, "{\"k\":1}");

  const telemetry::Event* tick = find_event(events, 'i', "tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->args_json, "{\"w\":3}");
  EXPECT_GE(tick->ts_us, span->ts_us);

  const telemetry::Event* counter = find_event(events, 'C', "widgets");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->args_json, "{\"value\":5}");

  // drain() moved everything out; a second drain is empty.
  EXPECT_TRUE(telemetry::drain().empty());
}

TEST(TelemetryApi, MonotonicClockAndRss) {
  const std::int64_t a = telemetry::now_us();
  const std::int64_t b = telemetry::now_us();
  EXPECT_LE(a, b);
  // Linux (/proc/self/status) is the only supported platform in CI; both
  // fields are present there and a running process has nonzero RSS.
  EXPECT_GT(telemetry::peak_rss_bytes(), 0U);
  EXPECT_GT(telemetry::current_rss_bytes(), 0U);
  EXPECT_GE(telemetry::peak_rss_bytes(), telemetry::current_rss_bytes());
}

TEST(TelemetryApi, EventsJsonlRoundTrip) {
  TelemetryGuard guard;
  const std::string path = temp_path("roundtrip.jsonl");
  telemetry::enable();
  telemetry::set_process_id(7);
  telemetry::set_process_label("worker w7");
  {
    telemetry::Span span("engine", "run \"quoted\"\n", "{\"n\":256}");
  }
  telemetry::count("cells", 2);
  telemetry::enable(false);
  ASSERT_GT(telemetry::append_events_jsonl(path), 0);

  const std::vector<telemetry::Event> loaded =
      telemetry::load_events_jsonl(path);
  const telemetry::Event* span = find_event(loaded, 'X', "run \"quoted\"\n");
  ASSERT_NE(span, nullptr);  // escapes survived the round trip
  EXPECT_EQ(span->category, "engine");
  EXPECT_EQ(span->pid, 7);
  EXPECT_EQ(span->args_json, "{\"n\":256}");
  const telemetry::Event* meta = find_event(loaded, 'M', "process_name");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->args_json, "{\"name\":\"worker w7\"}");
  const telemetry::Event* counter = find_event(loaded, 'C', "cells");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->args_json, "{\"value\":2}");

  // A truncated tail (SIGKILLed worker mid-write) is skipped, not fatal.
  const std::size_t before = loaded.size();
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"ph\":\"X\",\"cat\":\"engine\",\"na";
  }
  EXPECT_EQ(telemetry::load_events_jsonl(path).size(), before);
}

TEST(TelemetryApi, ChromeTraceShape) {
  std::vector<telemetry::Event> events;
  telemetry::Event meta;
  meta.phase = 'M';
  meta.name = "process_name";
  meta.category = "__metadata";
  meta.ts_us = 9999;  // metadata never participates in rebasing
  meta.args_json = "{\"name\":\"driver\"}";
  telemetry::Event late;
  late.name = "late";
  late.ts_us = 1500;
  late.dur_us = 10;
  telemetry::Event early;
  early.name = "early";
  early.ts_us = 1000;
  early.dur_us = 20;
  events = {late, meta, early};  // deliberately unsorted

  std::ostringstream out;
  telemetry::write_chrome_trace(out, events);
  const std::string trace = out.str();

  EXPECT_TRUE(trace.starts_with("{\"traceEvents\":["));
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Metadata sorts first, then timestamp order.
  const std::size_t meta_at = trace.find("process_name");
  const std::size_t early_at = trace.find("\"early\"");
  const std::size_t late_at = trace.find("\"late\"");
  ASSERT_NE(meta_at, std::string::npos);
  ASSERT_NE(early_at, std::string::npos);
  ASSERT_NE(late_at, std::string::npos);
  EXPECT_LT(meta_at, early_at);
  EXPECT_LT(early_at, late_at);
  // Rebased to the earliest non-metadata event: early at ts 0, late at 500.
  EXPECT_NE(trace.find("\"name\":\"early\",\"ts\":0,"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"late\",\"ts\":500,"), std::string::npos);
}

// ---- Bit-identity: telemetry never perturbs deterministic outputs ----------

/// All eight schemes over one small regular graph; cell records digest the
/// whole run (rounds, tx, coverage, observer-derived fields), so one string
/// compare per cell pins the full output surface.
exp::CampaignSpec all_schemes_spec() {
  exp::CampaignSpec spec;
  spec.name = "telemetry-identity";
  spec.seed = 0x7e1e;
  spec.trials = 5;
  spec.schemes = {kAllSchemes.begin(), kAllSchemes.end()};
  spec.n_values = {64};
  spec.d_values = {6};
  return spec;
}

TEST(TelemetryBitIdentity, CellRecordsUnchangedForAllSchemesThreadsBatches) {
  TelemetryGuard guard;
  const exp::CampaignSpec spec = all_schemes_spec();
  const auto cells = exp::expand_cells(spec);
  ASSERT_EQ(cells.size(), kAllSchemes.size());

  std::vector<std::string> baseline;
  for (const exp::CampaignCell& cell : cells) {
    RunnerConfig sequential;
    sequential.threads = 1;
    sequential.batch = 0;
    baseline.push_back(
        exp::CampaignRunner::run_cell(spec, cell, sequential).to_line());
  }

  telemetry::enable();
  for (const int threads : {1, 4}) {
    for (const int batch : {1, 32}) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].key + " threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch));
        RunnerConfig runner;
        runner.threads = threads;
        runner.batch = batch;
        EXPECT_EQ(exp::CampaignRunner::run_cell(spec, cells[i], runner)
                      .to_line(),
                  baseline[i]);
      }
    }
  }
  // The runs really were instrumented — spans from the engine, the batched
  // kernels and the campaign cells all landed in the buffers.
  const std::vector<telemetry::Event> events = telemetry::drain();
  EXPECT_NE(find_event(events, 'X', "run"), nullptr);
  EXPECT_NE(find_event(events, 'X', cells[0].key), nullptr);
}

using FreeStack = ObserverSet<RunSummaryObserver, SetSizeObserver,
                              TxHistogramObserver, InformedLatencyObserver>;

TEST(TelemetryBitIdentity, ObserverStreamsUnchanged) {
  TelemetryGuard guard;
  Rng grng(0x7e1e02);
  const Graph g = random_regular_simple(128, 6, grng);
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kPushPull;
  opt.seed = 0x7e1e03;
  opt.trials = 9;
  const ObservedOutcome<FreeStack> plain =
      broadcast_trials(g, opt, [](const Graph&) { return FreeStack{}; });

  telemetry::enable();
  BroadcastOptions instrumented = opt;
  instrumented.runner.threads = 4;
  instrumented.runner.batch = 4;
  const ObservedOutcome<FreeStack> traced = broadcast_trials(
      g, instrumented, [](const Graph&) { return FreeStack{}; });
  telemetry::enable(false);

  ASSERT_EQ(traced.observers.size(), plain.observers.size());
  for (std::size_t i = 0; i < traced.observers.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    const FreeStack& got = traced.observers[i];
    const FreeStack& want = plain.observers[i];
    const RunResult& a = got.get<RunSummaryObserver>().result();
    const RunResult& b = want.get<RunSummaryObserver>().result();
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.push_tx, b.push_tx);
    EXPECT_EQ(a.pull_tx, b.pull_tx);
    EXPECT_EQ(a.final_informed, b.final_informed);
    const auto& got_points = got.get<SetSizeObserver>().points();
    const auto& want_points = want.get<SetSizeObserver>().points();
    ASSERT_EQ(got_points.size(), want_points.size());
    for (std::size_t p = 0; p < got_points.size(); ++p) {
      EXPECT_EQ(got_points[p].t, want_points[p].t);
      EXPECT_EQ(got_points[p].informed, want_points[p].informed);
    }
    EXPECT_EQ(got.get<TxHistogramObserver>().sends(),
              want.get<TxHistogramObserver>().sends());
    EXPECT_EQ(got.get<InformedLatencyObserver>().latencies(),
              want.get<InformedLatencyObserver>().latencies());
  }
}

TEST(TelemetryBitIdentity, BatchedFallbackSpanNamesItsReason) {
  // Median-counter's stamp/on_receive hooks and four-choice's
  // state-dependent action keep both off the lockstep kernel: each batch
  // runs lane by lane on PhoneCallEngine, and the trace says so — with the
  // refusal reason and a lane count — without changing a single output.
  TelemetryGuard guard;
  Rng grng(0x7e1e04);
  const Graph g = random_regular_simple(128, 6, grng);
  const std::pair<BroadcastScheme, const char*> cases[] = {
      {BroadcastScheme::kMedianCounter, "protocol hooks"},
      {BroadcastScheme::kFourChoice, "state-dependent action"},
  };
  for (const auto& [scheme, reason] : cases) {
    SCOPED_TRACE(scheme_name(scheme));
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0x7e1e05;
    opt.trials = 9;
    opt.runner.threads = 2;
    opt.runner.batch = 4;
    const TrialOutcome plain = broadcast_trials(g, opt);

    telemetry::enable();
    const TrialOutcome traced = broadcast_trials(g, opt);
    telemetry::enable(false);
    const std::vector<telemetry::Event> events = telemetry::drain();

    const telemetry::Event* fallback =
        find_event(events, 'X', "batched:sequential");
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(fallback->category, "batched");
    EXPECT_NE(fallback->args_json.find(std::string("\"reason\":\"") +
                                       reason + "\""),
              std::string::npos)
        << fallback->args_json;
    EXPECT_EQ(find_event(events, 'X', "batched:general"), nullptr);
    EXPECT_EQ(find_event(events, 'X', "batched:bitmask"), nullptr);
    const telemetry::Event* lanes =
        find_event(events, 'C', "batched.sequential_lanes");
    ASSERT_NE(lanes, nullptr);
    EXPECT_EQ(lanes->args_json, "{\"value\":9}");

    ASSERT_EQ(traced.runs.size(), plain.runs.size());
    for (std::size_t i = 0; i < traced.runs.size(); ++i) {
      SCOPED_TRACE("trial " + std::to_string(i));
      const RunResult& a = traced.runs[i];
      const RunResult& b = plain.runs[i];
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.completion_round, b.completion_round);
      EXPECT_EQ(a.push_tx, b.push_tx);
      EXPECT_EQ(a.pull_tx, b.pull_tx);
      EXPECT_EQ(a.channels_opened, b.channels_opened);
      EXPECT_EQ(a.final_informed, b.final_informed);
      EXPECT_EQ(a.all_informed, b.all_informed);
    }
    EXPECT_EQ(traced.rounds.mean, plain.rounds.mean);
    EXPECT_EQ(traced.total_tx.mean, plain.total_tx.mean);
  }

  // A campaign's static cells run each trial as a one-lane batched group,
  // so a trace names the kernel every cell ran: the classic kernel under
  // push's (cell, trial) spans, the fallback with its reason under
  // four-choice's.
  exp::CampaignSpec spec = all_schemes_spec();
  spec.trials = 2;
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kFourChoice};
  const auto cells = exp::expand_cells(spec);
  ASSERT_EQ(cells.size(), 2U);
  exp::CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = temp_path("kernels");
  telemetry::enable();
  (void)exp::CampaignRunner(spec, config).run();
  telemetry::enable(false);
  const std::vector<telemetry::Event> events = telemetry::drain();

  // The batched spans nested in cell `key`'s spans: same thread, and inside
  // the cell span's interval.
  const auto kernels_under = [&events](const std::string& key) {
    std::vector<const telemetry::Event*> nested;
    for (const telemetry::Event& cell : events) {
      if (cell.phase != 'X' || cell.name != key) continue;
      for (const telemetry::Event& event : events)
        if (event.phase == 'X' && event.category == "batched" &&
            event.pid == cell.pid && event.tid == cell.tid &&
            event.ts_us >= cell.ts_us &&
            event.ts_us + event.dur_us <= cell.ts_us + cell.dur_us)
          nested.push_back(&event);
    }
    return nested;
  };
  const auto push_kernels = kernels_under(cells[0].key);
  ASSERT_EQ(push_kernels.size(), 2U) << cells[0].key;
  for (const telemetry::Event* kernel : push_kernels)
    EXPECT_EQ(kernel->name, "batched:classic");
  const auto four_choice_kernels = kernels_under(cells[1].key);
  ASSERT_EQ(four_choice_kernels.size(), 2U) << cells[1].key;
  for (const telemetry::Event* kernel : four_choice_kernels) {
    EXPECT_EQ(kernel->name, "batched:sequential");
    EXPECT_NE(kernel->args_json.find("\"reason\":\"state-dependent action\""),
              std::string::npos)
        << kernel->args_json;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(TelemetryBitIdentity, CampaignArtifactsByteIdenticalAndTimingExcluded) {
  TelemetryGuard guard;
  exp::CampaignSpec spec = all_schemes_spec();
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kMedianCounter};

  const auto run_campaign = [&spec](const std::string& dir) {
    exp::CampaignConfig config;
    config.runner.threads = 2;
    config.out_dir = dir;
    return exp::CampaignRunner(spec, config).run();
  };
  const exp::CampaignOutcome plain = run_campaign(temp_path("plain"));
  telemetry::enable();
  const exp::CampaignOutcome traced = run_campaign(temp_path("traced"));
  telemetry::enable(false);
  telemetry::drain();

  // Every deterministic artifact is byte-identical with telemetry on.
  EXPECT_EQ(read_file(traced.results_json_path),
            read_file(plain.results_json_path));
  EXPECT_EQ(read_file(traced.results_csv_path),
            read_file(plain.results_csv_path));
  EXPECT_EQ(read_file(traced.meta_path), read_file(plain.meta_path));
  EXPECT_EQ(read_file(traced.manifest_path), read_file(plain.manifest_path));

  // timing.jsonl is the sanctioned sink: per-cell schema with the wall time
  // and RSS — and none of its keys appear in the deterministic records.
  std::istringstream timing(read_file(traced.timing_path));
  std::string line;
  std::size_t timing_lines = 0;
  while (std::getline(timing, line)) {
    ++timing_lines;
    const auto parsed = exp::parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE(parsed->find_plain("key").has_value());
    EXPECT_TRUE(parsed->find_number("wall_ms").has_value());
    EXPECT_TRUE(parsed->find_number("trials").has_value());
    EXPECT_TRUE(parsed->find_number("trials_per_s").has_value());
    const auto rss = parsed->find_number("peak_rss_bytes");
    ASSERT_TRUE(rss.has_value());
    EXPECT_GT(*rss, 0.0);
  }
  EXPECT_EQ(timing_lines, exp::expand_cells(spec).size());
  for (const std::string_view key :
       {"wall_ms", "trials_per_s", "peak_rss_bytes"}) {
    EXPECT_EQ(read_file(traced.results_json_path).find(key),
              std::string::npos)
        << key << " leaked into a deterministic artifact";
  }
}

}  // namespace
}  // namespace rrb
