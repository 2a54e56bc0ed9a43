#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace perfbench {

namespace {

/// The integer value of `"field":<int>` in a flat args object, or 0.
std::int64_t arg_int(const std::string& args, std::string_view field) {
  const std::string needle = "\"" + std::string(field) + "\":";
  const std::size_t at = args.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoll(args.c_str() + at + needle.size(), nullptr, 10);
}

std::string summary_key(const rrb::telemetry::Event& event) {
  if (event.category == "campaign") return "campaign/cell";
  return event.category + "/" + event.name;
}

}  // namespace

const std::vector<TrackedSpan>& tracked_spans() {
  static const std::vector<TrackedSpan> spans = {
      {"span.runner.chunk", "runner/chunk"},
      {"span.runner.for_each_chunk", "runner/for_each_chunk"},
      {"span.engine.run", "engine/run"},
      {"span.batched.classic", "batched/batched:classic"},
      {"span.batched.bitmask", "batched/batched:bitmask"},
      {"span.batched.general", "batched/batched:general"},
      {"span.bigtopo.config-model", "bigtopo/config-model"},
      {"span.bigtopo.fill", "bigtopo/config-model/fill"},
      {"span.bigtopo.sort", "bigtopo/config-model/sort"},
      {"span.campaign.cell", "campaign/cell"},
  };
  return spans;
}

SpanSummary summarise_spans(const std::vector<rrb::telemetry::Event>& events) {
  std::vector<const rrb::telemetry::Event*> spans;
  for (const rrb::telemetry::Event& event : events)
    if (event.phase == 'X') spans.push_back(&event);
  // Per thread, parents before children: start ascending, longer first.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->pid != b->pid) return a->pid < b->pid;
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });

  SpanSummary summary;
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  double pass_us = 0.0;
  double pass_children_us = 0.0;
  double chunk_us = 0.0;
  double offered_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const rrb::telemetry::Event& event = *spans[i];
    if (i > 0 && (spans[i - 1]->pid != event.pid ||
                  spans[i - 1]->tid != event.tid))
      stack.clear();
    while (!stack.empty()) {
      const rrb::telemetry::Event& top = *spans[stack.back()];
      if (top.ts_us + top.dur_us > event.ts_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      child_us[stack.back()] += static_cast<double>(event.dur_us);
      const rrb::telemetry::Event& parent = *spans[stack.back()];
      if (parent.category == "perfbench" && parent.name == "pass")
        pass_children_us += static_cast<double>(event.dur_us);
    }
    stack.push_back(i);

    if (event.category == "perfbench" && event.name == "pass")
      pass_us += static_cast<double>(event.dur_us);
    if (event.category == "runner" && event.name == "chunk")
      chunk_us += static_cast<double>(event.dur_us);
    if (event.category == "runner" && event.name == "for_each_chunk")
      offered_us += static_cast<double>(event.dur_us) *
                    static_cast<double>(
                        std::max<std::int64_t>(1, arg_int(event.args_json,
                                                           "workers")));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStat& stat = summary.by_key[summary_key(*spans[i])];
    const double dur_us = static_cast<double>(spans[i]->dur_us);
    ++stat.count;
    stat.total_ms += dur_us / 1000.0;
    stat.self_ms += std::max(0.0, dur_us - child_us[i]) / 1000.0;
  }
  summary.chunk_busy_share = offered_us > 0.0 ? chunk_us / offered_us : 0.0;
  summary.attributed_share =
      pass_us > 0.0 ? std::min(1.0, pass_children_us / pass_us) : 0.0;
  return summary;
}

}  // namespace perfbench
