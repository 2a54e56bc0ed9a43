#pragma once

/// \file spans.hpp
/// Summary of the spans the library already emits (rrb::telemetry), grouped
/// by (category, name) into count, total time and self time, plus the two
/// ratios the traced run derives from them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rrb/telemetry/telemetry.hpp"

namespace perfbench {

struct SpanStat {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus time covered by child spans on the
                         ///< same thread
};

struct SpanSummary {
  /// Keyed "category/name"; per-cell campaign spans fold into
  /// "campaign/cell" so the key set does not depend on the grid.
  std::map<std::string, SpanStat> by_key;

  /// Busy runner chunks over offered worker time: sum of runner/chunk
  /// durations / sum of (runner/for_each_chunk duration x its workers).
  double chunk_busy_share = 0.0;

  /// Time covered by the direct children of the perfbench/pass span (the
  /// harness's own spans around calls into named modules) over the pass.
  double attributed_share = 0.0;
};

[[nodiscard]] SpanSummary summarise_spans(
    const std::vector<rrb::telemetry::Event>& events);

/// The spans reported as per-layer metrics: metric stem -> summary key.
struct TrackedSpan {
  const char* metric;  ///< e.g. "span.batched.classic"
  const char* key;     ///< e.g. "batched/batched:classic"
};
[[nodiscard]] const std::vector<TrackedSpan>& tracked_spans();

}  // namespace perfbench
