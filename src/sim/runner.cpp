#include "rrb/sim/runner.hpp"

#include <algorithm>
#include <string>

#include "rrb/common/check.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb {

ParallelRunner::ParallelRunner(RunnerConfig config) : config_(config) {
  RRB_REQUIRE(config_.threads >= 0, "RunnerConfig.threads must be >= 0");
  RRB_REQUIRE(config_.chunk >= 0, "RunnerConfig.chunk must be >= 0");
  RRB_REQUIRE(config_.batch >= 0, "RunnerConfig.batch must be >= 0");
}

int ParallelRunner::resolved_chunk(int trials) const {
  if (config_.chunk > 0) return config_.chunk;
  // Bounded default: ~4 chunks per worker keeps dynamic load balancing
  // effective with few claims on the shared counter.
  const long long slots = 4LL * rrb::resolve_threads(config_);
  const long long chunk = (static_cast<long long>(trials) + slots - 1) / slots;
  return static_cast<int>(std::max(1LL, chunk));
}

int ParallelRunner::num_chunks(int trials) const {
  // 64-bit intermediate: chunk may be INT_MAX and trials + chunk - 1
  // must not overflow.
  const long long chunk = resolved_chunk(trials);
  return static_cast<int>((trials + chunk - 1) / chunk);
}

std::pair<int, int> ParallelRunner::chunk_bounds(int index, int trials) const {
  RRB_REQUIRE(index >= 0 && index < num_chunks(trials),
              "chunk index out of range");
  const long long chunk = resolved_chunk(trials);
  const long long begin = index * chunk;
  const long long end = std::min<long long>(trials, begin + chunk);
  return {static_cast<int>(begin), static_cast<int>(end)};
}

void ParallelRunner::for_each_chunk(
    int trials, const std::function<void(int, int, int)>& fn) const {
  RRB_REQUIRE(trials >= 0, "trials must be >= 0");
  RRB_REQUIRE(fn != nullptr, "for_each_chunk needs a callable");
  if (trials == 0) return;

  const int chunks = num_chunks(trials);
  const int workers = std::min(chunks, rrb::resolve_threads(config_));

  telemetry::Span pool_span("runner", "for_each_chunk");
  if (pool_span.active())
    pool_span.set_args("{\"trials\":" + std::to_string(trials) +
                       ",\"chunks\":" + std::to_string(chunks) +
                       ",\"workers\":" + std::to_string(workers) + "}");

  parallel_for(chunks, workers, [&](int index) {
    const auto [begin, end] = chunk_bounds(index, trials);
    telemetry::Span chunk_span("runner", "chunk");
    if (chunk_span.active())
      chunk_span.set_args("{\"begin\":" + std::to_string(begin) +
                          ",\"end\":" + std::to_string(end) + "}");
    fn(index, begin, end);
  });
}

void ParallelRunner::for_each_trial(
    int trials, const std::function<void(int)>& fn) const {
  RRB_REQUIRE(fn != nullptr, "for_each_trial needs a callable");
  for_each_chunk(trials, [&fn](int /*index*/, int begin, int end) {
    for (int trial = begin; trial < end; ++trial) fn(trial);
  });
}

}  // namespace rrb
