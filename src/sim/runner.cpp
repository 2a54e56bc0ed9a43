#include "rrb/sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb {

namespace {

/// $RRB_THREADS as a positive int, or 0 when unset/unparseable. Malformed
/// values fall back to auto-detection rather than aborting a long sweep.
int env_threads() {
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — the thread count
  // only schedules work; the (seed, i) contract keeps outputs identical for
  // every value, so this env read can never reach a recorded artifact.
  const char* raw = std::getenv("RRB_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 1 || v > 65536) return 0;
  return static_cast<int>(v);
}

}  // namespace

ParallelRunner::ParallelRunner(RunnerConfig config) : config_(config) {
  RRB_REQUIRE(config_.threads >= 0, "RunnerConfig.threads must be >= 0");
  RRB_REQUIRE(config_.chunk >= 0, "RunnerConfig.chunk must be >= 0");
  RRB_REQUIRE(config_.batch >= 0, "RunnerConfig.batch must be >= 0");
}

int ParallelRunner::resolve_threads(const RunnerConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const int env = env_threads(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ParallelRunner::resolved_chunk(int trials) const {
  if (config_.chunk > 0) return config_.chunk;
  // Bounded default: ~4 chunks per worker keeps dynamic load balancing
  // effective with few claims on the shared counter.
  const long long slots = 4LL * resolve_threads(config_);
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
  const int workers = std::min(chunks, resolve_threads(config_));

  telemetry::Span pool_span("runner", "for_each_chunk");
  if (pool_span.active())
    pool_span.set_args("{\"trials\":" + std::to_string(trials) +
                       ",\"chunks\":" + std::to_string(chunks) +
                       ",\"workers\":" + std::to_string(workers) + "}");

  if (workers <= 1) {
    for (int index = 0; index < chunks; ++index) {
      const auto [begin, end] = chunk_bounds(index, trials);
      telemetry::Span chunk_span("runner", "chunk");
      if (chunk_span.active())
        chunk_span.set_args("{\"begin\":" + std::to_string(begin) +
                            ",\"end\":" + std::to_string(end) + "}");
      fn(index, begin, end);
    }
    return;
  }

  // Dynamic scheduling: workers claim the next chunk off a shared counter.
  // Which worker runs which chunk varies run to run; the caller's
  // chunk-indexed slots make that invisible in the output.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chunks));
  std::atomic<int> next{0};
  std::atomic<bool> abort{false};
  const auto work = [&]() {
    while (!abort.load(std::memory_order_relaxed)) {
      const int index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= chunks) return;
      const auto [begin, end] = chunk_bounds(index, trials);
      telemetry::Span chunk_span("runner", "chunk");
      if (chunk_span.active())
        chunk_span.set_args("{\"begin\":" + std::to_string(begin) +
                            ",\"end\":" + std::to_string(end) + "}");
      try {
        fn(index, begin, end);
      } catch (...) {
        errors[static_cast<std::size_t>(index)] = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();

  for (std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

void ParallelRunner::for_each_trial(
    int trials, const std::function<void(int)>& fn) const {
  RRB_REQUIRE(fn != nullptr, "for_each_trial needs a callable");
  for_each_chunk(trials, [&fn](int /*index*/, int begin, int end) {
    for (int trial = begin; trial < end; ++trial) fn(trial);
  });
}

}  // namespace rrb
