#include "rrb/common/runner_config.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "rrb/common/check.hpp"

namespace rrb {

namespace {

/// $RRB_THREADS as a positive int, or 0 when unset/unparseable. Malformed
/// values fall back to auto-detection rather than aborting a long sweep.
/// The thread count only schedules work, so this env read never reaches a
/// recorded artifact.
int env_threads() {
  const char* raw = std::getenv("RRB_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < 1 || v > 65536) return 0;
  return static_cast<int>(v);
}

/// CPUs the calling thread may run on: its affinity mask's size (taskset,
/// cpusets), else hardware_concurrency(), which counts every online core
/// whether or not this process may use it.
int available_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    if (const int count = CPU_COUNT(&set); count > 0) return count;
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

int resolve_threads(const RunnerConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const int env = env_threads(); env > 0) return env;
  return available_cpus();
}

void parallel_for(int tasks, int workers,
                  const std::function<void(int)>& task) {
  RRB_REQUIRE(tasks >= 0, "parallel_for: tasks must be >= 0");
  RRB_REQUIRE(task != nullptr, "parallel_for needs a callable");
  if (workers > tasks) workers = tasks;
  if (workers <= 1) {
    for (int index = 0; index < tasks; ++index) task(index);
    return;
  }

  // Dynamic scheduling: workers claim the next index off a shared counter.
  // Which worker runs which index varies run to run; the caller's
  // index-keyed slots make that invisible in the output.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(tasks));
  std::atomic<int> next{0};
  std::atomic<bool> abort{false};
  const auto work = [&]() {
    while (!abort.load(std::memory_order_relaxed)) {
      const int index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= tasks) return;
      try {
        task(index);
      } catch (...) {
        errors[static_cast<std::size_t>(index)] = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int i = 0; i < workers; ++i) pool.emplace_back(work);
  } catch (...) {
    // A failed spawn must not destroy joinable threads: stop the claims,
    // drain the workers already running, and report the spawn failure.
    abort.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();

  for (std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace rrb
