#pragma once

#include <functional>
#include <utility>

#include "rrb/common/runner_config.hpp"

/// \file runner.hpp
/// Deterministic parallel trial runner.
///
/// Executes trial bodies across a worker pool with dynamic (work-stealing
/// counter) scheduling. The runner guarantees nothing about *execution*
/// order; callers obtain thread-count-independent results by following the
/// seeding contract:
///
///   1. all randomness of trial i is drawn from Rng(seed).fork(i), so no
///      trial observes any other trial's draws;
///   2. each trial writes only into its own slot (indexed by trial or by
///      chunk), and the slots are reduced sequentially in trial order
///      after the pool has drained.
///
/// Under those two rules the output is bit-identical for every
/// RunnerConfig — threads = 1 vs 8, chunked vs unchunked — which is what
/// the determinism regression suite (tests/test_runner.cpp) pins down.

namespace rrb {

class ParallelRunner {
 public:
  /// Throws std::logic_error on negative threads/chunk.
  explicit ParallelRunner(RunnerConfig config = {});

  /// Worker threads a pool built from `config` would use, before capping
  /// by the number of tasks: rrb::resolve_threads (runner_config.hpp).
  [[nodiscard]] static int resolve_threads(const RunnerConfig& config) {
    return rrb::resolve_threads(config);
  }

  /// Trials claimed per scheduling task: config.chunk when positive, else
  /// ceil(trials / (4 · resolve_threads())) — about four chunks per
  /// worker.
  [[nodiscard]] int resolved_chunk(int trials) const;

  /// Number of contiguous chunks [begin, end) that cover [0, trials).
  /// Depends on (trials, chunk) and — only when chunk is defaulted — on
  /// the resolved worker count. Either way the chunking contract applies:
  /// chunks are contiguous ascending trial ranges reduced in chunk order,
  /// so results are byte-identical for every chunking (pinned by
  /// tests/test_runner.cpp).
  [[nodiscard]] int num_chunks(int trials) const;

  /// Half-open trial range of chunk `index`.
  [[nodiscard]] std::pair<int, int> chunk_bounds(int index, int trials) const;

  /// Invoke fn(chunk_index, begin, end) once per chunk, concurrently on up
  /// to resolve_threads() workers via rrb::parallel_for (inline on the
  /// calling thread when one worker suffices). fn runs on multiple threads
  /// at once and must only touch chunk-local state. If chunks throw, the
  /// remaining chunks are abandoned, the pool drains, and the exception of
  /// the lowest-indexed failing chunk is rethrown.
  void for_each_chunk(int trials,
                      const std::function<void(int, int, int)>& fn) const;

  /// Convenience wrapper: fn(trial) for every trial in [0, trials).
  void for_each_trial(int trials, const std::function<void(int)>& fn) const;

 private:
  RunnerConfig config_;
};

}  // namespace rrb
