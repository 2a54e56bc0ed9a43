#pragma once

#include <functional>

/// \file runner_config.hpp
/// Scheduling knobs for the parallel trial runner (rrb/sim/runner.hpp),
/// and the one worker pool every parallel loop in the library runs on.
///
/// Both live in common — below every other module — so that option
/// structs anywhere in the stack (TrialConfig, TraceConfig,
/// BroadcastOptions) can embed the knobs, and modules below sim (bigtopo)
/// can share the pool, without depending on sim.

namespace rrb {

/// How repeated trials are scheduled across worker threads.
///
/// Whatever values are chosen, results are bit-identical to the
/// sequential path: trial i's randomness depends only on (seed, i) — see
/// Rng::fork — and per-trial results are reduced in trial order. Threads
/// and batching only change wall-clock time, never output. How many
/// trials a worker claims at a time is not a knob: the runner picks it
/// (rrb/sim/runner.hpp).
struct RunnerConfig {
  /// Worker threads. 0 = automatic: $RRB_THREADS when set to a positive
  /// integer, otherwise one per CPU the calling thread may run on (see
  /// resolve_threads). 1 = run inline on the
  /// calling thread (no pool is spawned).
  int threads = 0;

  /// Trials advanced in lockstep per BatchedPhoneCallEngine call on
  /// execution paths that support batching — trial sweeps over one fixed
  /// graph (broadcast_trials and run_trials on a Graph). 0 = sequential
  /// engine, one run per trial. Batching is pure scheduling: each lane
  /// keeps its own Rng(seed).fork(i) stream and draw order, so any batch
  /// value produces bit-identical output (pinned by
  /// tests/test_batched_engine.cpp). Paths that rebuild the topology per
  /// trial (GraphFactory sweeps, campaign cells, traces) ignore it.
  int batch = 0;
};

/// Worker threads a pool built from `config` would use, before capping by
/// the number of tasks: config.threads when positive, else $RRB_THREADS
/// when set to a positive integer, else one per CPU in the calling
/// thread's affinity mask (hardware_concurrency() where there is no mask;
/// minimum 1).
[[nodiscard]] int resolve_threads(const RunnerConfig& config);

/// Invoke task(i) once for every i in [0, tasks) on up to `workers`
/// threads that claim the next index off a shared counter; with
/// workers <= 1 (or a single task) every call runs inline on the calling
/// thread, in index order. task runs on several threads at once and must
/// only touch index-local state. When tasks throw, no further index is
/// claimed, the pool drains, and the exception of the lowest index that
/// threw is rethrown. Indices are claimed in ascending order and a
/// claimed index always runs, so that is the lowest throwing index
/// overall, whatever the schedule.
void parallel_for(int tasks, int workers, const std::function<void(int)>& task);

}  // namespace rrb
