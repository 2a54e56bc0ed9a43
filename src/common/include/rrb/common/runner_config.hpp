#pragma once

/// \file runner_config.hpp
/// Scheduling knobs for the parallel trial runner (rrb/sim/runner.hpp).
///
/// The struct lives in common — below every other module — so that option
/// structs anywhere in the stack (TrialConfig, TraceConfig,
/// BroadcastOptions) can embed it without depending on sim, where the
/// worker pool itself is implemented.

namespace rrb {

/// How repeated trials are scheduled across worker threads.
///
/// Whatever values are chosen, results are bit-identical to the
/// sequential path: trial i's randomness depends only on (seed, i) — see
/// Rng::fork — and per-trial results are reduced in trial order. Threads
/// and chunking only change wall-clock time, never output.
struct RunnerConfig {
  /// Worker threads. 0 = automatic: $RRB_THREADS when set to a positive
  /// integer, otherwise one per hardware core. 1 = run inline on the
  /// calling thread (no pool is spawned).
  int threads = 0;

  /// Consecutive trials claimed per scheduling task — scheduling
  /// granularity only. 0 = automatic: ceil(trials / (4 · workers)), i.e.
  /// about four chunks per worker, enough slack for dynamic load balancing
  /// with few claims on the shared counter. Larger explicit chunks amortise
  /// scheduling overhead further when trials are tiny.
  int chunk = 0;

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

}  // namespace rrb
