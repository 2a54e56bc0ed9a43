#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/common/types.hpp"
#include "rrb/phonecall/channel_sampler.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/phonecall/protocol.hpp"
#include "rrb/phonecall/result.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/telemetry/telemetry.hpp"

/// \file batched_engine.hpp
/// Trial-batched execution: advance B independent trials ("lanes") in
/// lockstep over ONE shared, immutable topology.
///
/// PhoneCallEngine walks the topology's CSR once per trial; a trial sweep
/// over a fixed graph therefore re-streams the same adjacency arrays from
/// memory once per trial and is latency-bound. BatchedPhoneCallEngine's
/// lockstep kernel restructures the sweep: per round, one cache-blocked
/// scan over the nodes serves every lane — a block's offsets and CSR rows
/// are fetched once and stay cache-hot across all B lanes — and each
/// lane's round state is a transposed informed bitmap.
///
/// Reached through the trial sweep (detail::sweep_group in
/// rrb/sim/trial.hpp): a per-trial graph runs each trial as a one-lane
/// group, where the classic kernel still beats PhoneCallEngine on the
/// classical schemes, and a fixed graph runs groups of RunnerConfig::batch
/// lanes when batch >= 1. A fixed graph at batch 0 stays on
/// PhoneCallEngine, the sequential reference the bit-identity tests use.
///
/// Determinism: batching is scheduling, never semantics. Lane i runs on its
/// own Rng — the caller derives it as Rng(seed).fork(i) per the seeding
/// contract — and the kernel makes exactly the draws the sequential engine
/// makes, in the same per-lane order (rounds ascending, nodes ascending
/// within a round). Because no lane ever observes another lane's stream,
/// interleaving the lanes is invisible: every RunResult and every observer
/// is bit-identical to a PhoneCallEngine run of the same trial (ROADMAP.md
/// draw-order invariant; pinned for all eight schemes by
/// tests/test_batched_engine.cpp). Both engines stop drawing at the same
/// round: a classic lane whose round starts with every node informed skips
/// the sweep and is charged its channels from its action alone, as
/// PhoneCallEngine's post-completion fast-forward does (engine.hpp).
///
/// Kernel ladder, chosen per lane group by batched_kernel_for() below:
///  1. classic — state-oblivious protocols (kActionIgnoresState: push,
///     pull, push&pull, fixed-horizon) with one reliable call per round:
///     per-lane transposed informed bitmaps, no per-node action scan, and
///     one cache-blocked sweep per round that fuses each lane's draws with
///     its deliveries;
///  2. sequential — everything else runs lane by lane on PhoneCallEngine,
///     each lane on its own Rng, source and observer, so its draws match
///     by construction. The refusal reason is one of "protocol hooks"
///     (on_round_start / stamp / on_receive, which every type-erased
///     BroadcastProtocol exposes), "observer hooks", "quasirandom",
///     "memory > 0", "lanes > 64", "dead nodes", "state-dependent action"
///     (a hook-free protocol that does not declare kActionIgnoresState,
///     e.g. four-choice), "choices > 1" or "failure_prob > 0".
/// A lockstep kernel must be measurably faster than the sequential engine
/// on the schemes it serves, or it is deleted and its lanes fall back
/// (ROADMAP.md; bench_micro_engine's trials/* rows measure each rung).
///
/// Scope: the topology must not change during a run — there is no round
/// hook and no churn path here (lanes advance through different logical
/// "times" of their own trials, so a shared mutating topology cannot be
/// meaningful). Anything needing hooks, channel failures or failure
/// models runs on PhoneCallEngine.
///
/// Protocols are passed as a span of per-lane instances of one static type
/// (the scheme dispatch hands every lane the same concrete protocol), and
/// observers as a span of per-lane observers; both hook vocabularies are
/// `requires`-detected exactly as in PhoneCallEngine::run().

namespace rrb {

namespace detail {

/// True when the protocol *declares* (via a `static constexpr bool
/// kActionIgnoresState = true;` member) that action(v, state, t) depends
/// only on the round number — never on the node id or its local state.
/// All four classical baselines qualify: push/pull/push&pull answer a
/// constant, fixed-horizon push answers a function of t. For such
/// protocols the lockstep kernel asks action() once per lane per round
/// instead of walking every (node, lane) pair — the declaration is a
/// contract, and a protocol that declares it untruthfully fails the
/// batched-vs-sequential bit-identity suite.
template <typename P>
inline constexpr bool kStateObliviousAction = requires {
  requires P::kActionIgnoresState;
};

/// True when the observer type implements none of the observer hooks the
/// engines fire (the bare NoMetrics observer, notably). The lockstep
/// kernel keeps no per-lane node-order view to hand an observer.
template <typename O>
inline constexpr bool kLaneHookFreeObserver =
    !requires(O& o, NodeId n, std::span<const NodeId> s) {
      o.on_run_begin(n, s);
    } && !requires(O& o, Round t) { o.on_round_begin(t); } &&
    !requires(O& o, const TransmissionEvent& e) { o.on_transmission(e); } &&
    !requires(O& o, NodeId v, Round t) { o.on_node_informed(v, t); } &&
    !requires(O& o, const RoundStats& r, std::span<const Round> ia) {
      o.on_round_end(r, ia);
    } && !requires(O& o, const RunResult& r, std::span<const Round> ia) {
      o.on_run_end(r, ia);
    };

}  // namespace detail

/// The rungs of the batched engine's kernel ladder (see the file comment).
enum class BatchedKernel : std::uint8_t { kClassic, kSequential };

/// "classic" or "sequential" — the suffix of the kernel's telemetry span
/// name ("batched:<name>").
[[nodiscard]] constexpr const char* batched_kernel_name(BatchedKernel k) {
  return k == BatchedKernel::kClassic ? "classic" : "sequential";
}

/// A kernel choice and, for the sequential fallback, the first feature the
/// lockstep kernel does not model ("" when the lockstep kernel was chosen).
struct BatchedKernelChoice {
  BatchedKernel kernel = BatchedKernel::kSequential;
  const char* reason = "";
};

/// The kernel BatchedPhoneCallEngine::run dispatches a group of `lanes`
/// lanes to. Pure: depends only on the protocol and observer types, the
/// channel model, the lane count and whether every topology slot is alive.
template <ProtocolImpl ProtocolT, typename ObserverT, Topology TopologyT>
[[nodiscard]] BatchedKernelChoice batched_kernel_for(
    const ChannelConfig& config, std::size_t lanes, const TopologyT& topo) {
  constexpr auto sequential = [](const char* reason) {
    return BatchedKernelChoice{BatchedKernel::kSequential, reason};
  };
  if constexpr (!detail::kHookFreeProtocol<ProtocolT>) {
    return sequential("protocol hooks");
  } else if constexpr (!detail::kLaneHookFreeObserver<ObserverT>) {
    return sequential("observer hooks");
  } else {
    if (config.quasirandom) return sequential("quasirandom");
    if (config.memory > 0) return sequential("memory > 0");
    if (lanes > 64) return sequential("lanes > 64");
    if (topo.num_alive() != topo.num_slots()) return sequential("dead nodes");
    if (!detail::kStateObliviousAction<ProtocolT>)
      return sequential("state-dependent action");
    if (config.num_choices > 1) return sequential("choices > 1");
    if (config.failure_prob > 0.0) return sequential("failure_prob > 0");
    return {BatchedKernel::kClassic, ""};
  }
}

template <Topology TopologyT>
class BatchedPhoneCallEngine {
 public:
  /// The topology is shared by every lane and must stay immutable for the
  /// lifetime of each run(). The config applies to all lanes (a batch is a
  /// sweep of one experiment cell, which fixes the channel model).
  BatchedPhoneCallEngine(const TopologyT& topo, ChannelConfig config)
      : topo_(&topo), config_(config) {
    validate_channel(config_);
  }

  /// Run lane b = 0..B-1 from sources[b] with *protocols[b] on rngs[b],
  /// all lanes in lockstep, until every lane has terminated (per-lane
  /// protocol termination / oracle completion) or limits.max_rounds
  /// elapse. Returns the per-lane RunResults in lane order.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> run(std::span<ProtocolT* const> protocols,
                             std::span<const NodeId> sources,
                             std::span<Rng> rngs, const RunLimits& limits) {
    std::vector<detail::NoMetrics> none(protocols.size());
    return run(protocols, sources, rngs, limits,
               std::span<detail::NoMetrics>(none));
  }

  /// Instrumented lanes: observers[b] receives lane b's hooks with the
  /// exact arguments the sequential engine would fire for that trial.
  template <ProtocolImpl ProtocolT, typename ObserverT>
  std::vector<RunResult> run(std::span<ProtocolT* const> protocols,
                             std::span<const NodeId> sources,
                             std::span<Rng> rngs, const RunLimits& limits,
                             std::span<ObserverT> observers);

 private:
  /// Nodes per block of the classic kernel's sweep. A block's working set
  /// is about kClassicBlock x (one 64-byte CSR line + a 4-byte offset)
  /// ~ 0.55 MB, so it fits a 2 MB per-core L2 at any degree.
  static constexpr NodeId kClassicBlock = NodeId{1} << 13;

  /// The classical-scheme kernel: state-oblivious protocols (push / pull /
  /// push&pull / fixed-horizon) with one reliable call per round. Lane
  /// state is a transposed bitmap — lane b's informed set is W = ceil(n/64)
  /// words, bit v = node v, n/8 bytes per lane — and there is no per-node
  /// action scan at all (one action() call per lane fixes the round).
  ///
  /// A round is one cache-blocked sweep: the outer loop walks blocks of
  /// kClassicBlock nodes, and inside a block every active lane makes one
  /// fused pass (classic_block) that draws each node's callee and delivers
  /// at once. A block's offsets and CSR rows (~0.55 MB whatever the degree)
  /// stay in L2, so only the first lane streams them from memory; the
  /// lanes after it re-read them from cache. Each lane still draws once per
  /// non-isolated node, nodes ascending, on its own stream, so the kernel
  /// is draw-for-draw identical to the sequential engine.
  /// A pass works on a local copy of the lane's Rng, written back at the
  /// end: the bitmap stores are uint64_t like the xoshiro state, so through
  /// the caller's Rng the compiler would reload and store that state around
  /// every draw.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> run_classic(
      std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
      std::span<Rng> rngs, const RunLimits& limits);

  /// One lane's pass of the classic sweep over nodes [lo, hi): each
  /// non-isolated node draws its callee and delivers against the lane's
  /// round-start snapshot `snap` into its live bitmap `bits`. kPush/kPull
  /// are the lane's action this round (neither: a draw-only pass). Returns
  /// how many nodes the pass informed.
  template <bool kPush, bool kPull>
  Count classic_block(NodeId lo, NodeId hi, Rng& lane_rng,
                      std::uint64_t* bits, const std::uint64_t* snap,
                      RoundStats& round) const;

  /// Lane bookkeeping, in PhoneCallEngine's exact order so the RunResults
  /// come out identical. start_lanes resets every lane's protocol and
  /// counters, validates its source (which the kernel then marks informed
  /// in its bitmap) and activates every lane.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> start_lanes(std::span<ProtocolT* const> protocols,
                                     std::span<const NodeId> sources);

  /// Fresh RoundStats for every active lane.
  void start_round(Round t) {
    for (const std::size_t b : active_) {
      round_stats_[b] = RoundStats{};
      round_stats_[b].t = t;
      newly_count_[b] = 0;
    }
  }

  /// Fold each active lane's round into its result, test termination, and
  /// drop (and finalize) the lanes that stopped.
  template <ProtocolImpl ProtocolT>
  void end_round(std::span<ProtocolT* const> protocols, Round t,
                 Count channels_per_round, const RunLimits& limits,
                 std::span<RunResult> results);

  /// Lane b stopped after `rounds`. informed_alive_[b] is maintained on
  /// exactly the increments PhoneCallEngine makes, and with every node
  /// alive it equals the informed scan that engine ends a run with.
  void finalize_lane(RunResult& result, std::size_t b, Round rounds) const {
    const Count alive = topo_->num_alive();
    result.rounds = rounds;
    result.alive_at_end = alive;
    result.final_informed = informed_alive_[b];
    result.all_informed = alive > 0 && result.final_informed >= alive;
  }

  /// Lanes still running when max_rounds elapsed stop exactly like the
  /// sequential engine: rounds = max_rounds, completion wherever it got.
  void finish_lanes(std::span<RunResult> results, Round t) {
    for (const std::size_t b : active_) finalize_lane(results[b], b, t);
    active_.clear();
  }

  const TopologyT* topo_;
  ChannelConfig config_;

  // Concatenated per-lane informed bitmaps (live_bits_[b * W + v/64] bit
  // v%64), which deliveries update, and one round-start snapshot per lane
  // in the same layout, which transmissions read. Every lane needs its own
  // snapshot because the blocked sweep interleaves the lanes across node
  // blocks.
  std::vector<std::uint64_t> live_bits_;
  std::vector<std::uint64_t> start_bits_;

  std::vector<Count> informed_alive_;    // per lane, incremental
  std::vector<Count> newly_count_;       // per lane, reset each round
  std::vector<RoundStats> round_stats_;  // per lane, the current round
  std::vector<std::size_t> active_;      // lanes still running, ascending
};

template <Topology TopologyT>
template <ProtocolImpl ProtocolT, typename ObserverT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::run(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
    std::span<Rng> rngs, const RunLimits& limits,
    std::span<ObserverT> observers) {
  const std::size_t lanes = protocols.size();
  RRB_REQUIRE(topo_->num_slots() >= 1, "empty topology");
  RRB_REQUIRE(lanes >= 1, "need at least one lane");
  RRB_REQUIRE(sources.size() == lanes && rngs.size() == lanes &&
                  observers.size() == lanes,
              "per-lane spans must all have one entry per lane");

  const BatchedKernelChoice choice =
      batched_kernel_for<ProtocolT, ObserverT>(config_, lanes, *topo_);

  // Kernel-ladder telemetry: one span per lane group, named after the rung
  // that ran, with the lockstep kernel's refusal reason when it is the
  // fallback. Wall-clock only — never affects draws or outputs.
  telemetry::Span kernel_span(
      "batched", std::string("batched:") + batched_kernel_name(choice.kernel));
  if (kernel_span.active()) {
    std::string args = "{\"lanes\":" + std::to_string(lanes) +
                       ",\"n\":" + std::to_string(topo_->num_slots());
    if (choice.kernel == BatchedKernel::kSequential)
      args += std::string(",\"reason\":\"") + choice.reason + "\"";
    kernel_span.set_args(args + "}");
  }

  if constexpr (detail::kHookFreeProtocol<ProtocolT> &&
                detail::kLaneHookFreeObserver<ObserverT> &&
                detail::kStateObliviousAction<ProtocolT>) {
    if (choice.kernel == BatchedKernel::kClassic)
      return run_classic(protocols, sources, rngs, limits);
  }

  // The fallback: lane by lane on PhoneCallEngine over the shared,
  // read-only topology, each lane on its own Rng, source and observer.
  telemetry::count("batched.sequential_lanes",
                   static_cast<std::int64_t>(lanes));
  std::vector<RunResult> results;
  results.reserve(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    RRB_REQUIRE(protocols[b] != nullptr, "null protocol lane");
    PhoneCallEngine<const TopologyT> engine(*topo_, config_, rngs[b]);
    results.push_back(
        engine.run(*protocols[b], sources[b], limits, observers[b]));
  }
  return results;
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::start_lanes(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources) {
  const NodeId n = topo_->num_slots();
  const std::size_t lanes = protocols.size();
  informed_alive_.assign(lanes, 1);
  newly_count_.assign(lanes, 0);
  round_stats_.resize(lanes);
  active_.resize(lanes);
  std::vector<RunResult> results(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    RRB_REQUIRE(protocols[b] != nullptr, "null protocol lane");
    ProtocolT& proto = *protocols[b];
    if constexpr (requires { proto.reset(n); }) proto.reset(n);
    RRB_REQUIRE(sources[b] < n, "source out of range");
    RRB_REQUIRE(topo_->is_alive(sources[b]), "source must be alive");
    active_[b] = b;
    results[b].n = n;
  }
  return results;
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
void BatchedPhoneCallEngine<TopologyT>::end_round(
    std::span<ProtocolT* const> protocols, Round t, Count channels_per_round,
    const RunLimits& limits, std::span<RunResult> results) {
  const Count alive = topo_->num_alive();  // == n; immutable during the run
  std::size_t keep = 0;
  for (const std::size_t b : active_) {
    RoundStats& round = round_stats_[b];
    RunResult& result = results[b];
    round.channels_opened = channels_per_round;
    round.newly_informed = newly_count_[b];
    round.informed = informed_alive_[b];  // every node is alive
    result.push_tx += round.push_tx;
    result.pull_tx += round.pull_tx;
    result.channels_opened += round.channels_opened;
    result.channels_failed += round.channels_failed;
    if (limits.record_rounds) result.per_round.push_back(round);

    const Count informed_alive = informed_alive_[b];
    if (result.completion_round == kNever && alive > 0 &&
        informed_alive >= alive)
      result.completion_round = t;

    const bool proto_done = protocols[b]->finished(t, informed_alive, alive);
    const bool oracle_done =
        limits.stop_when_all_informed && informed_alive >= alive;
    if (proto_done || oracle_done) {
      finalize_lane(result, b, t);
    } else {
      active_[keep++] = b;
    }
  }
  active_.resize(keep);
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::run_classic(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
    std::span<Rng> rngs, const RunLimits& limits) {
  static_assert(detail::kStateObliviousAction<ProtocolT>);

  const NodeId n = topo_->num_slots();
  const std::size_t lanes = protocols.size();
  const std::size_t W = (static_cast<std::size_t>(n) + 63) / 64;

  live_bits_.assign(lanes * W, 0);
  start_bits_.assign(lanes * W, 0);
  std::vector<RunResult> results = start_lanes(protocols, sources);
  for (std::size_t b = 0; b < lanes; ++b)
    live_bits_[b * W + (sources[b] >> 6)] |= std::uint64_t{1}
                                             << (sources[b] & 63);

  // One reliable call per alive node per round (k == 1 here), so the
  // channels_opened count is the number of non-isolated nodes — a run
  // constant on an immutable topology.
  Count channels_per_round = 0;
  for (NodeId v = 0; v < n; ++v)
    if (detail::topo_degree(*topo_, v) != 0) ++channels_per_round;

  Action actions[64];  // this round's action per lane; lanes <= 64 here
  std::size_t sweep_lanes[64];  // [0, sweeping): this round's drawing lanes
  std::int64_t fast_forward_rounds = 0;  // lane-rounds that skipped the sweep

  Round t = 0;
  while (!active_.empty() && t < limits.max_rounds) {
    ++t;
    start_round(t);

    std::size_t sweeping = 0;
    for (const std::size_t b : active_) {
      // One action() call fixes the whole round (declared contract); every
      // informed node transmits iff it is not kNone.
      NodeLocalState state;  // ignored by contract
      state.informed_at = 0;
      state.is_source = true;
      const Action a = protocols[b]->action(NodeId{0}, state, t);
      if (informed_alive_[b] == n) {
        // Fully informed at round start: every node's one channel carries
        // its push and its callee's pull, and nothing needs a draw.
        RoundStats& round = round_stats_[b];
        if (a != Action::kNone) round.transmitting_nodes = n;
        if (does_push(a)) round.push_tx = channels_per_round;
        if (does_pull(a)) round.pull_tx = channels_per_round;
        ++fast_forward_rounds;
        continue;
      }
      actions[b] = a;
      sweep_lanes[sweeping++] = b;
      if (a == Action::kNone) continue;  // e.g. fixed-horizon past its horizon
      round_stats_[b].transmitting_nodes = informed_alive_[b];
      // Transmissions read the round-start informed set: a node informed
      // mid-round neither pushes nor answers pulls until the next round.
      const std::uint64_t* const lane_bits = live_bits_.data() + b * W;
      std::copy(lane_bits, lane_bits + W, start_bits_.data() + b * W);
    }

    // The blocked sweep. Lanes interleave across blocks, but each lane
    // still visits its nodes in ascending order, so its draws are the
    // sequential engine's; deliveries draw nothing, and the inform updates
    // are set unions whose order within a round does not matter.
    for (NodeId lo = 0, hi = 0; lo < n; lo = hi) {
      hi = n - lo > kClassicBlock ? lo + kClassicBlock : n;
      for (const std::size_t b : std::span(sweep_lanes, sweeping)) {
        std::uint64_t* const bits = live_bits_.data() + b * W;
        const std::uint64_t* const snap = start_bits_.data() + b * W;
        RoundStats& round = round_stats_[b];
        const Action a = actions[b];
        Count newly = 0;
        if (does_pull(a)) {
          newly = does_push(a)
                      ? classic_block<true, true>(lo, hi, rngs[b], bits,
                                                  snap, round)
                      : classic_block<false, true>(lo, hi, rngs[b], bits,
                                                   snap, round);
        } else if (does_push(a)) {
          newly = classic_block<true, false>(lo, hi, rngs[b], bits, snap,
                                             round);
        } else {
          (void)classic_block<false, false>(lo, hi, rngs[b], bits, snap,
                                            round);
        }
        informed_alive_[b] += newly;
        newly_count_[b] += newly;
      }
    }

    end_round(protocols, t, channels_per_round, limits, results);
  }
  finish_lanes(results, t);
  telemetry::count("engine.fast_forward_rounds", fast_forward_rounds);
  return results;
}

template <Topology TopologyT>
template <bool kPush, bool kPull>
Count BatchedPhoneCallEngine<TopologyT>::classic_block(
    NodeId lo, NodeId hi, Rng& lane_rng, std::uint64_t* bits,
    const std::uint64_t* snap, RoundStats& round) const {
  // The lane's Rng and counters live in locals for the pass, so no bitmap
  // store can alias them (see run_classic).
  Rng rng = lane_rng;
  Count push_tx = 0;
  Count pull_tx = 0;
  Count newly = 0;
  const auto informed_at_start = [snap](NodeId u) {
    return (snap[u >> 6] >> (u & 63) & std::uint64_t{1}) != 0;
  };
  const auto inform = [bits, &newly](NodeId u) {
    std::uint64_t& word = bits[u >> 6];
    newly += (word >> (u & 63) & std::uint64_t{1}) ^ std::uint64_t{1};
    word |= std::uint64_t{1} << (u & 63);
  };
  for (NodeId v = lo; v < hi; ++v) {
    const NodeId d = detail::topo_degree(*topo_, v);
    if (d == 0) continue;  // choose() draws nothing for isolated nodes
    // The draw ChannelSampler::choose makes for one uniform call, whether
    // or not anything is delivered: the stream must advance identically.
    const auto c = static_cast<NodeId>(rng.uniform_u64(d));
    if constexpr (kPull) {
      // A pulling lane delivers on every opened channel whose partner is
      // informed, so every non-isolated node's call matters.
      const NodeId w = detail::topo_neighbor(*topo_, v, c);
      if (kPush && informed_at_start(v)) {
        ++push_tx;
        inform(w);
      }
      if (informed_at_start(w)) {
        ++pull_tx;
        inform(v);
      }
    } else if constexpr (kPush) {
      // Deliveries originate only at informed nodes: the uninformed ones
      // draw and never touch their CSR row.
      if (informed_at_start(v)) {
        ++push_tx;
        inform(detail::topo_neighbor(*topo_, v, c));
      }
    }
  }
  lane_rng = rng;
  round.push_tx += push_tx;
  round.pull_tx += pull_tx;
  return newly;
}

}  // namespace rrb
