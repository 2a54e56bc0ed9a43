#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/common/types.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/phonecall/channel_sampler.hpp"
#include "rrb/phonecall/failure_models.hpp"
#include "rrb/phonecall/protocol.hpp"
#include "rrb/phonecall/result.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/telemetry/telemetry.hpp"

/// \file engine.hpp
/// The synchronous phone call engine.
///
/// Per round, every alive node opens channels to `num_choices` distinct
/// incident edges chosen uniformly at random (num_choices = 1 is the
/// classical model of Karp et al.; 4 is the paper's modification). Channels
/// are bidirectional: a transmission over channel (v -> w) is a *push* when
/// initiated by the caller v and a *pull* when initiated by the callee w.
/// Messages delivered in round t only become forwardable in round t + 1,
/// matching the paper's "received for the first time in the previous step"
/// phrasing.
///
/// The engine is a template over a Topology, so the same round loop drives
/// static graphs (Graph) and the dynamic churn overlay (p2p), and run() is
/// additionally a template over the protocol (see ProtocolImpl in
/// protocol.hpp) and over an optional metric observer — concrete protocols
/// and observers dispatch at compile time, so the per-node inner loop pays
/// no virtual calls, no std::function calls, and no per-access bounds
/// checks (see the unchecked topology views below).
///
/// Measurement is NOT hardwired here: beyond the RunResult counters that
/// are part of the library's recorded-output contract, every quantity an
/// experiment tracks (set sizes, h_i(t), edge usage, per-node
/// distributions) lives in a metric observer (rrb/metrics/observer.hpp).
/// run() detects each observer hook with `requires`, the same mechanism
/// used for optional protocol hooks, so a run without observers compiles
/// to the identical loop and an attached observer adds only the hooks it
/// defines. Observers are read-only and draw no randomness — attaching any
/// stack leaves the run's draw sequence and RunResult bit-identical
/// (ROADMAP.md observer invariant; pinned by tests/test_metrics.cpp).
///
/// Determinism: the order of RNG draws inside run() is part of the
/// library's output contract (ROADMAP.md "seeding contract";
/// tests/test_golden_results.cpp pins it). Any engine change must preserve
/// the draw order exactly or every recorded experiment changes. The
/// contract covers the draws up to the round in which every node is
/// informed; a run eligible for the fast-forward below makes none after it.
///
/// Silent channels cost only their draws. A channel carries a message only
/// if its caller pushes or its callee pulls, so in a round where no node
/// pulls, a caller that does not push still makes its choose() draws and
/// one failure_prob draw per channel (counting channels_opened and
/// channels_failed as usual) but skips the neighbour lookup, the callee's
/// action load and the per-channel branches. Three gates keep the skip
/// invisible, because each of them reads or records the callee w: the
/// topology is a static GraphTopology (on a DynamicOverlay a dead callee
/// counts as a failed channel), no set_failure_model predicate is
/// installed, and ChannelConfig::memory is 0. The topology gate is
/// compile-time, the other two are checked once per run. Draws and every
/// RunResult field are unchanged (pinned by tests/test_engine.cpp,
/// SilentChannelSkip).
///
/// Rounds after completion cost no draws. Once a round starts with every
/// node informed, nobody can be newly informed, so a round's counts follow
/// from the nodes' actions alone: each pushing node v transmits on all of
/// its min(k, d_v) channels, and every channel carries a pull when every
/// callable node pulls (none when no node pulls). An eligible run — static
/// GraphTopology, a protocol without on_round_start/stamp/on_receive, an
/// observer without on_transmission/on_node_informed, no failure_prob, no
/// failure model and no round hook — computes the remaining rounds with
/// phase A alone and emits them (on_round_begin/on_round_end, per_round)
/// without drawing. If some remaining round has only some nodes pulling,
/// its pull count would depend on the draws, so the look-ahead is dropped
/// and the round loop runs on as before. RunResults, informed_at and
/// observer streams are unchanged; the Rng and the sampler's memory rings
/// and cursors stop where completion left them (tests/test_engine.cpp,
/// FastForward; the skipped rounds count as engine.fast_forward_rounds).

namespace rrb {

/// Requirements on a topology the engine can run on. The checked accessors
/// are the interface; a topology may additionally provide
/// degree_unchecked/neighbor_unchecked fast paths (GraphTopology and
/// DynamicOverlay do), which the round loop uses after validating its
/// inputs once at run start — every node id it touches is < num_slots()
/// and every edge index is < degree(v) by construction.
template <typename T>
concept Topology = requires(const T& t, NodeId v, NodeId i) {
  { t.num_slots() } -> std::convertible_to<NodeId>;
  { t.num_alive() } -> std::convertible_to<Count>;
  { t.is_alive(v) } -> std::convertible_to<bool>;
  { t.degree(v) } -> std::convertible_to<NodeId>;
  { t.neighbor(v, i) } -> std::convertible_to<NodeId>;
};

/// Adapter presenting an immutable Graph as a Topology. Exposes the
/// unchecked CSR views; the Graph's CSR invariants hold by construction,
/// so per-access bounds checks in the round loop would be redundant.
class GraphTopology {
 public:
  explicit GraphTopology(const Graph& g) : g_(&g) {}
  [[nodiscard]] NodeId num_slots() const { return g_->num_nodes(); }
  [[nodiscard]] Count num_alive() const { return g_->num_nodes(); }
  [[nodiscard]] bool is_alive(NodeId) const { return true; }
  [[nodiscard]] NodeId degree(NodeId v) const { return g_->degree(v); }
  [[nodiscard]] NodeId neighbor(NodeId v, NodeId i) const {
    return g_->neighbor(v, i);
  }
  [[nodiscard]] NodeId degree_unchecked(NodeId v) const {
    return g_->degree_unchecked(v);
  }
  [[nodiscard]] NodeId neighbor_unchecked(NodeId v, NodeId i) const {
    return g_->neighbor_unchecked(v, i);
  }
  [[nodiscard]] const Graph& graph() const { return *g_; }

 private:
  const Graph* g_;
};

/// Hook invoked between rounds; may mutate a dynamic topology (churn).
/// This is the one intentionally *mutating* hook — everything read-only
/// belongs in a metric observer instead.
using RoundHook = std::function<void(Round t)>;

namespace detail {

/// The default observer: no hooks, so every observer call site in run()
/// compiles away and the loop is byte-for-byte the pre-observer engine.
struct NoMetrics {
  [[nodiscard]] const char* name() const { return "none"; }
};

/// True when the protocol type implements none of the optional per-round /
/// per-delivery hooks (on_round_start, stamp, on_receive). Such protocols
/// interact with the engines only through action() and finished(), which
/// is what lets the batched engine's lockstep kernel keep per-lane state as
/// bitmaps, and what lets both engines count a fully informed round
/// without delivering it. Mirrors the `requires` checks in run() — a hook
/// the round loop would not call is also one a fast path may skip.
template <typename P>
inline constexpr bool kHookFreeProtocol =
    !requires(P& p, Round t) { p.on_round_start(t); } &&
    !requires(P& p, NodeId v, Round t) { p.stamp(v, t); } &&
    !requires(P& p, NodeId v, const MessageMeta& m, Round t) {
      p.on_receive(v, m, t, true);
    };

/// True when the observer sees no single delivery (no on_transmission or
/// on_node_informed hook): its stream is then fixed by the per-round
/// counts, which the post-completion fast-forward reproduces.
template <typename O>
inline constexpr bool kDeliveryBlindObserver =
    !requires(O& o, const TransmissionEvent& e) { o.on_transmission(e); } &&
    !requires(O& o, NodeId v, Round t) { o.on_node_informed(v, t); };

}  // namespace detail

template <Topology TopologyT>
class PhoneCallEngine {
 public:
  PhoneCallEngine(TopologyT& topo, ChannelConfig config, Rng& rng)
      : topo_(&topo), config_(config), rng_(&rng) {
    validate_channel(config_);
  }

  /// Mutate the topology between rounds (churn). Newly joined nodes start
  /// uninformed; dead nodes stop participating and no longer count towards
  /// completion.
  ///
  /// Completion under churn is tracked *incrementally*: a hook that removes
  /// alive nodes must report each departure once via notify_node_died(),
  /// and each reused slot via reset_node() (attach_churn() in
  /// rrb/p2p/churn.hpp wires both automatically). The engine never rescans
  /// the informed array during the run.
  void set_round_hook(RoundHook hook) { hook_ = std::move(hook); }

  /// Install a structured failure model (see failure_models.hpp). A channel
  /// fails if either this predicate or ChannelConfig::failure_prob fires.
  void set_failure_model(FailurePredicate model) {
    failure_model_ = std::move(model);
  }

  /// Informed rounds per node after run() (kNever = never informed).
  [[nodiscard]] std::span<const Round> informed_at() const {
    return informed_at_;
  }

  /// Read-only view of the channel sampler's per-node state (memory rings,
  /// quasirandom cursors) — for tests pinning the sampling semantics;
  /// mutating channel state mid-run would break the draw-order contract.
  [[nodiscard]] const ChannelSampler& sampler() const { return sampler_; }

  /// Forget a node's informed status. Needed by churn drivers when a slot
  /// freed by a departed peer is reused by a fresh joiner — the newcomer
  /// must not inherit its predecessor's copy of the message. Only call from
  /// a round hook.
  void reset_node(NodeId v) {
    RRB_REQUIRE(v < informed_at_.size(), "reset_node: out of range");
    if (informed_at_[v] == kNever) return;
    informed_at_[v] = kNever;
    if (topo_->is_alive(v)) --informed_alive_;
  }

  /// Report that a previously-alive node left the topology. The departed
  /// peer forgets the message (its informed_at slot is cleared), keeping
  /// the engine's incremental informed-alive count exact without an O(n)
  /// rescan per round. Call exactly once per departure, from a round hook,
  /// after the topology has marked the node dead.
  void notify_node_died(NodeId v) {
    RRB_REQUIRE(v < informed_at_.size(), "notify_node_died: out of range");
    if (informed_at_[v] == kNever) return;
    informed_at_[v] = kNever;
    --informed_alive_;
  }

  /// Run `protocol` from `source` until the protocol reports finished, all
  /// alive nodes are informed (if limits.stop_when_all_informed), or
  /// limits.max_rounds elapse.
  template <ProtocolImpl ProtocolT>
  RunResult run(ProtocolT& protocol, NodeId source, const RunLimits& limits) {
    return run(protocol, std::span<const NodeId>(&source, 1), limits);
  }

  template <ProtocolImpl ProtocolT>
  RunResult run(ProtocolT& protocol, std::span<const NodeId> sources,
                const RunLimits& limits) {
    detail::NoMetrics none;
    return run(protocol, sources, limits, none);
  }

  /// Instrumented runs: `observers` is any metric observer (typically an
  /// ObserverSet composing several; see rrb/metrics/observer.hpp for the
  /// hook vocabulary and the read-only contract). Hooks are detected per
  /// observer type with `requires` and inlined into the round loop.
  template <ProtocolImpl ProtocolT, typename ObserverT>
  RunResult run(ProtocolT& protocol, NodeId source, const RunLimits& limits,
                ObserverT& observers) {
    return run(protocol, std::span<const NodeId>(&source, 1), limits,
               observers);
  }

  template <ProtocolImpl ProtocolT, typename ObserverT>
  RunResult run(ProtocolT& protocol, std::span<const NodeId> sources,
                const RunLimits& limits, ObserverT& observers);

 private:
  [[nodiscard]] NodeId neighbor_of(NodeId v, NodeId i) const {
    return detail::topo_neighbor(*topo_, v, i);
  }

  /// A stretch of `count` consecutive fast-forwarded rounds with equal
  /// counts, the first of them `first`. A schedule's rounds repeat phase by
  /// phase, so a stretch per phase keeps the look-ahead small however far
  /// off max_rounds is.
  struct TailStretch {
    RoundStats first;
    Round count = 0;
  };

  /// The post-completion look-ahead (see the file comment), called at most
  /// once per run, after round t when every node is informed: fills tail_
  /// with rounds t + 1 .. the protocol's finish or limits.max_rounds, from
  /// phase A alone, and returns the last of them. Returns 0 if some round
  /// has a mixed pull, whose pull count the draws would decide; tail_ is
  /// then stale and nothing else has changed (action_ is rewritten by the
  /// next phase A).
  template <ProtocolImpl ProtocolT>
  Round look_ahead(ProtocolT& protocol, Round t, const RunLimits& limits);

  TopologyT* topo_;
  ChannelConfig config_;
  Rng* rng_;
  RoundHook hook_;
  FailurePredicate failure_model_;

  std::vector<Round> informed_at_;
  std::vector<Action> action_;  // kNone for uninformed/silent nodes

  /// |{v : alive(v) && informed(v)}|, maintained incrementally: +1 per
  /// first-time delivery (recipients are alive by construction), -1 in
  /// notify_node_died()/reset_node(). Exact at every completion check
  /// provided churn hooks report departures (see set_round_hook).
  Count informed_alive_ = 0;

  ChannelSampler sampler_;

  // Flat per-run scratch buffers, reused across rounds and runs.
  std::vector<NodeId> choice_buf_;
  std::vector<NodeId> partner_buf_;
  std::vector<TailStretch> tail_;  // look_ahead's rounds
};

template <Topology TopologyT>
template <ProtocolImpl ProtocolT, typename ObserverT>
RunResult PhoneCallEngine<TopologyT>::run(ProtocolT& protocol,
                                          std::span<const NodeId> sources,
                                          const RunLimits& limits,
                                          ObserverT& observers) {
  const NodeId n = topo_->num_slots();
  RRB_REQUIRE(n >= 1, "empty topology");
  RRB_REQUIRE(!sources.empty(), "need at least one source");

  // Telemetry spans record wall-clock only: they draw no randomness and
  // touch no engine state, so draws and outputs are bit-identical with
  // recording on or off (pinned by tests/test_telemetry.cpp).
  telemetry::Span run_span("engine", "run");
  if (run_span.active())
    run_span.set_args("{\"n\":" + std::to_string(n) + "}");

  informed_at_.assign(n, kNever);
  action_.assign(n, Action::kNone);
  sampler_.prepare(config_, n);

  if constexpr (requires { protocol.reset(n); }) protocol.reset(n);
  Count informed = 0;
  for (const NodeId s : sources) {
    RRB_REQUIRE(s < n, "source out of range");
    RRB_REQUIRE(topo_->is_alive(s), "source must be alive");
    if (informed_at_[s] == kNever) {
      informed_at_[s] = 0;  // message created at time step 0
      ++informed;
    }
  }
  informed_alive_ = informed;

  if constexpr (requires { observers.on_run_begin(n, sources); })
    observers.on_run_begin(n, sources);

  RunResult result;
  result.n = n;

  choice_buf_.assign(static_cast<std::size_t>(config_.num_choices), 0);
  partner_buf_.assign(static_cast<std::size_t>(config_.num_choices), 0);
  const std::span<NodeId> edge_choice(choice_buf_);
  const std::span<NodeId> partners(partner_buf_);

  // Hoisted once per run: none of these can change mid-run, and testing a
  // bool beats re-testing a std::function (or re-reading config) per node
  // or per channel in the inner loop.
  const bool has_failure_prob = config_.failure_prob > 0.0;
  const bool has_failure_model = static_cast<bool>(failure_model_);
  const bool has_hook = static_cast<bool>(hook_);
  const bool has_memory = config_.memory > 0;
  // The silent-channel skip rule (see the file comment): on a static graph
  // with no failure predicate and no memory ring, nothing outside a
  // channel's delivery reads its callee w.
  constexpr bool kStaticGraph =
      std::is_same_v<std::remove_const_t<TopologyT>, GraphTopology>;
  const bool may_skip = kStaticGraph && !has_failure_model && !has_memory;
  // The post-completion fast-forward (see the file comment): cleared once
  // its one look-ahead has run, whether or not that look-ahead was used.
  bool may_fast_forward = kStaticGraph &&
                          detail::kHookFreeProtocol<ProtocolT> &&
                          detail::kDeliveryBlindObserver<ObserverT> &&
                          !has_failure_prob && !has_failure_model && !has_hook;

  // Folds a finished round into the result and the observers, and stamps
  // the completion round: every round, drawn or fast-forwarded, ends here.
  const auto close_round = [&](const RoundStats& round) {
    result.push_tx += round.push_tx;
    result.pull_tx += round.pull_tx;
    result.channels_opened += round.channels_opened;
    result.channels_failed += round.channels_failed;
    if (limits.record_rounds) result.per_round.push_back(round);

    if constexpr (requires(std::span<const Round> ia) {
                    observers.on_round_end(round, ia);
                  })
      observers.on_round_end(
          round, std::span<const Round>(informed_at_.data(), n));

    // Completion: every alive node informed. informed_alive_ is maintained
    // incrementally — churn hooks report departures via notify_node_died()
    // and slot reuse via reset_node(), so no O(n) rescan is needed here.
    // alive > 0 guards the vacuous case: a churn burst that kills every
    // node must not count as completion (the set may repopulate via joins
    // and the run would then carry a bogus completion_round).
    const Count alive = topo_->num_alive();
    if (result.completion_round == kNever && alive > 0 &&
        informed_alive_ >= alive)
      result.completion_round = round.t;
  };

  Round t = 0;
  while (t < limits.max_rounds) {
    if (may_fast_forward && informed_alive_ == n) {
      may_fast_forward = false;
      if (const Round last = look_ahead(protocol, t, limits); last != 0) {
        for (const TailStretch& stretch : tail_) {
          RoundStats round = stretch.first;
          for (Round i = 0; i < stretch.count; ++i, ++round.t) {
            if constexpr (requires { observers.on_round_begin(round.t); })
              observers.on_round_begin(round.t);
            close_round(round);
          }
        }
        telemetry::count("engine.fast_forward_rounds", last - t);
        t = last;
        break;
      }
    }
    ++t;
    if constexpr (requires { protocol.on_round_start(t); })
      protocol.on_round_start(t);
    if constexpr (requires { observers.on_round_begin(t); })
      observers.on_round_begin(t);
    RoundStats round{};
    round.t = t;

    // Phase A: compute actions for nodes informed before this round.
    bool any_pull = false;
    for (NodeId v = 0; v < n; ++v) {
      if (!topo_->is_alive(v) || informed_at_[v] == kNever) {
        action_[v] = Action::kNone;
        continue;
      }
      NodeLocalState state;
      state.informed_at = informed_at_[v];
      state.is_source = informed_at_[v] == 0;
      action_[v] = protocol.action(v, state, t);
      if (action_[v] != Action::kNone) ++round.transmitting_nodes;
      any_pull |= does_pull(action_[v]);
    }
    const bool skip_silent = may_skip && !any_pull;

    // Phase B: every alive node opens channels; transmissions happen on
    // the channel according to the caller's push action and the callee's
    // pull action.
    Count newly = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!topo_->is_alive(v)) continue;
      const std::size_t k = sampler_.choose(*topo_, *rng_, v, edge_choice);
      const bool push_here = does_push(action_[v]);
      if (skip_silent && !push_here) {
        // No message can cross these channels: only their draws remain.
        round.channels_opened += k;
        if (has_failure_prob)
          for (std::size_t i = 0; i < k; ++i)
            if (rng_->bernoulli(config_.failure_prob)) ++round.channels_failed;
        continue;
      }
      for (std::size_t i = 0; i < k; ++i) {
        const NodeId edge_idx = edge_choice[i];
        const NodeId w = neighbor_of(v, edge_idx);
        // Deliberate: the partner is recorded for the memory ring *before*
        // the failure checks below, so a failed or stale channel still
        // counts as "recently called" — the call was placed even if no
        // message crossed it, which is what the sequentialised model's
        // memory constraint is about. Pinned by
        // tests/test_engine.cpp (MemoryRing.FailedChannelsAreRemembered);
        // changing it would alter the rejection-sampling draw sequence of
        // every memory-scheme experiment.
        partners[i] = w;
        ++round.channels_opened;
        if ((has_failure_prob && rng_->bernoulli(config_.failure_prob)) ||
            (has_failure_model && failure_model_(t, v, w))) {
          ++round.channels_failed;
          continue;
        }
        if (!topo_->is_alive(w)) {
          ++round.channels_failed;  // stale link during churn
          continue;
        }
        const bool pull_here = does_pull(action_[w]);
        if (!push_here && !pull_here) continue;

        auto deliver = [&](NodeId to, NodeId from, bool is_push) {
          MessageMeta meta;
          if constexpr (requires { protocol.stamp(from, t); })
            meta = protocol.stamp(from, t);
          if (is_push)
            ++round.push_tx;
          else
            ++round.pull_tx;
          const bool first = informed_at_[to] == kNever;
          if constexpr (requires {
                          protocol.on_receive(to, meta, t, first);
                        })
            protocol.on_receive(to, meta, t, first);
          if (first) {
            informed_at_[to] = t;
            ++informed_alive_;
            ++newly;
          }
          if constexpr (requires(const TransmissionEvent& event) {
                          observers.on_transmission(event);
                        })
            observers.on_transmission(TransmissionEvent{
                .t = t,
                .caller = v,
                .edge_index = edge_idx,
                .from = from,
                .to = to,
                .is_push = is_push,
                .first_time = first,
            });
          if (first)
            if constexpr (requires { observers.on_node_informed(to, t); })
              observers.on_node_informed(to, t);
        };
        if (push_here) deliver(w, v, /*is_push=*/true);
        if (pull_here) deliver(v, w, /*is_push=*/false);
      }
      if (has_memory)
        sampler_.remember_partners(
            v, std::span<const NodeId>(partners.data(), k));
    }

    informed += newly;
    round.newly_informed = newly;
    round.informed = informed;
    close_round(round);

    const Count alive = topo_->num_alive();
    const Count informed_alive = informed_alive_;
    const bool proto_done = protocol.finished(t, informed_alive, alive);
    const bool oracle_done =
        limits.stop_when_all_informed && informed_alive >= alive;
    if (proto_done || oracle_done) break;

    if (has_hook) {
      hook_(t);
      const NodeId new_n = topo_->num_slots();
      RRB_REQUIRE(new_n == n, "topology slots may not change during a run");
    }
  }

  result.rounds = t;
  result.alive_at_end = topo_->num_alive();
  Count final_informed = 0;
  for (NodeId v = 0; v < n; ++v)
    if (topo_->is_alive(v) && informed_at_[v] != kNever) ++final_informed;
  result.final_informed = final_informed;
  // "All informed" requires someone to be informed: when churn killed every
  // node (alive_at_end == 0) the broadcast failed, even though the empty
  // set of alive nodes is vacuously covered. Without the alive_at_end > 0
  // guard such runs would report completion with zero informed nodes and
  // pollute completion_rate/completion_round statistics.
  result.all_informed =
      result.alive_at_end > 0 && final_informed >= result.alive_at_end;

  if constexpr (requires(std::span<const Round> ia) {
                  observers.on_run_end(result, ia);
                })
    observers.on_run_end(result,
                         std::span<const Round>(informed_at_.data(), n));
  return result;
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
Round PhoneCallEngine<TopologyT>::look_ahead(ProtocolT& protocol, Round t,
                                             const RunLimits& limits) {
  const NodeId n = topo_->num_slots();
  const auto k = static_cast<NodeId>(config_.num_choices);
  // The channels every round opens, C = sum_v min(k, d_v), and how many
  // nodes can be called (d > 0) — the pullers a round needs for all of its
  // C channels to carry a pull.
  Count channels = 0;
  NodeId callable = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId d = detail::topo_degree(*topo_, v);
    channels += std::min(k, d);
    callable += d != 0;
  }

  tail_.clear();
  bool done = false;
  while (!done && t < limits.max_rounds) {
    ++t;
    RoundStats round{};
    round.t = t;
    round.informed = n;
    round.channels_opened = channels;
    NodeId pullers = 0;
    for (NodeId v = 0; v < n; ++v) {
      NodeLocalState state;
      state.informed_at = informed_at_[v];
      state.is_source = informed_at_[v] == 0;
      const Action a = protocol.action(v, state, t);
      if (a == Action::kNone) continue;
      ++round.transmitting_nodes;
      const NodeId d = detail::topo_degree(*topo_, v);
      if (does_push(a)) round.push_tx += std::min(k, d);
      if (does_pull(a) && d != 0) ++pullers;
    }
    if (pullers == callable)
      round.pull_tx = channels;
    else if (pullers != 0)
      return 0;  // mixed pull: which channels carry one is drawn
    TailStretch* const last = tail_.empty() ? nullptr : &tail_.back();
    if (last != nullptr && last->first.push_tx == round.push_tx &&
        last->first.pull_tx == round.pull_tx &&
        last->first.transmitting_nodes == round.transmitting_nodes)
      ++last->count;
    else
      tail_.push_back({round, 1});
    done = protocol.finished(t, n, n) || limits.stop_when_all_informed;
  }
  return t;
}

}  // namespace rrb
