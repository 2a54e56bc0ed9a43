#pragma once

#include <cmath>
#include <string>
#include <utility>

#include "rrb/common/check.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/metrics/observer.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/protocols/median_counter.hpp"
#include "rrb/protocols/sequentialised.hpp"
#include "rrb/protocols/throttled.hpp"
#include "rrb/rng/rng.hpp"

/// \file scheme_dispatch.hpp
/// Compile-time scheme dispatch: the one switch that maps a BroadcastScheme
/// value to its concrete protocol *type* and canonical ChannelConfig, then
/// hands both to a generic visitor. broadcast(), broadcast_trials() and
/// make_scheme() all route through here, so the facade and the parallel
/// runner drive PhoneCallEngine::run() with the static protocol type — the
/// round loop inlines the protocol callbacks instead of paying a virtual
/// call per node per round. make_scheme() wraps the visited protocol in a
/// ProtocolAdapter for type-erased users; that adapter is the only place
/// the virtual layer survives.

namespace rrb {

/// Size/degree summary of a topology — everything with_scheme() needs to
/// pick a protocol variant, derive horizons and pair the canonical channel.
/// Harnesses running on something other than a Graph (the churn overlay,
/// a future distributed shard) describe their topology with a shape and
/// get the same scheme pairing the facade uses.
struct SchemeShape {
  NodeId n = 0;       ///< node count (>= 2)
  NodeId degree = 0;  ///< representative degree: the regular degree, or
                      ///< the minimum degree for irregular graphs
  double mean_degree = 0.0;  ///< mean degree (2|E|/n); 0 = assume `degree`
};

namespace detail {

/// Horizon derivation for kFixedHorizonPush. The horizon needs the degree;
/// fall back to the mean for irregular graphs (the constant C_d is flat for
/// d above ~8 anyway). The degree sum is 2|E| — self-loops contribute two
/// stubs to their node's degree and one edge to the count.
[[nodiscard]] inline Round fixed_horizon_for(const SchemeShape& shape,
                                             std::uint64_t n_estimate) {
  const double mean_degree = shape.mean_degree > 0.0
                                 ? shape.mean_degree
                                 : static_cast<double>(shape.degree);
  RRB_REQUIRE(mean_degree > 0.0,
              "fixed-horizon push needs a non-empty adjacency: a graph "
              "with no edges has no mean degree to derive a horizon from");
  const int d = std::max(3, static_cast<int>(std::lround(mean_degree)));
  return make_push_horizon(n_estimate, d);
}

}  // namespace detail

/// The channel with_scheme() pairs `options.scheme` with: the scheme's
/// canonical channel — four choices for four-choice, one call with a
/// 3-round memory for sequentialised, one uniform call otherwise — with
/// the facade overrides (num_choices, memory, quasirandom, failure_prob)
/// applied on top. Pass it to validate_channel() to reject a bad override
/// before any run starts.
[[nodiscard]] inline ChannelConfig scheme_channel(
    const BroadcastOptions& options) {
  ChannelConfig channel;
  channel.failure_prob = options.failure_prob;
  if (options.scheme == BroadcastScheme::kFourChoice) channel.num_choices = 4;
  if (options.scheme == BroadcastScheme::kSequentialised) channel.memory = 3;
  if (options.memory >= 0) channel.memory = options.memory;
  if (options.num_choices > 0) channel.num_choices = options.num_choices;
  channel.quasirandom = options.quasirandom;
  return channel;
}

/// Build the concrete protocol and channel configuration for
/// `options.scheme` and invoke `visit(protocol, channel)` with the
/// protocol's static type. The visitor must accept any ProtocolImpl by
/// value (generic lambda); all branches must return the same type.
///
/// Throws std::logic_error for shapes with < 2 nodes, out-of-enum scheme
/// values, and option combinations the channel layer rejects.
template <typename Visitor>
decltype(auto) with_scheme(const SchemeShape& shape,
                           const BroadcastOptions& options, Visitor&& visit) {
  RRB_REQUIRE(shape.n >= 2, "broadcast needs >= 2 nodes");
  const std::uint64_t n_est =
      options.n_estimate != 0 ? options.n_estimate : shape.n;

  const ChannelConfig channel = scheme_channel(options);
  auto finish = [&](auto proto) -> decltype(auto) {
    return visit(std::move(proto), channel);
  };

  switch (options.scheme) {
    case BroadcastScheme::kPush:
      return finish(PushProtocol{});
    case BroadcastScheme::kPull:
      return finish(PullProtocol{});
    case BroadcastScheme::kPushPull:
      return finish(PushPullProtocol{});
    case BroadcastScheme::kFixedHorizonPush:
      return finish(FixedHorizonPush(detail::fixed_horizon_for(shape, n_est)));
    case BroadcastScheme::kMedianCounter: {
      MedianCounterConfig cfg;
      cfg.n_estimate = n_est;
      return finish(MedianCounterProtocol(cfg));
    }
    case BroadcastScheme::kThrottledPushPull: {
      ThrottledConfig cfg;
      cfg.n_estimate = n_est;
      cfg.degree = std::max<NodeId>(2, shape.degree);
      return finish(ThrottledPushPull(cfg));
    }
    case BroadcastScheme::kFourChoice: {
      FourChoiceConfig cfg;
      cfg.n_estimate = n_est;
      cfg.alpha = options.alpha;
      // Algorithm 1 vs 2 selected by degree, as the paper prescribes.
      if (four_choice_uses_large_degree(cfg, shape.degree))
        return finish(FourChoiceLargeDegree(cfg));
      return finish(FourChoiceBroadcast(cfg));
    }
    case BroadcastScheme::kSequentialised: {
      FourChoiceConfig cfg;
      cfg.n_estimate = n_est;
      cfg.alpha = options.alpha;
      return finish(SequentialisedFourChoice(cfg));
    }
  }
  // Reached only when `options.scheme` holds a value outside the enum
  // (e.g. a bad cast from user input): a caller error, so a precondition
  // failure rather than an internal invariant.
  detail::check_failed(
      "Precondition",
      "unknown BroadcastScheme — options.scheme does not name a "
      "scheme this library implements",
      __FILE__, __LINE__,
      "scheme value " + std::to_string(static_cast<int>(options.scheme)));
}

/// Graph convenience overload: summarise the graph into a SchemeShape and
/// dispatch. The representative degree is the regular degree when there is
/// one, the minimum degree otherwise (what the throttled and four-choice
/// branches have always keyed on).
template <typename Visitor>
decltype(auto) with_scheme(const Graph& graph, const BroadcastOptions& options,
                           Visitor&& visit) {
  RRB_REQUIRE(graph.num_nodes() >= 2, "broadcast needs >= 2 nodes");
  SchemeShape shape;
  shape.n = graph.num_nodes();
  shape.degree = graph.regular_degree().value_or(graph.min_degree());
  shape.mean_degree = static_cast<double>(2 * graph.num_edges()) /
                      static_cast<double>(graph.num_nodes());
  return with_scheme(shape, options, std::forward<Visitor>(visit));
}

/// Instrumented broadcast(): the facade run with a metric observer attached
/// (rrb/metrics/observer.hpp). Observers are read-only and draw no
/// randomness, so this returns the exact RunResult of the bare
/// broadcast(graph, source, options) — the observer is a pure side channel
/// (pinned in tests/test_metrics.cpp). Lives here rather than
/// broadcast.hpp because the template must see with_scheme().
template <MetricObserver ObserverT>
RunResult broadcast(const Graph& graph, NodeId source,
                    const BroadcastOptions& options, ObserverT& observers) {
  RRB_REQUIRE(source < graph.num_nodes(), "source out of range");
  return with_scheme(
      graph, options, [&](auto proto, const ChannelConfig& channel) {
        Rng rng(options.seed);
        GraphTopology topology(graph);
        PhoneCallEngine<GraphTopology> engine(topology, channel, rng);
        RunLimits limits;
        limits.max_rounds = options.max_rounds;
        limits.record_rounds = options.record_rounds;
        return engine.run(proto, source, limits, observers);
      });
}

}  // namespace rrb
