#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "rrb/common/types.hpp"
#include "rrb/rng/rng.hpp"

/// \file channel_sampler.hpp
/// Per-node channel selection for the phone call engine: the uniform
/// `num_choices`-distinct-edges draw, the quasirandom cyclic neighbour walk
/// (Doerr–Friedrich–Sauerwald), and the memory ring of the sequentialised
/// model (§1.2 footnote 2). Extracted from the engine's round loop so the
/// sampling rules are unit-testable in isolation; the draw order is part of
/// the library's determinism contract (ROADMAP.md) and must never change.

namespace rrb {

/// How channels are established each round.
struct ChannelConfig {
  /// Distinct incident edges each node calls per round. 1 = classical
  /// random phone call model; 4 = the paper's modification.
  int num_choices = 1;

  /// If > 0, avoid partners called during the last `memory` rounds (the
  /// sequentialised model of §1.2 footnote 2 uses num_choices = 1,
  /// memory = 3). Best-effort: if a node's degree leaves no admissible
  /// partner, the constraint is relaxed for that call.
  int memory = 0;

  /// Probability that an opened channel fails (no communication in either
  /// direction). Models the paper's "limited communication failures".
  double failure_prob = 0.0;

  /// Quasirandom model (Doerr–Friedrich–Sauerwald): each node walks its
  /// neighbour list cyclically from a random start, calling the next
  /// num_choices entries per round, instead of sampling.
  bool quasirandom = false;
};

/// The one check of a channel model both engines run on: throws
/// std::invalid_argument (a std::logic_error) naming the first rule
/// `config` breaks — at least one and at most 64 choices (the engines'
/// choice buffers hold 64), memory >= 0, failure_prob in [0, 1], and no
/// quasirandom walk combined with a memory ring. Both engine constructors
/// call it; front ends call it to reject a channel before any run starts.
void validate_channel(const ChannelConfig& config);

namespace detail {

/// Topology access used inside the round loop: prefer the unchecked CSR
/// fast path when the topology provides one. The engine validates its
/// inputs once at run start (every node id iterated is < num_slots(), every
/// edge index produced is < degree(v)), so the per-access bounds checks of
/// the checked accessors are redundant there.
template <typename TopologyT>
[[nodiscard]] inline NodeId topo_degree(const TopologyT& topo, NodeId v) {
  if constexpr (requires { topo.degree_unchecked(v); })
    return topo.degree_unchecked(v);
  else
    return topo.degree(v);
}

template <typename TopologyT>
[[nodiscard]] inline NodeId topo_neighbor(const TopologyT& topo, NodeId v,
                                          NodeId i) {
  if constexpr (requires { topo.neighbor_unchecked(v, i); })
    return topo.neighbor_unchecked(v, i);
  else
    return topo.neighbor(v, i);
}

}  // namespace detail

/// Chooses the neighbour *edge indices* a node calls each round, and keeps
/// the per-node state those rules need (quasirandom cursors, memory rings).
/// The engine owns one instance; tests drive it directly.
///
/// The config must already be validated (PhoneCallEngine's constructor
/// enforces the invariants); prepare() only sizes the buffers.
class ChannelSampler {
 public:
  /// Reset per-node state for a run over n node slots.
  void prepare(const ChannelConfig& config, NodeId n) {
    config_ = config;
    if (config_.memory > 0)
      memory_.assign(static_cast<std::size_t>(n) * config_.memory, kNoNode);
    if (config_.quasirandom) cursor_.assign(n, kNoNode);
  }

  /// Choose the partners node v calls this round; writes neighbour *edge
  /// indices* into `out` and returns how many were chosen
  /// (min(num_choices, degree)). Draw order is pinned by golden tests.
  /// Always inlined: the engines call it once per node per round, and left
  /// to its heuristics the compiler keeps it out of the large round loop.
  template <typename TopologyT>
  [[gnu::always_inline]] std::size_t choose(const TopologyT& topo, Rng& rng, NodeId v,
                     std::span<NodeId> out) {
    const NodeId d = detail::topo_degree(topo, v);
    if (d == 0) return 0;
    const auto k = static_cast<std::size_t>(config_.num_choices);
    const std::size_t take = std::min<std::size_t>(k, d);

    if (config_.quasirandom) return walk(rng, v, d, take, out);

    if (config_.memory == 0 || d <= take) {
      return rng.sample_distinct_small(d, take, out);
    }

    // Memory constraint: rejection-sample distinct edge indices whose
    // endpoints were not called in the last `memory` rounds. Best effort —
    // after kMaxTries we accept whatever distinct indices we drew.
    constexpr int kMaxTries = 48;
    std::size_t filled = 0;
    int tries = 0;
    while (filled < take && tries < kMaxTries) {
      ++tries;
      const auto idx = static_cast<NodeId>(rng.uniform_u64(d));
      bool duplicate = false;
      for (std::size_t j = 0; j < filled; ++j)
        if (out[j] == idx) duplicate = true;
      if (duplicate) continue;
      if (recently_called(v, detail::topo_neighbor(topo, v, idx))) continue;
      out[filled++] = idx;
    }
    while (filled < take) {
      const auto idx = static_cast<NodeId>(rng.uniform_u64(d));
      bool duplicate = false;
      for (std::size_t j = 0; j < filled; ++j)
        if (out[j] == idx) duplicate = true;
      if (!duplicate) out[filled++] = idx;
    }
    return take;
  }

  /// Record v's partners for the memory constraint (no-op when memory = 0).
  void remember_partners(NodeId v, std::span<const NodeId> partners) {
    const auto m = static_cast<std::size_t>(config_.memory);
    if (m == 0) return;
    const std::size_t base = static_cast<std::size_t>(v) * m;
    // Shift the ring (memory is tiny — 3 in the paper's variant).
    for (std::size_t j = m; j-- > partners.size();)
      memory_[base + j] = memory_[base + j - partners.size()];
    for (std::size_t j = 0; j < std::min(partners.size(), m); ++j)
      memory_[base + j] = partners[j];
  }

  /// Whether v called `partner` within the last `memory` rounds.
  [[nodiscard]] bool recently_called(NodeId v, NodeId partner) const {
    const auto m = static_cast<std::size_t>(config_.memory);
    const std::size_t base = static_cast<std::size_t>(v) * m;
    for (std::size_t j = 0; j < m; ++j)
      if (memory_[base + j] == partner) return true;
    return false;
  }

  /// v's memory ring, most recent partner first (kNoNode = empty slot).
  [[nodiscard]] std::span<const NodeId> memory_ring(NodeId v) const {
    const auto m = static_cast<std::size_t>(config_.memory);
    return {memory_.data() + static_cast<std::size_t>(v) * m, m};
  }

  /// v's quasirandom cursor (kNoNode until the first choose() draws it).
  [[nodiscard]] NodeId cursor(NodeId v) const { return cursor_[v]; }

 private:
  /// The quasirandom walk: call the `take` neighbours after v's cursor.
  /// Out of line (channel_sampler.cpp), which keeps the inlined choose()
  /// small.
  std::size_t walk(Rng& rng, NodeId v, NodeId d, std::size_t take,
                   std::span<NodeId> out);

  ChannelConfig config_;

  // Memory rings: memory_[v * memory + j] = partner called `j+1` rounds ago
  // (unordered ring). kNoNode = empty.
  std::vector<NodeId> memory_;

  // Quasirandom list cursors.
  std::vector<NodeId> cursor_;
};

}  // namespace rrb
