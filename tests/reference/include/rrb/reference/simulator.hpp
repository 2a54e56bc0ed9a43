#pragma once

#include <cstdint>

#include "rrb/common/types.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/rng/rng.hpp"

/// \file simulator.hpp
/// A deliberately naive broadcast simulator, written from the paper's
/// definitions and nothing else: the random phone call model of §1.2 and
/// Algorithm 1 of §3, plus the sequentialised model of footnote 2.
///
/// It is the independent half of the distribution tests
/// (tests/test_distribution.cpp): the engine is checked against the model,
/// not against goldens it produced itself. So it shares no code with the
/// engine beyond the graph and the random source. It links only rrb::rng
/// and rrb::graph (rrb-lint's module table holds it to that), keeps
/// adjacency lists and an explicit list of each round's calls, and makes
/// its draws in its own order. Its outputs are equal to the engine's in
/// distribution, never draw for draw.

namespace rrb::reference {

enum class Scheme {
  kPush,            ///< informed nodes push over their call, every round
  kPull,            ///< informed nodes answer every call they receive
  kPushPull,        ///< both
  kFourChoice,      ///< Algorithm 1: four distinct calls, four phases
  kSequentialised,  ///< Algorithm 1 replayed one call per step, memory 3
};

struct Model {
  Scheme scheme = Scheme::kPush;
  /// Each call fails on its own with this probability: nothing crosses it.
  double failure_prob = 0.0;
  /// Algorithm 1's constant alpha and size estimate n̂ (0 means n).
  double alpha = 1.5;
  std::uint64_t n_estimate = 0;
};

struct Outcome {
  Round completion = kNever;        ///< first step after which all know
  std::uint64_t transmissions = 0;  ///< copies sent, pushes and pulls
  std::uint64_t informed = 0;       ///< nodes that know at the end
};

/// One broadcast from `source` on g. Push, pull and push-pull stop once
/// every node knows the message; Algorithm 1 runs to its horizon.
[[nodiscard]] Outcome simulate(const Graph& g, NodeId source,
                               const Model& model, Rng& rng);

}  // namespace rrb::reference
