#pragma once

#include <cstdint>

#include "rrb/phonecall/protocol.hpp"

/// \file throttled.hpp
/// Age-throttled push&pull in the *classical* (single-choice) phone call
/// model, in the spirit of Elsässer (SPAA'06, the paper's reference [11]):
/// a node transmits only while its copy of the message is younger than
///   tau = ceil(c1 · log n̂ / log d) + ceil(c2 · log log n̂)
/// rounds. Total transmissions are therefore at most ~ 2 n tau =
/// O(n (log n / log d + log log n)) — the upper-bound counterpart of the
/// Theorem 1 lower bound Ω(n log n / log d), reproduced in bench E3.
///
/// Strictly oblivious: the action depends only on (informed_at, t).

namespace rrb {

struct ThrottledConfig {
  std::uint64_t n_estimate = 0;  ///< n̂ (>= 2)
  std::uint32_t degree = 0;      ///< d, known to all nodes (>= 2)
  double c1 = 2.0;               ///< multiplier on log n / log d
  double c2 = 2.0;               ///< multiplier on log log n
};

class ThrottledPushPull {
 public:
  explicit ThrottledPushPull(const ThrottledConfig& cfg);

  // Defined inline: action() runs once per informed node per round.
  void on_round_start(Round /*t*/) { active_this_round_ = 0; }
  [[nodiscard]] Action action(NodeId /*v*/, const NodeLocalState& state,
                              Round t) {
    if (t - state.informed_at > tau_) return Action::kNone;
    ++active_this_round_;
    return Action::kPushPull;
  }
  [[nodiscard]] bool finished(Round /*t*/, Count informed,
                              Count /*alive*/) const {
    // Quiescence: once every informed node has aged past tau, nothing can
    // ever be transmitted again.
    return informed > 0 && active_this_round_ == 0;
  }
  [[nodiscard]] const char* name() const { return "throttled-push-pull"; }

  /// The per-node transmission window in rounds.
  [[nodiscard]] Round tau() const { return tau_; }

 private:
  Round tau_ = 0;
  Count active_this_round_ = 0;
};

}  // namespace rrb
