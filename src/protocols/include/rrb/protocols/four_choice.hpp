#pragma once

#include <cstdint>
#include <memory>

#include "rrb/phonecall/protocol.hpp"

/// \file four_choice.hpp
/// The paper's contribution: Algorithms 1 and 2 (§3).
///
/// Both algorithms assume the channel layer opens `num_choices = 4`
/// channels per node per round (ChannelConfig), know the degree d, and hold
/// an estimate n̂ of n accurate to within a constant factor. The action
/// depends only on the current round and the round the node was informed —
/// they are *strictly oblivious* in the paper's sense, which is what makes
/// the comparison against the Theorem 1 lower bound meaningful.

namespace rrb {

/// Phase boundary schedule shared by Algorithms 1 and 2, derived from the
/// size estimate n̂ and the constant alpha. Logs are base 2; alpha plays
/// the role of the paper's "sufficiently large constant" and 1.5 suffices
/// empirically for the n range this library targets (tests pin this down).
struct PhaseSchedule {
  Round phase1_end = 0;  ///< ⌈alpha·log n̂⌉: newly informed push once
  Round phase2_end = 0;  ///< ⌈alpha·(log n̂ + log log n̂)⌉: informed push
  Round phase3_end = 0;  ///< Alg 1: phase2_end + 1 (single pull round);
                         ///< Alg 2: ⌈alpha·log n̂ + 2·alpha·log log n̂⌉ (pulls)
  Round phase4_end = 0;  ///< Alg 1: 2⌈alpha·log n̂⌉ + ⌈alpha·log log n̂⌉
                         ///< (active push); Alg 2: == phase3_end

  [[nodiscard]] Round total_rounds() const { return phase4_end; }
};

/// Tuning for the four-choice algorithms.
struct FourChoiceConfig {
  double alpha = 1.5;          ///< the paper's constant alpha
  std::uint64_t n_estimate = 0;  ///< n̂; must be >= 2

  /// Degree threshold selecting Algorithm 1 vs Algorithm 2: the paper uses
  /// delta·log log n with "sufficiently large" delta.
  double delta = 3.0;
};

/// Compute the Algorithm 1 schedule for a size estimate.
[[nodiscard]] PhaseSchedule make_schedule_small_d(const FourChoiceConfig& cfg);

/// Compute the Algorithm 2 schedule for a size estimate.
[[nodiscard]] PhaseSchedule make_schedule_large_d(const FourChoiceConfig& cfg);

/// Algorithm 1 (δ <= d <= δ·log log n):
///   Phase 1: push once, in the round right after first receipt.
///   Phase 2: every informed node pushes.
///   Phase 3: one round in which every informed node pulls (answers
///            incoming channels).
///   Phase 4: nodes informed during phase 3/4 become `active` and push.
/// Terminates at a fixed horizon — no oracle; transmissions are counted to
/// the very end, exactly as the paper charges them.
///
/// The per-node action()/finished()/phase_of() bodies here and in the other
/// four-choice protocols are defined inline, like the baselines': the
/// engines call action() once per informed node (per lane) per round, and
/// an out-of-line call would cost more than the few compares it makes.
class FourChoiceBroadcast {
 public:
  explicit FourChoiceBroadcast(const FourChoiceConfig& cfg);

  [[nodiscard]] Action action(NodeId /*v*/, const NodeLocalState& state,
                              Round t) {
    switch (phase_of(t)) {
      case 1:
        // "if the message is created or received for the first time in the
        // previous step then push" — the source (informed_at == 0) pushes in
        // round 1; everyone else pushes exactly once, right after receipt.
        return state.informed_at == t - 1 ? Action::kPush : Action::kNone;
      case 2:
        return Action::kPush;
      case 3:
        return Action::kPull;
      case 4:
        // Nodes first informed in phase 3 or 4 are `active` from the round
        // after receipt; active nodes push for the rest of the phase.
        return state.informed_at > schedule_.phase2_end ? Action::kPush
                                                        : Action::kNone;
      default:
        return Action::kNone;
    }
  }
  [[nodiscard]] bool finished(Round t, Count /*informed*/,
                              Count /*alive*/) const {
    return t >= schedule_.phase4_end;
  }
  [[nodiscard]] const char* name() const { return "four-choice/alg1"; }

  [[nodiscard]] const PhaseSchedule& schedule() const { return schedule_; }

  /// Which phase a given round falls into (1..4); 0 after the horizon.
  [[nodiscard]] int phase_of(Round t) const {
    if (t <= schedule_.phase1_end) return 1;
    if (t <= schedule_.phase2_end) return 2;
    if (t <= schedule_.phase3_end) return 3;
    if (t <= schedule_.phase4_end) return 4;
    return 0;
  }

 private:
  PhaseSchedule schedule_;
};

/// Algorithm 2 (δ·log log n <= d <= δ·log n): phases 1–2 as Algorithm 1,
/// then α·log log n rounds in which every informed node pulls.
class FourChoiceLargeDegree {
 public:
  explicit FourChoiceLargeDegree(const FourChoiceConfig& cfg);

  [[nodiscard]] Action action(NodeId /*v*/, const NodeLocalState& state,
                              Round t) {
    switch (phase_of(t)) {
      case 1:
        return state.informed_at == t - 1 ? Action::kPush : Action::kNone;
      case 2:
        return Action::kPush;
      case 3:
        return Action::kPull;
      default:
        return Action::kNone;
    }
  }
  [[nodiscard]] bool finished(Round t, Count /*informed*/,
                              Count /*alive*/) const {
    return t >= schedule_.phase3_end;
  }
  [[nodiscard]] const char* name() const { return "four-choice/alg2"; }

  [[nodiscard]] const PhaseSchedule& schedule() const { return schedule_; }
  [[nodiscard]] int phase_of(Round t) const {
    if (t <= schedule_.phase1_end) return 1;
    if (t <= schedule_.phase2_end) return 2;
    if (t <= schedule_.phase3_end) return 3;
    return 0;
  }

 private:
  PhaseSchedule schedule_;
};

/// Whether the paper's degree rule selects Algorithm 2 (large degree):
/// d >= delta * log log n̂. Exposed so compile-time dispatchers (the
/// scheme dispatch table in rrb/core) can branch to the concrete type.
[[nodiscard]] bool four_choice_uses_large_degree(const FourChoiceConfig& cfg,
                                                 NodeId degree);

/// Select Algorithm 1 or 2 by degree, as the paper prescribes (nodes know
/// d): Algorithm 2 iff d >= delta * log log n̂. Returns a type-erased
/// adapter; dispatchers that want the static type use
/// four_choice_uses_large_degree() and construct the protocol themselves.
[[nodiscard]] std::unique_ptr<BroadcastProtocol> make_four_choice_protocol(
    const FourChoiceConfig& cfg, NodeId degree);

}  // namespace rrb
