#pragma once

#include "rrb/phonecall/protocol.hpp"
#include "rrb/protocols/four_choice.hpp"

/// \file sequentialised.hpp
/// The sequentialised model of §1.2, footnote 2: instead of opening four
/// channels at once, each node opens ONE channel per step, choosing i.u.r.
/// among neighbours not chosen during the last 3 steps (ChannelConfig
/// {num_choices = 1, memory = 3}). "Four steps of this sequentialised model
/// can be viewed as one step in the [four-choice] model" — so this protocol
/// maps engine step t to parallel round p = ceil(t/4) and replays Algorithm
/// 1's action for round p in each of its four sub-steps. A node informed at
/// sequential step s acts as if informed in parallel round ceil(s/4).

namespace rrb {

class SequentialisedFourChoice {
 public:
  /// cfg is interpreted exactly as for FourChoiceBroadcast; the horizon in
  /// engine steps is 4x the parallel schedule. Run with ChannelConfig
  /// {num_choices = 1, memory = 3}.
  explicit SequentialisedFourChoice(const FourChoiceConfig& cfg);

  [[nodiscard]] Action action(NodeId /*v*/, const NodeLocalState& state,
                              Round t) {
    const Round p = parallel_round(t);
    // Parallel round in which this node was informed (0 for the source,
    // which is informed at sequential step 0).
    const Round q =
        state.informed_at == 0 ? 0 : parallel_round(state.informed_at);

    if (p <= schedule_.phase1_end)
      return q == p - 1 ? Action::kPush : Action::kNone;
    if (p <= schedule_.phase2_end) return Action::kPush;
    if (p <= schedule_.phase3_end) return Action::kPull;
    if (p <= schedule_.phase4_end)
      return q > schedule_.phase2_end ? Action::kPush : Action::kNone;
    return Action::kNone;
  }
  [[nodiscard]] bool finished(Round t, Count /*informed*/,
                              Count /*alive*/) const {
    return t >= 4 * schedule_.phase4_end;
  }
  [[nodiscard]] const char* name() const {
    return "four-choice/sequentialised";
  }

  [[nodiscard]] const PhaseSchedule& parallel_schedule() const {
    return schedule_;
  }

  /// The parallel round a sequential step belongs to (1-based).
  [[nodiscard]] static Round parallel_round(Round t) {
    return (t + 3) / 4;
  }

 private:
  PhaseSchedule schedule_;
};

}  // namespace rrb
