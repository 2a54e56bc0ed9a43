#pragma once

#include <cstdint>
#include <vector>

#include "rrb/phonecall/protocol.hpp"

/// \file median_counter.hpp
/// The termination mechanism of Karp, Schindelhauer, Shenker & Vöcking
/// (FOCS'00), which the paper cites as the O(n log log n)-transmission
/// push&pull scheme for *complete* graphs. Reproduced here as the E16
/// baseline and as a general-purpose counter-based terminator.
///
/// Rules (age/median-counter scheme, simplified to its standard practical
/// form):
///  - an uninformed node that first receives the message enters state B
///    with counter ctr = 1;
///  - in state B a node push&pulls every round; at the start of each round
///    it compares its counter with the counters received in the previous
///    round: if the median of received counters is >= its own, it
///    increments ctr;
///  - when ctr reaches ctr_max (Θ(log log n)) the node enters state C and
///    push&pulls for final_rounds more rounds, then goes quiet (state D);
///  - a hard deadline of max_age rounds after a node's first receipt
///    bounds the running time (the Monte Carlo guarantee).

namespace rrb {

struct MedianCounterConfig {
  std::uint64_t n_estimate = 0;  ///< n̂ used to size the counters
  double ctr_multiplier = 1.0;   ///< ctr_max = ceil(mult*log2 log2 n̂) + 2
  double final_multiplier = 1.0; ///< final_rounds = ceil(mult*log2 log2 n̂)+1
  double max_age_multiplier = 6.0;  ///< deadline = ceil(mult * log2 n̂)
};

class MedianCounterProtocol {
 public:
  explicit MedianCounterProtocol(const MedianCounterConfig& cfg);

  void reset(NodeId n);
  void on_round_start(Round t);

  // The per-node and per-delivery hooks are defined inline: the engine
  // calls them once per informed node per round and once per transmission,
  // where an out-of-line call costs as much as the body.
  [[nodiscard]] Action action(NodeId v, const NodeLocalState& state,
                              Round t) {
    // Hard deadline: stop max_age rounds after first receipt.
    if (t - state.informed_at > max_age_) return Action::kNone;
    if (c_entered_[v] != kNever) {
      // State C for final_rounds rounds, then quiet (state D).
      if (t - c_entered_[v] >= final_rounds_) return Action::kNone;
      ++active_this_round_;
      return Action::kPushPull;
    }
    if (ctr_[v] >= ctr_max_) c_entered_[v] = t;
    ++active_this_round_;
    return Action::kPushPull;  // state B, or first round of C
  }
  [[nodiscard]] MessageMeta stamp(NodeId v, Round /*t*/) {
    MessageMeta meta;
    meta.counter = ctr_[v];
    return meta;
  }
  void on_receive(NodeId v, const MessageMeta& meta, Round /*t*/,
                  bool first_time) {
    if (first_time) {
      ctr_[v] = 1;
      return;
    }
    if (ctr_[v] == 0) return;  // duplicate delivery within the joining round
    const std::size_t cnt = sample_count_[v];
    if (cnt < kMaxSamples) {
      if (cnt == 0) touched_.push_back(v);
      if (meta.counter < ctr_[v]) ++below_[v];
      ++sample_count_[v];
    }
  }
  [[nodiscard]] bool finished(Round /*t*/, Count informed,
                              Count /*alive*/) const {
    if (informed == 0) return true;
    // Exact quiescence: no informed node transmitted this round. Uninformed
    // nodes can only become active through a transmission, so once the
    // active set is empty the execution is over for good.
    return active_this_round_ == 0;
  }
  [[nodiscard]] const char* name() const { return "median-counter"; }

  [[nodiscard]] int ctr_max() const { return ctr_max_; }
  [[nodiscard]] int final_rounds() const { return final_rounds_; }
  [[nodiscard]] int max_age() const { return max_age_; }

 private:
  // Per node: counter value, round state C was entered (kNever while in B),
  // and two byte counters over the counters received during the current
  // round: how many were received (capped at kMaxSamples — the median over
  // the first kMaxSamples is statistically indistinguishable from the full
  // median for the fan-ins we simulate) and how many of those were below
  // ctr. The rule needs no more: the median of cnt samples (the (cnt/2)-th
  // smallest) is >= ctr iff at most cnt/2 of them are below ctr. ctr only
  // changes at first receipt, which precedes every sample of that round,
  // and in on_round_start, so each sample is compared on arrival with the
  // value the rule reads.
  static constexpr std::size_t kMaxSamples = 32;

  int ctr_max_ = 0;
  int final_rounds_ = 0;
  int max_age_ = 0;

  std::vector<std::int32_t> ctr_;
  std::vector<Round> c_entered_;
  std::vector<std::uint8_t> sample_count_;
  std::vector<std::uint8_t> below_;    // samples this round below ctr_
  std::vector<NodeId> touched_;        // nodes with samples this round
  Count active_this_round_ = 0;        // nodes whose action was not kNone
};

}  // namespace rrb
