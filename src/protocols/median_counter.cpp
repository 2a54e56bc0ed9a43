#include "rrb/protocols/median_counter.hpp"

#include <cmath>

#include "rrb/common/check.hpp"

namespace rrb {

namespace {

[[nodiscard]] int ceil_of(double x) {
  return static_cast<int>(std::ceil(x));
}

}  // namespace

MedianCounterProtocol::MedianCounterProtocol(const MedianCounterConfig& cfg) {
  RRB_REQUIRE(cfg.n_estimate >= 2, "n_estimate must be >= 2");
  const double lg_n =
      std::log2(static_cast<double>(cfg.n_estimate < 4 ? 4 : cfg.n_estimate));
  const double lglg_n = std::log2(lg_n < 2.0 ? 2.0 : lg_n);
  ctr_max_ = ceil_of(cfg.ctr_multiplier * lglg_n) + 2;
  final_rounds_ = ceil_of(cfg.final_multiplier * lglg_n) + 1;
  max_age_ = ceil_of(cfg.max_age_multiplier * lg_n);
  RRB_ASSERT(ctr_max_ >= 1 && final_rounds_ >= 1 && max_age_ >= 1,
             "degenerate median-counter parameters");
}

void MedianCounterProtocol::reset(NodeId n) {
  ctr_.assign(n, 0);
  c_entered_.assign(n, kNever);
  sample_count_.assign(n, 0);
  below_.assign(n, 0);
  touched_.clear();
  active_this_round_ = 0;
}

void MedianCounterProtocol::on_round_start(Round /*t*/) {
  active_this_round_ = 0;
  // Apply the median rule to the samples gathered last round, then clear.
  // Every touched node has ctr > 0 and at least one sample: a node is
  // touched by its first recorded sample, and only nodes with ctr > 0
  // record any.
  for (const NodeId v : touched_) {
    if (below_[v] <= sample_count_[v] / 2) ++ctr_[v];
    sample_count_[v] = 0;
    below_[v] = 0;
  }
  touched_.clear();
}

}  // namespace rrb
