#include "rrb/protocols/four_choice.hpp"

#include <cmath>

#include "rrb/common/check.hpp"
#include "rrb/common/math.hpp"

namespace rrb {

namespace {

/// log2 with the same clamping convention as common/math (n̂ >= 2, and the
/// inner log is taken of max(log2 n̂, 2) so that log log never vanishes).
[[nodiscard]] double lg(std::uint64_t n) {
  return std::log2(static_cast<double>(n < 2 ? 2 : n));
}

[[nodiscard]] double lglg(std::uint64_t n) {
  const double l = lg(n);
  return std::log2(l < 2.0 ? 2.0 : l);
}

}  // namespace

PhaseSchedule make_schedule_small_d(const FourChoiceConfig& cfg) {
  RRB_REQUIRE(cfg.n_estimate >= 2, "n_estimate must be >= 2");
  RRB_REQUIRE(cfg.alpha > 0.0, "alpha must be positive");
  const double a = cfg.alpha;
  const double l = lg(cfg.n_estimate);
  const double ll = lglg(cfg.n_estimate);
  PhaseSchedule s;
  s.phase1_end = static_cast<Round>(std::ceil(a * l));
  s.phase2_end = static_cast<Round>(std::ceil(a * (l + ll)));
  s.phase3_end = s.phase2_end + 1;
  s.phase4_end = static_cast<Round>(2 * std::ceil(a * l) + std::ceil(a * ll));
  // The schedule must be monotone even for tiny n̂ where the ceilings bite.
  if (s.phase2_end <= s.phase1_end) s.phase2_end = s.phase1_end + 1;
  if (s.phase3_end <= s.phase2_end) s.phase3_end = s.phase2_end + 1;
  if (s.phase4_end <= s.phase3_end) s.phase4_end = s.phase3_end + 1;
  return s;
}

PhaseSchedule make_schedule_large_d(const FourChoiceConfig& cfg) {
  RRB_REQUIRE(cfg.n_estimate >= 2, "n_estimate must be >= 2");
  RRB_REQUIRE(cfg.alpha > 0.0, "alpha must be positive");
  const double a = cfg.alpha;
  const double l = lg(cfg.n_estimate);
  const double ll = lglg(cfg.n_estimate);
  PhaseSchedule s;
  s.phase1_end = static_cast<Round>(std::ceil(a * l));
  s.phase2_end = static_cast<Round>(std::ceil(a * (l + ll)));
  s.phase3_end = static_cast<Round>(std::ceil(a * l + 2.0 * a * ll));
  if (s.phase2_end <= s.phase1_end) s.phase2_end = s.phase1_end + 1;
  if (s.phase3_end <= s.phase2_end) s.phase3_end = s.phase2_end + 1;
  s.phase4_end = s.phase3_end;
  return s;
}

FourChoiceBroadcast::FourChoiceBroadcast(const FourChoiceConfig& cfg)
    : schedule_(make_schedule_small_d(cfg)) {}

FourChoiceLargeDegree::FourChoiceLargeDegree(const FourChoiceConfig& cfg)
    : schedule_(make_schedule_large_d(cfg)) {}

bool four_choice_uses_large_degree(const FourChoiceConfig& cfg,
                                   NodeId degree) {
  const double lg_n = std::log2(static_cast<double>(
      cfg.n_estimate < 4 ? 4 : cfg.n_estimate));
  const double lglg_n = std::log2(lg_n < 2.0 ? 2.0 : lg_n);
  return static_cast<double>(degree) >= cfg.delta * lglg_n;
}

std::unique_ptr<BroadcastProtocol> make_four_choice_protocol(
    const FourChoiceConfig& cfg, NodeId degree) {
  if (four_choice_uses_large_degree(cfg, degree))
    return make_protocol<FourChoiceLargeDegree>(cfg);
  return make_protocol<FourChoiceBroadcast>(cfg);
}

}  // namespace rrb
