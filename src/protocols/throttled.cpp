#include "rrb/protocols/throttled.hpp"

#include <cmath>

#include "rrb/common/check.hpp"

namespace rrb {

ThrottledPushPull::ThrottledPushPull(const ThrottledConfig& cfg) {
  RRB_REQUIRE(cfg.n_estimate >= 2, "n_estimate must be >= 2");
  RRB_REQUIRE(cfg.degree >= 2, "degree must be >= 2");
  RRB_REQUIRE(cfg.c1 > 0.0 && cfg.c2 >= 0.0, "bad multipliers");
  const double lg_n =
      std::log2(static_cast<double>(cfg.n_estimate < 4 ? 4 : cfg.n_estimate));
  const double lg_d = std::log2(static_cast<double>(cfg.degree));
  const double lglg_n = std::log2(lg_n < 2.0 ? 2.0 : lg_n);
  tau_ = static_cast<Round>(std::ceil(cfg.c1 * lg_n / lg_d) +
                            std::ceil(cfg.c2 * lglg_n));
  RRB_ASSERT(tau_ >= 1, "degenerate throttle window");
}

}  // namespace rrb
