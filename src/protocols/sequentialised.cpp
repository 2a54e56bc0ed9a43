#include "rrb/protocols/sequentialised.hpp"

namespace rrb {

SequentialisedFourChoice::SequentialisedFourChoice(
    const FourChoiceConfig& cfg)
    : schedule_(make_schedule_small_d(cfg)) {}

}  // namespace rrb
