#include "rrb/phonecall/channel_sampler.hpp"

#include <stdexcept>

namespace rrb {

void validate_channel(const ChannelConfig& config) {
  const auto require = [](bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument(rule);
  };
  require(config.num_choices >= 1, "need at least one choice");
  require(config.num_choices <= 64, "choices capped at 64");
  require(config.memory >= 0, "memory must be >= 0");
  require(config.failure_prob >= 0.0 && config.failure_prob <= 1.0,
          "failure_prob out of [0,1]");
  require(!(config.quasirandom && config.memory > 0),
          "quasirandom and memory are mutually exclusive");
}

std::size_t ChannelSampler::walk(Rng& rng, NodeId v, NodeId d,
                                 std::size_t take, std::span<NodeId> out) {
  // Walk the neighbour list cyclically from the node's cursor.
  if (cursor_[v] == kNoNode)
    cursor_[v] = static_cast<NodeId>(rng.uniform_u64(d));
  for (std::size_t i = 0; i < take; ++i)
    out[i] = static_cast<NodeId>((cursor_[v] + i) % d);
  cursor_[v] = static_cast<NodeId>((cursor_[v] + take) % d);
  return take;
}

}  // namespace rrb
