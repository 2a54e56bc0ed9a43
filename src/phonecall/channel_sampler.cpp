#include "rrb/phonecall/channel_sampler.hpp"

namespace rrb {

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
