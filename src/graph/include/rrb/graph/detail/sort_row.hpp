#pragma once

#include <algorithm>
#include <cstddef>

#include "rrb/common/types.hpp"

/// \file sort_row.hpp
/// Ascending sort of one adjacency row of a random regular graph, shared by
/// the generators' sorted rows (rrb/graph/generators.cpp) and
/// rrb::bigtopo's per-node row sort. Graph::from_edges keeps std::sort: its
/// rows (cycles, tori, products, overlays) often arrive sorted or nearly
/// so, where std::sort's compares predict well, and the cutoff below was
/// measured on random rows only.
/// Internal to the library: not part of the public API, and the cutoff
/// below is not a knob.

namespace rrb::detail {

/// Longest row sorted by the branch-free insertion sort; longer rows go to
/// std::sort. Chosen from a row-length sweep of rows of uniform values
/// below 2^19 on a 4-vCPU x86-64 VM, one pinned core: the insertion sort
/// took about half std::sort's time from 8 to 34 entries, 0.6-0.75 of
/// it at 48 to 64, and lost (1.07x std::sort's time) at 96 and 128.
inline constexpr std::size_t kInsertionSortMaxRow = 64;

/// Sort [first, last) ascending. Rows up to kInsertionSortMaxRow entries
/// take an insertion sort with no data-dependent branch: inserting x into
/// the sorted prefix [0, i) sets every slot j from its old neighbours,
/// a[j] = max(a[j-1], min(a[j], x)), walking j down so each read sees the
/// old value. Every slot is independent of the others, so the compiler
/// vectorises the pass, and no compare mispredicts on random rows. The
/// sorted result is unique, so the bytes equal std::sort's.
inline void sort_row(NodeId* first, NodeId* last) {
  const auto len = static_cast<std::size_t>(last - first);
  if (len > kInsertionSortMaxRow) {
    std::sort(first, last);
    return;
  }
  for (std::size_t i = 1; i < len; ++i) {
    const NodeId x = first[i];
    first[i] = std::max(first[i - 1], x);
    for (std::size_t j = i - 1; j > 0; --j)
      first[j] = std::max(first[j - 1], std::min(first[j], x));
    first[0] = std::min(first[0], x);
  }
}

}  // namespace rrb::detail
