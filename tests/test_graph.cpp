#include "rrb/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rrb/graph/detail/sort_row.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/rng/rng.hpp"

namespace rrb {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5U);
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_EQ(g.degree(3), 0U);
  EXPECT_TRUE(g.is_simple());
}

TEST(Graph, SingleEdgeAppearsInBothAdjacencies) {
  const std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.degree(0), 1U);
  EXPECT_EQ(g.degree(1), 1U);
  EXPECT_EQ(g.neighbor(0, 0), 1U);
  EXPECT_EQ(g.neighbor(1, 0), 0U);
}

TEST(Graph, TriangleStructure) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3U);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{2});
}

TEST(Graph, SelfLoopCountsTwiceInDegree) {
  const std::vector<Edge> edges{{0, 0}};
  const Graph g = Graph::from_edges(1, edges);
  EXPECT_EQ(g.degree(0), 2U);         // a loop consumes two stubs
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.num_self_loops(), 1U);
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.edge_multiplicity(0, 0), 1U);
}

TEST(Graph, ParallelEdgesKeptWithMultiplicity) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 3U);
  EXPECT_EQ(g.degree(0), 3U);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 3U);
  EXPECT_EQ(g.num_parallel_extra(), 2U);
  EXPECT_FALSE(g.is_simple());
}

TEST(Graph, MixedLoopsAndParallel) {
  const std::vector<Edge> edges{{0, 0}, {0, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.degree(0), 5U);  // 2+2 loop stubs + 1
  EXPECT_EQ(g.num_self_loops(), 2U);
  EXPECT_EQ(g.edge_multiplicity(0, 0), 2U);
  EXPECT_EQ(g.num_parallel_extra(), 1U);  // the second loop is "parallel"
}

TEST(Graph, HasEdgeNegative) {
  const std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_EQ(g.edge_multiplicity(0, 2), 0U);
}

TEST(Graph, AdjacencyIsSorted) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);
  const auto adj = g.neighbors(0);
  ASSERT_EQ(adj.size(), 3U);
  EXPECT_TRUE(adj[0] <= adj[1] && adj[1] <= adj[2]);
}

TEST(Graph, OutOfRangeAccessThrows) {
  Graph g(2);
  EXPECT_THROW((void)g.degree(2), std::logic_error);
  EXPECT_THROW((void)g.neighbors(5), std::logic_error);
  EXPECT_THROW((void)g.neighbor(0, 0), std::logic_error);
}

TEST(Graph, FromEdgesRejectsBadEndpoints) {
  const std::vector<Edge> edges{{0, 7}};
  EXPECT_THROW((void)Graph::from_edges(3, edges), std::logic_error);
}

TEST(Graph, RegularDegreeDetectsIrregular) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_FALSE(g.regular_degree().has_value());
}

TEST(Graph, MinMaxDegree) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {1, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.min_degree(), 1U);
  EXPECT_EQ(g.max_degree(), 3U);
}

TEST(Graph, EdgeListRoundTripsSimpleGraph) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  const auto list = g.edge_list();
  ASSERT_EQ(list.size(), 4U);
  const Graph g2 = Graph::from_edges(4, list);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g2.degree(v), g.degree(v));
}

TEST(Graph, EdgeListPreservesMultiplicityAndLoops) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {2, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const auto list = g.edge_list();
  ASSERT_EQ(list.size(), 3U);
  const Graph g2 = Graph::from_edges(3, list);
  EXPECT_EQ(g2.edge_multiplicity(0, 1), 2U);
  EXPECT_EQ(g2.edge_multiplicity(2, 2), 1U);
}

TEST(Graph, EdgeListCanonicalOrientation) {
  const std::vector<Edge> edges{{3, 1}, {2, 0}};
  const Graph g = Graph::from_edges(4, edges);
  for (const Edge& e : g.edge_list()) EXPECT_LE(e.u, e.v);
}

// edge_list() walks the sorted CSR: nodes ascend, and within a node the
// self-loop run precedes the w > v runs, so the list comes out in
// lexicographic (u, v) order without a sort. Pinned on a multigraph whose
// input order is scrambled and which mixes loops, a double loop, parallel
// edges and a loop at the last node.
TEST(Graph, EdgeListIsLexicographicOnMultigraph) {
  const std::vector<Edge> edges{{4, 1}, {2, 2}, {1, 0}, {3, 3}, {0, 1},
                                {2, 1}, {3, 3}, {4, 4}, {0, 4}, {2, 1},
                                {1, 1}, {3, 0}, {2, 4}, {0, 1}};
  const Graph g = Graph::from_edges(5, edges);
  const auto list = g.edge_list();
  const auto lex = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end(), lex));
  const std::vector<Edge> expected{{0, 1}, {0, 1}, {0, 1}, {0, 3}, {0, 4},
                                   {1, 1}, {1, 2}, {1, 2}, {1, 4}, {2, 2},
                                   {2, 4}, {3, 3}, {3, 3}, {4, 4}};
  EXPECT_EQ(list, expected);
}

TEST(GraphBuilder, BuildMatchesFromEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  EXPECT_EQ(b.num_edges(), 2U);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::logic_error);
}

TEST(Graph, HandshakeLemmaHolds) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);
  Count degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

// ---------------------------------------------------------------------------
// from_csr: adopting a prebuilt CSR (the rrb::bigtopo handoff path)
// ---------------------------------------------------------------------------

TEST(GraphFromCsr, ValidCsrMatchesFromEdges) {
  // Triangle, handed over as offsets + sorted adjacency.
  const Graph csr = Graph::from_csr({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1});
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  const Graph ref = Graph::from_edges(3, edges);
  ASSERT_EQ(csr.num_nodes(), ref.num_nodes());
  EXPECT_EQ(csr.num_edges(), ref.num_edges());
  for (NodeId v = 0; v < 3; ++v) {
    ASSERT_EQ(csr.degree(v), ref.degree(v));
    for (NodeId i = 0; i < csr.degree(v); ++i)
      EXPECT_EQ(csr.neighbors(v)[i], ref.neighbors(v)[i]);
  }
  EXPECT_TRUE(csr.is_simple());
}

TEST(GraphFromCsr, CountsLoopsAndParallelEdges) {
  // Node 0: loop (two entries) + double edge to 1. Node 1: double edge back.
  const Graph g = Graph::from_csr({0, 4, 6}, {0, 0, 1, 1, 0, 0});
  EXPECT_EQ(g.num_edges(), 3U);
  EXPECT_EQ(g.num_self_loops(), 1U);
  EXPECT_EQ(g.num_parallel_extra(), 1U);
  EXPECT_EQ(g.degree(0), 4U);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 2U);
}

TEST(GraphFromCsr, RejectsMalformedOffsets) {
  // Empty offsets (no n+1 anchor row).
  EXPECT_THROW((void)Graph::from_csr({}, {}), std::logic_error);
  // offsets[0] != 0.
  EXPECT_THROW((void)Graph::from_csr({1, 2}, {0}), std::logic_error);
  // Non-monotone offsets.
  EXPECT_THROW((void)Graph::from_csr({0, 4, 2, 6}, {1, 2, 0, 2, 0, 1}),
               std::logic_error);
  // offsets back row disagrees with adjacency size.
  EXPECT_THROW((void)Graph::from_csr({0, 2, 5}, {1, 1, 0, 0}),
               std::logic_error);
  // Odd total stub count (violates the handshake lemma).
  EXPECT_THROW((void)Graph::from_csr({0, 1, 2, 3}, {1, 0, 0}),
               std::logic_error);
}

TEST(GraphFromCsr, RejectsBadAdjacency) {
  // Entry out of node range.
  EXPECT_THROW((void)Graph::from_csr({0, 1, 2}, {1, 2}), std::logic_error);
  // Per-node list not sorted.
  EXPECT_THROW((void)Graph::from_csr({0, 2, 3, 4}, {2, 1, 0, 0}),
               std::logic_error);
}

TEST(GraphFromCsr, FullValidationCatchesAsymmetry) {
  // 0 lists 1 twice, 1 lists 0 once (and 2 pads the total even): a CSR no
  // edge multiset can produce. kBasic trusts the producer; kFull scans.
  const std::vector<Count> offsets{0, 2, 3, 4};
  const std::vector<NodeId> adjacency{1, 1, 0, 0};
  EXPECT_NO_THROW((void)Graph::from_csr(offsets, adjacency));
  EXPECT_THROW((void)Graph::from_csr(offsets, adjacency,
                                     CsrValidation::kFull),
               std::logic_error);

  // A consistent multigraph passes kFull: loop at 0 plus double edge 0-1.
  EXPECT_NO_THROW((void)Graph::from_csr({0, 4, 6}, {0, 0, 1, 1, 0, 0},
                                        CsrValidation::kFull));
}

// from_csr's one pass: counts and exact rejections
// ---------------------------------------------------------------------------

struct NaiveCounts {
  Count edges = 0;
  Count self_loops = 0;
  Count parallel_extra = 0;
};

/// Recount a CSR's multigraph summary from its edge multiset: every entry
/// w > v is one (v, w) edge, every two entries v at v one loop, and each
/// pair's (or node's loop) multiplicity m adds m - 1 extras.
NaiveCounts naive_counts(const std::vector<Count>& offsets,
                         const std::vector<NodeId>& adjacency) {
  std::map<std::pair<NodeId, NodeId>, Count> multiplicity;
  NaiveCounts counts;
  for (NodeId v = 0; v + 1 < offsets.size(); ++v) {
    Count loop_entries = 0;
    for (Count i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adjacency[i] > v) ++multiplicity[{v, adjacency[i]}];
      if (adjacency[i] == v) ++loop_entries;
    }
    if (loop_entries > 0) multiplicity[{v, v}] = loop_entries / 2;
    counts.self_loops += loop_entries / 2;
  }
  for (const auto& [pair, m] : multiplicity) {
    counts.edges += m;
    if (m > 0) counts.parallel_extra += m - 1;
  }
  return counts;
}

void expect_counts_match_naive(const std::vector<Count>& offsets,
                               const std::vector<NodeId>& adjacency,
                               const std::string& label) {
  const NaiveCounts want = naive_counts(offsets, adjacency);
  const Graph g = Graph::from_csr(offsets, adjacency);
  EXPECT_EQ(g.num_edges(), want.edges) << label;
  EXPECT_EQ(g.num_self_loops(), want.self_loops) << label;
  EXPECT_EQ(g.num_parallel_extra(), want.parallel_extra) << label;
}

TEST(GraphFromCsr, CountsMatchNaiveRecountOnConfigurationModels) {
  // Small n and d make loops and parallel edges common.
  Count loops_seen = 0;
  Count parallels_seen = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<NodeId>(4 + seed % 13);
    auto d = static_cast<NodeId>(1 + seed % 5);
    if (n * d % 2 == 1) ++d;
    const Graph model = configuration_model(n, d, rng);
    std::vector<Count> offsets{0};
    std::vector<NodeId> adjacency;
    for (NodeId v = 0; v < model.num_nodes(); ++v) {
      for (const NodeId w : model.neighbors(v)) adjacency.push_back(w);
      offsets.push_back(adjacency.size());
    }
    expect_counts_match_naive(offsets, adjacency,
                              "seed " + std::to_string(seed));
    loops_seen += model.num_self_loops();
    parallels_seen += model.num_parallel_extra();
  }
  EXPECT_GT(loops_seen, 0U);
  EXPECT_GT(parallels_seen, 0U);
}

TEST(GraphFromCsr, CountsLoopRunsOfLengthTwoAndFour) {
  // Node 0: two loops (a run of 4) and a double edge to 1; node 1: one
  // loop (a run of 2) and the double edge back; node 2: one loop and a
  // triple edge to 3.
  const std::vector<Count> offsets{0, 6, 10, 15, 18};
  const std::vector<NodeId> adjacency{0, 0, 0, 0, 1, 1,  // node 0
                                      0, 0, 1, 1,        // node 1
                                      2, 2, 3, 3, 3,     // node 2
                                      2, 2, 2};          // node 3
  expect_counts_match_naive(offsets, adjacency, "hand-built");
  const Graph g = Graph::from_csr(offsets, adjacency);
  EXPECT_EQ(g.num_edges(), 9U);
  EXPECT_EQ(g.num_self_loops(), 4U);
  EXPECT_EQ(g.num_parallel_extra(), 4U);  // 1 + 1 + 0 + 2
}

/// from_csr must throw std::logic_error whose message ends in `message`.
void expect_csr_error(std::vector<Count> offsets,
                      std::vector<NodeId> adjacency,
                      const std::string& message) {
  try {
    (void)Graph::from_csr(std::move(offsets), std::move(adjacency));
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    const std::string suffix = " — " + message;
    EXPECT_TRUE(what.size() >= suffix.size() &&
                what.compare(what.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
        << what << "\n  expected message: " << message;
  }
}

TEST(GraphFromCsr, EachBasicRejectionNamesItsError) {
  expect_csr_error({}, {}, "from_csr: offsets must have size n+1");
  expect_csr_error({1, 2}, {0, 0}, "from_csr: offsets[0] must be 0");
  expect_csr_error({0, 2, 5}, {1, 1, 0, 0},
                   "from_csr: offsets[n] must equal adjacency size");
  expect_csr_error({0, 1, 2, 3}, {1, 0, 0},
                   "from_csr: total stub count must be even");
  expect_csr_error({0, 2, 1, 4}, {1, 2, 0, 0},
                   "from_csr: offsets must be non-decreasing");
  // An offset past the adjacency array that later comes back down: the
  // row is never read.
  expect_csr_error({0, 8, 2, 4}, {1, 1, 0, 0},
                   "from_csr: offsets must be non-decreasing");
  expect_csr_error({0, 1, 2}, {1, 2}, "from_csr: adjacency entry out of range");
  expect_csr_error({0, 2, 3, 4}, {2, 1, 0, 0},
                   "from_csr: adjacency lists must be sorted per node");
  // Both faults in one row: the first failing entry names the error.
  expect_csr_error({0, 3, 4}, {5, 0, 1, 0},
                   "from_csr: adjacency entry out of range");
  expect_csr_error({0, 3, 4}, {1, 0, 5, 0},
                   "from_csr: adjacency lists must be sorted per node");
  // A bad row after a good one, and a bad row's error before a later
  // node's bad offsets.
  expect_csr_error({0, 2, 4}, {1, 1, 1, 0},
                   "from_csr: adjacency lists must be sorted per node");
  expect_csr_error({0, 2, 6, 4}, {1, 0, 0, 0},
                   "from_csr: adjacency lists must be sorted per node");
}

// A CSR past 2^20 entries is scanned in node ranges on the worker pool.
// These CSRs hold 2^21 entries or more, so they take at least two tasks.

/// n nodes with `loops` self-loops each: a valid kBasic CSR of n·2·loops
/// entries.
std::pair<std::vector<Count>, std::vector<NodeId>> loop_csr(NodeId n,
                                                            NodeId loops) {
  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> adjacency;
  adjacency.reserve(static_cast<std::size_t>(n) * 2 * loops);
  for (NodeId v = 0; v < n; ++v) {
    adjacency.insert(adjacency.end(), 2 * loops, v);
    offsets[v + 1] = adjacency.size();
  }
  return {std::move(offsets), std::move(adjacency)};
}

TEST(GraphFromCsrParallel, FirstBadRowNamesTheErrorAcrossTasks) {
  constexpr NodeId kNodes = NodeId{1} << 16;
  constexpr NodeId kWidth = 32;  // 2^21 entries: two tasks of 2^15 nodes
  const auto [offsets, adjacency] = loop_csr(kNodes, kWidth / 2);
  ASSERT_NO_THROW((void)Graph::from_csr(offsets, adjacency));
  const std::size_t early = std::size_t{100} * kWidth;    // task 0
  const std::size_t late = std::size_t{40000} * kWidth;   // task 1

  const auto unsorted = [](std::vector<NodeId>& adj, std::size_t row) {
    adj[row] = adj[row + 1] + 1;
  };
  const auto out_of_range = [](std::vector<NodeId>& adj, std::size_t row) {
    adj[row + kWidth - 1] = kNodes;
  };

  std::vector<NodeId> adj = adjacency;
  unsorted(adj, early);
  out_of_range(adj, late);
  expect_csr_error(offsets, adj,
                   "from_csr: adjacency lists must be sorted per node");

  adj = adjacency;
  out_of_range(adj, early);
  unsorted(adj, late);
  expect_csr_error(offsets, adj, "from_csr: adjacency entry out of range");

  // Bad offsets in the later task lose to a bad row in the earlier one,
  // and name their own error alone.
  std::vector<Count> offs = offsets;
  offs[40001] = offs[40000] - 2;
  adj = adjacency;
  unsorted(adj, early);
  expect_csr_error(offs, adj,
                   "from_csr: adjacency lists must be sorted per node");
  expect_csr_error(offs, adjacency, "from_csr: offsets must be non-decreasing");
}

TEST(GraphFromCsrParallel, CountsEqualTheSinglePassCounts) {
  // Copies of one small multigraph, side by side: the big CSR's counts are
  // the copies' sum. 37 nodes per copy put task bounds inside copies.
  Rng rng(0xc5a);
  const Graph block = configuration_model(37, 4, rng);
  ASSERT_GT(block.num_self_loops(), 0U);
  ASSERT_GT(block.num_parallel_extra(), 0U);
  constexpr NodeId kCopies = 20000;  // 2.96e6 entries: three tasks
  std::vector<Count> offsets{0};
  std::vector<NodeId> adjacency;
  for (NodeId c = 0; c < kCopies; ++c)
    for (NodeId v = 0; v < block.num_nodes(); ++v) {
      for (const NodeId w : block.neighbors(v))
        adjacency.push_back(c * block.num_nodes() + w);
      offsets.push_back(adjacency.size());
    }
  ASSERT_GT(adjacency.size(), std::size_t{2} << 20);

  const Graph g = Graph::from_csr(std::move(offsets), std::move(adjacency));
  EXPECT_EQ(g.num_edges(), kCopies * block.num_edges());
  EXPECT_EQ(g.num_self_loops(), kCopies * block.num_self_loops());
  EXPECT_EQ(g.num_parallel_extra(), kCopies * block.num_parallel_extra());
}

// The generators' and bigtopo's short-row sort must give std::sort's bytes
// at every length, on both sides of its insertion-sort cutoff, with heavy
// duplicates and with sorted and reversed input.
TEST(GraphSortRow, MatchesStdSortAtEveryLength) {
  Rng rng(0x5027);
  std::vector<std::size_t> lengths(65);
  for (std::size_t len = 0; len <= 64; ++len) lengths[len] = len;
  lengths.push_back(100);
  lengths.push_back(300);
  for (const std::size_t len : lengths) {
    for (const std::uint64_t values : {2ULL, 5ULL, 1ULL << 32}) {
      for (int shape = 0; shape < 3; ++shape) {
        std::vector<NodeId> row(len);
        for (NodeId& x : row) x = static_cast<NodeId>(rng.uniform_u64(values));
        if (shape == 1) std::sort(row.begin(), row.end());
        if (shape == 2) std::sort(row.rbegin(), row.rend());
        std::vector<NodeId> want = row;
        std::sort(want.begin(), want.end());
        detail::sort_row(row.data(), row.data() + row.size());
        ASSERT_EQ(row, want) << "length " << len << ", values < " << values
                             << ", shape " << shape;
      }
    }
  }
}

TEST(Graph, HandshakeLemmaWithLoopsAndParallels) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}, {0, 1}, {1, 1}};
  const Graph g = Graph::from_edges(2, edges);
  Count degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

}  // namespace
}  // namespace rrb
