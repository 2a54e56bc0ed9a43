#include "rrb/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

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

TEST(Graph, HandshakeLemmaWithLoopsAndParallels) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}, {0, 1}, {1, 1}};
  const Graph g = Graph::from_edges(2, edges);
  Count degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

}  // namespace
}  // namespace rrb
