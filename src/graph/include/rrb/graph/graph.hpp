#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/common/types.hpp"

/// \file graph.hpp
/// Immutable undirected (multi)graph in compressed sparse row form.
///
/// The configuration model of §1.2 of the paper can produce self-loops and
/// parallel edges, and the analysis explicitly keeps them ("it is sufficient
/// to analyse the algorithm for graphs generated with this process even if
/// the resulting graph is not simple"). Graph therefore represents
/// multigraphs faithfully:
///  - a parallel edge appears once per multiplicity in both endpoint lists;
///  - a self-loop consumes two stubs of its node and appears twice in that
///    node's adjacency list, so that degree(v) always equals the number of
///    stubs of v, matching the pairing process exactly.

namespace rrb {

/// An undirected edge; stored with u <= v for canonical form.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// How much of the CSR contract Graph::from_csr verifies.
///  - kBasic: O(entries) in one pass over each row, the same pass that
///    derives the edge, self-loop and parallel-edge counts — offsets
///    well-formed (0-anchored, monotone, matching adjacency size, even
///    total), every entry in range, every per-node list sorted, every
///    degree within NodeId range. A rejected row is re-checked entry by
///    entry, so the error names its first failing entry.
///  - kFull: kBasic plus undirected symmetry (every (v,w) run is mirrored
///    by an equal-multiplicity (w,v) run and self-loop runs are even) —
///    O(entries · log d); meant for tests, not the large-n hot path.
enum class CsrValidation { kBasic, kFull };

class Graph {
 public:
  /// Empty graph on n nodes.
  explicit Graph(NodeId n = 0);

  /// Build from an explicit edge list (endpoints may be in any order;
  /// duplicates are kept as parallel edges, u == v kept as self-loops).
  [[nodiscard]] static Graph from_edges(NodeId n, std::span<const Edge> edges);

  /// Adopt an already-assembled CSR without re-materialising an edge list:
  /// offsets has size n+1, adjacency holds each node's sorted stub list
  /// (parallel edges once per multiplicity; a self-loop twice at its node).
  /// This is the compact path used by rrb::bigtopo — peak memory is the
  /// CSR itself. Validation per CsrValidation; edge/loop/parallel counts
  /// come from kBasic's one pass over the sorted lists. Past 2^20
  /// adjacency entries that pass runs over node ranges on the shared
  /// worker pool (rrb::parallel_for); counts and errors are the same.
  [[nodiscard]] static Graph from_csr(
      std::vector<Count> offsets, std::vector<NodeId> adjacency,
      CsrValidation validation = CsrValidation::kBasic);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges, counting multiplicity; a self-loop counts
  /// as one edge.
  [[nodiscard]] Count num_edges() const { return num_edges_; }

  /// Degree of v in the stub sense: parallel edges count once each, a
  /// self-loop counts twice.
  [[nodiscard]] NodeId degree(NodeId v) const {
    RRB_REQUIRE(v < num_nodes(), "degree: node out of range");
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted adjacency list of v (multiplicity preserved; self-loop appears
  /// twice).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    RRB_REQUIRE(v < num_nodes(), "neighbors: node out of range");
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// The i-th neighbour of v, 0 <= i < degree(v).
  [[nodiscard]] NodeId neighbor(NodeId v, NodeId i) const {
    RRB_REQUIRE(v < num_nodes(), "neighbor: node out of range");
    RRB_REQUIRE(offsets_[v] + i < offsets_[v + 1], "neighbor index");
    return adjacency_[offsets_[v] + i];
  }

  // ---- Unchecked CSR fast-path views --------------------------------------
  // For callers that have already validated their indices (the phone call
  // engine checks its inputs once at run start and then only produces
  // v < num_nodes() and i < degree(v) inside the round loop). These skip
  // the two RRB_REQUIRE branches per access that the checked accessors pay.

  /// degree(v) without bounds checks; v must be < num_nodes().
  [[nodiscard]] NodeId degree_unchecked(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// neighbor(v, i) without bounds checks; requires v < num_nodes() and
  /// i < degree(v).
  [[nodiscard]] NodeId neighbor_unchecked(NodeId v, NodeId i) const noexcept {
    return adjacency_[offsets_[v] + i];
  }

  /// neighbors(v) without bounds checks; v must be < num_nodes().
  [[nodiscard]] std::span<const NodeId> neighbors_unchecked(
      NodeId v) const noexcept {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff at least one (u,v) edge exists. O(log degree).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Multiplicity of the (u,v) edge (0 if absent; for u == v, the number of
  /// self-loops at u).
  [[nodiscard]] NodeId edge_multiplicity(NodeId u, NodeId v) const;

  /// Number of self-loop edges in the whole graph.
  [[nodiscard]] Count num_self_loops() const { return num_self_loops_; }

  /// Number of edges beyond the first between each node pair (a triple edge
  /// contributes 2).
  [[nodiscard]] Count num_parallel_extra() const { return num_parallel_; }

  /// True iff no self-loops and no parallel edges.
  [[nodiscard]] bool is_simple() const {
    return num_self_loops_ == 0 && num_parallel_ == 0;
  }

  /// If every node has the same degree, that degree.
  [[nodiscard]] std::optional<NodeId> regular_degree() const;

  [[nodiscard]] NodeId min_degree() const;
  [[nodiscard]] NodeId max_degree() const;

  /// Canonical edge list (u <= v), multiplicity preserved, sorted.
  [[nodiscard]] std::vector<Edge> edge_list() const;

 private:
  std::vector<Count> offsets_;    // size n+1
  std::vector<NodeId> adjacency_; // size = sum of degrees
  Count num_edges_ = 0;
  Count num_self_loops_ = 0;
  Count num_parallel_ = 0;
};

/// Incremental builder. add_edge is O(1); build() sorts adjacency once.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n) : n_(n) {}

  /// Append an undirected edge. Self-loops and duplicates allowed.
  void add_edge(NodeId u, NodeId v) {
    RRB_REQUIRE(u < n_ && v < n_, "add_edge: node out of range");
    edges_.push_back(Edge{u, v});
  }

  void reserve(std::size_t num_edges) { edges_.reserve(num_edges); }

  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// Finalise into an immutable Graph.
  [[nodiscard]] Graph build() const {
    return Graph::from_edges(n_, edges_);
  }

 private:
  NodeId n_;
  std::vector<Edge> edges_;
};

}  // namespace rrb
