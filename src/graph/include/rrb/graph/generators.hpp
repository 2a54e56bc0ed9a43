#pragma once

#include <cstdint>

#include "rrb/graph/graph.hpp"
#include "rrb/rng/rng.hpp"

/// \file generators.hpp
/// Graph generators. The central one for the paper is the configuration
/// (pairing) model of §1.2; the rest supply baselines, test fixtures and
/// the §5 counterexample topology (Cartesian product with K5).

namespace rrb {

/// Random d-regular multigraph from the configuration model (§1.2): each of
/// the n nodes gets d stubs; stubs are paired uniformly at random. May
/// contain self-loops and parallel edges — exactly the process the paper
/// analyses. Requires n*d even and d >= 1. Every node owns exactly d
/// stubs, so the pairing fills one fixed-width row of d neighbours per
/// node; the sorted rows become the CSR as is (Graph::from_csr, offsets
/// v·d), with no edge list in between.
[[nodiscard]] Graph configuration_model(NodeId n, NodeId d, Rng& rng);

/// Random *simple* d-regular graph: configuration model followed by defect
/// repair via uniformly random edge switches (swap a defective edge with a
/// random partner edge when the swap removes the defect without creating a
/// new one). For d = o(sqrt n) this produces graphs negligibly far from the
/// uniform distribution in practice and is the standard practical sampler.
/// Throws std::runtime_error if repair fails repeatedly (never observed for
/// n > 2d^2; a safety valve, not an expected path).
///
/// The repair needs no hash table. A switch preserves every degree, so
/// node v's neighbour multiset stays in one sorted row of d entries:
/// multiplicity is a binary search in a row and a committed switch is four
/// sorted single-element replaces. Peak memory is about 2·n·d NodeIds (the
/// paired stubs, which double as the edge list, and the rows) plus the
/// defect list. Defects never grow: a committed switch only creates pairs
/// that were absent (multiplicity 0 -> 1) and only lowers the multiplicity
/// of the pairs it removes, so no edge outside the current defect list can
/// become defective. The edge list is therefore scanned in full once, and
/// each later pass just drops repaired entries from the list.
[[nodiscard]] Graph random_regular_simple(NodeId n, NodeId d, Rng& rng);

/// Erdős–Rényi G(n, p) via geometric edge skipping; simple by construction.
[[nodiscard]] Graph gnp(NodeId n, double p, Rng& rng);

/// Complete graph K_n.
[[nodiscard]] Graph complete(NodeId n);

/// Complete bipartite graph K_{a,b}.
[[nodiscard]] Graph complete_bipartite(NodeId a, NodeId b);

/// Cycle C_n (n >= 3).
[[nodiscard]] Graph cycle(NodeId n);

/// Path P_n on n nodes.
[[nodiscard]] Graph path(NodeId n);

/// Star on n nodes (node 0 is the hub).
[[nodiscard]] Graph star(NodeId n);

/// Hypercube Q_dim on 2^dim nodes.
[[nodiscard]] Graph hypercube(int dim);

/// Torus grid (rows x cols), 4-regular when both dims >= 3.
[[nodiscard]] Graph torus(NodeId rows, NodeId cols);

/// Cartesian product G □ H: vertex (u,i) mapped to u*|H|+i; (u,i)~(v,i) for
/// every G-edge (u,v), (u,i)~(u,j) for every H-edge (i,j). Regular if both
/// factors are regular, with degree deg_G + deg_H. This is the §5
/// counterexample shape: G(n,d) □ K5 has expansion similar to a random
/// regular graph but multi-choice gossip gains nothing inside the K5 fibres.
[[nodiscard]] Graph cartesian_product(const Graph& g, const Graph& h);

/// Disjoint union of two graphs (handy for negative tests: disconnected).
[[nodiscard]] Graph disjoint_union(const Graph& g, const Graph& h);

/// Barabási–Albert preferential attachment graph: starts from a clique on
/// m+1 nodes; each subsequent node attaches m edges to existing nodes with
/// probability proportional to their current degree (implemented with the
/// standard repeated-endpoint trick: sample a uniform endpoint of a
/// uniform existing edge). Context: the paper's related work [8] (Doerr,
/// Fouz, Friedrich) shows memory-assisted push is sub-logarithmic on these
/// graphs; see bench_x1.
[[nodiscard]] Graph preferential_attachment(NodeId n, NodeId m, Rng& rng);

}  // namespace rrb
