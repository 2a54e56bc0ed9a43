#include "rrb/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "rrb/graph/detail/sort_row.hpp"

namespace rrb {

namespace {

/// Node counts combine in 64-bit and must land back in the NodeId range
/// (n <= 2^31, types.hpp) before a GraphBuilder is sized with them.
[[nodiscard]] NodeId checked_node_count(std::uint64_t n, const char* what) {
  RRB_REQUIRE(n <= (std::uint64_t{1} << 31),
              std::string(what) + ": node count exceeds NodeId range");
  return static_cast<NodeId>(n);
}

/// The configuration model's pairing (§1.2): node v owns stubs
/// [v·d, v·d + d), the stub list is shuffled, and positions 2k, 2k+1 are
/// paired. The returned list doubles as the edge list: edge k is
/// (pairs[2k], pairs[2k+1]).
[[nodiscard]] std::vector<NodeId> paired_stubs(NodeId n, NodeId d, Rng& rng) {
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;
  std::vector<NodeId> stubs(num_stubs);
  NodeId* stub = stubs.data();
  for (NodeId v = 0; v < n; ++v) stub = std::fill_n(stub, d, v);
  rng.shuffle(std::span<NodeId>(stubs));
  return stubs;
}

/// Every node of a d-regular pairing owns exactly d stubs, so its neighbour
/// multiset fits one fixed-width row rows[v·d, v·d + d). Rows come back
/// sorted — the canonical per-node order of Graph's CSR — with a parallel
/// edge once per multiplicity and a self-loop twice at its node.
[[nodiscard]] std::vector<NodeId> sorted_rows(NodeId n, NodeId d,
                                              std::span<const NodeId> pairs) {
  std::vector<NodeId> rows(pairs.size());
  std::vector<NodeId> filled(n, 0);  // slots of v's row written so far
  const auto put = [&](NodeId v, NodeId w) {
    rows[static_cast<std::size_t>(v) * d + filled[v]++] = w;
  };
  for (std::size_t s = 0; s + 1 < pairs.size(); s += 2) {
    put(pairs[s], pairs[s + 1]);
    put(pairs[s + 1], pairs[s]);
  }
  for (NodeId* row = rows.data(); row != rows.data() + rows.size(); row += d)
    detail::sort_row(row, row + d);
  return rows;
}

/// Hand sorted fixed-width rows to the CSR as is: offsets are v·d.
[[nodiscard]] Graph graph_from_rows(NodeId n, NodeId d,
                                    std::vector<NodeId> rows) {
  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) offsets[v] = v * d;
  return Graph::from_csr(std::move(offsets), std::move(rows),
                         CsrValidation::kBasic);
}

/// Replace one occurrence of `from` in the sorted row [first, last) by
/// `to`, keeping the row sorted. `from` must be present.
void replace_sorted(NodeId* first, NodeId* last, NodeId from, NodeId to) {
  NodeId* p = std::lower_bound(first, last, from);
  RRB_ASSERT(p != last && *p == from, "switch bookkeeping");
  if (to > from) {
    for (; p + 1 != last && p[1] < to; ++p) p[0] = p[1];
  } else {
    for (; p != first && p[-1] > to; --p) p[0] = p[-1];
  }
  *p = to;
}

}  // namespace

Graph configuration_model(NodeId n, NodeId d, Rng& rng) {
  RRB_REQUIRE(n >= 2, "configuration_model: n >= 2");
  RRB_REQUIRE(d >= 1, "configuration_model: d >= 1");
  RRB_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0,
              "configuration_model: n*d must be even");
  const std::vector<NodeId> pairs = paired_stubs(n, d, rng);
  return graph_from_rows(n, d, sorted_rows(n, d, pairs));
}

Graph random_regular_simple(NodeId n, NodeId d, Rng& rng) {
  RRB_REQUIRE(n >= d + 1, "random_regular_simple: need n >= d+1");
  RRB_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0,
              "random_regular_simple: n*d must be even");

  constexpr int kMaxRestarts = 64;
  for (int restart = 0; restart < kMaxRestarts; ++restart) {
    // Draw a configuration-model multigraph, then repair defects by random
    // edge switches. A switch preserves every degree, so node v's
    // neighbour multiset stays in its sorted fixed-width row throughout.
    std::vector<NodeId> pairs = paired_stubs(n, d, rng);
    std::vector<NodeId> rows = sorted_rows(n, d, pairs);
    const std::size_t num_edges = pairs.size() / 2;
    const auto row_begin = [&](NodeId v) {
      return rows.data() + static_cast<std::size_t>(v) * d;
    };
    const auto row_end = [&](NodeId v) { return row_begin(v) + d; };
    // (u, w) is present iff w is in u's row.
    const auto adjacent = [&](NodeId u, NodeId w) {
      return std::binary_search(row_begin(u), row_end(u), w);
    };
    // A loop, or a pair present more than once: its first copy in u's row
    // is followed by another.
    const auto is_defective = [&](std::size_t i) {
      const NodeId u = pairs[2 * i];
      const NodeId w = pairs[2 * i + 1];
      if (u == w) return true;
      const NodeId* p = std::lower_bound(row_begin(u), row_end(u), w);
      return p + 1 != row_end(u) && p[1] == w;
    };

    // The one full scan. Only an edge whose first endpoint's row holds a
    // repeat (a loop's two entries, or a pair's copies) can be defective,
    // so one sequential pass over the rows spares it a row search per
    // edge. A committed switch only creates pairs that were absent
    // (multiplicity 0 -> 1) and only lowers the multiplicity of the pairs
    // it removes, so an edge outside this list never becomes defective:
    // every later rescan is a filter of the list, and yields exactly the
    // ascending index list a full scan would.
    std::vector<std::uint8_t> has_repeat(n);
    for (NodeId v = 0; v < n; ++v)
      has_repeat[v] =
          std::adjacent_find(row_begin(v), row_end(v)) != row_end(v);
    std::vector<std::size_t> defects;
    for (std::size_t i = 0; i < num_edges; ++i)
      if (has_repeat[pairs[2 * i]] && is_defective(i)) defects.push_back(i);

    // Iterate until defect-free. Each pass drops repaired edges from the
    // list and attempts random switches; the expected number of defects is
    // O(d^2), so this terminates almost immediately for all practical
    // parameters.
    const std::uint64_t max_switch_attempts = 200 * (pairs.size() + 64);
    std::uint64_t attempts = 0;
    bool clean = false;
    while (attempts < max_switch_attempts) {
      std::erase_if(defects, [&](std::size_t i) { return !is_defective(i); });
      if (defects.empty()) {
        clean = true;
        break;
      }
      for (const std::size_t i : defects) {
        if (!is_defective(i)) continue;  // fixed by an earlier switch
        bool fixed = false;
        for (int tries = 0; tries < 64 && !fixed; ++tries) {
          ++attempts;
          const std::size_t j =
              static_cast<std::size_t>(rng.uniform_u64(num_edges));
          if (j == i) continue;
          const Edge a{pairs[2 * i], pairs[2 * i + 1]};
          Edge b{pairs[2 * j], pairs[2 * j + 1]};
          // Random orientation of the 2-switch.
          if (rng.bernoulli(0.5)) std::swap(b.u, b.v);
          const Edge na{a.u, b.u};
          const Edge nb{a.v, b.v};
          if (na.u == na.v || nb.u == nb.v) continue;
          if (adjacent(na.u, na.v) || adjacent(nb.u, nb.v)) continue;
          // Would create a parallel pair.
          if ((na.u == nb.u && na.v == nb.v) || (na.u == nb.v && na.v == nb.u))
            continue;
          // Commit the switch: (a.u, a.v) + (b.u, b.v) becomes
          // (a.u, b.u) + (a.v, b.v), one replace in each endpoint's row.
          replace_sorted(row_begin(a.u), row_end(a.u), a.v, b.u);
          replace_sorted(row_begin(a.v), row_end(a.v), a.u, b.v);
          replace_sorted(row_begin(b.u), row_end(b.u), b.v, a.u);
          replace_sorted(row_begin(b.v), row_end(b.v), b.u, a.v);
          pairs[2 * i] = na.u;
          pairs[2 * i + 1] = na.v;
          pairs[2 * j] = nb.u;
          pairs[2 * j + 1] = nb.v;
          fixed = true;
        }
        if (!fixed) break;  // rescan and retry from a fresh defect list
      }
    }
    if (clean) {
      Graph g = graph_from_rows(n, d, std::move(rows));
      RRB_ASSERT(g.is_simple(), "repair left a non-simple graph");
      RRB_ASSERT(g.regular_degree() == d, "repair broke regularity");
      return g;
    }
  }
  throw std::runtime_error(
      "random_regular_simple: switching repair failed; parameters too tight");
}

Graph gnp(NodeId n, double p, Rng& rng) {
  RRB_REQUIRE(p >= 0.0 && p <= 1.0, "gnp: p out of [0,1]");
  GraphBuilder builder(n);
  if (p <= 0.0 || n < 2) return builder.build();
  if (p >= 1.0) return complete(n);

  // Geometric skipping over the n*(n-1)/2 potential edges in row-major
  // order of pairs (u < v).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = 0;
  auto pair_of = [n](std::uint64_t k) {
    // Invert k = u*n - u*(u+1)/2 + (v - u - 1). Linear scan per row is too
    // slow; use the closed form via quadratic formula.
    const double nn = static_cast<double>(n);
    double uf = std::floor(
        ((2.0 * nn - 1.0) -
         std::sqrt((2.0 * nn - 1.0) * (2.0 * nn - 1.0) - 8.0 * static_cast<double>(k))) /
        2.0);
    auto u = static_cast<std::uint64_t>(uf);
    // Guard against floating point edge error.
    auto row_start = [n](std::uint64_t r) {
      return r * n - r * (r + 1) / 2;
    };
    while (u > 0 && row_start(u) > k) --u;
    while (row_start(u + 1) <= k) ++u;
    const std::uint64_t v = u + 1 + (k - row_start(u));
    return Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)};
  };
  while (true) {
    // Geometric(p) skip: floor(log(1-r)/log(1-p)) potential edges are absent
    // before the next present one.
    const double r = rng.uniform_double();
    const double s = std::floor(std::log(1.0 - r) / log1mp);
    idx += static_cast<std::uint64_t>(s);
    if (idx >= total) break;
    const Edge e = pair_of(idx);
    builder.add_edge(e.u, e.v);
    ++idx;
  }
  return builder.build();
}

Graph complete(NodeId n) {
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) builder.add_edge(u, v);
  return builder.build();
}

Graph complete_bipartite(NodeId a, NodeId b) {
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(a) + b, "complete_bipartite"));
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) builder.add_edge(u, a + v);
  return builder.build();
}

Graph cycle(NodeId n) {
  RRB_REQUIRE(n >= 3, "cycle: n >= 3");
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) builder.add_edge(v, (v + 1) % n);
  return builder.build();
}

Graph path(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

Graph star(NodeId n) {
  RRB_REQUIRE(n >= 1, "star: n >= 1");
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.add_edge(0, v);
  return builder.build();
}

Graph hypercube(int dim) {
  RRB_REQUIRE(dim >= 0 && dim < 31, "hypercube: 0 <= dim < 31");
  const NodeId n = static_cast<NodeId>(1) << dim;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v)
    for (int b = 0; b < dim; ++b) {
      const NodeId w = v ^ (static_cast<NodeId>(1) << b);
      if (v < w) builder.add_edge(v, w);
    }
  return builder.build();
}

Graph torus(NodeId rows, NodeId cols) {
  RRB_REQUIRE(rows >= 3 && cols >= 3, "torus: dims >= 3");
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(rows) * cols, "torus"));
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r)
    for (NodeId c = 0; c < cols; ++c) {
      builder.add_edge(id(r, c), id(r, (c + 1) % cols));
      builder.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  return builder.build();
}

Graph cartesian_product(const Graph& g, const Graph& h) {
  const NodeId gn = g.num_nodes();
  const NodeId hn = h.num_nodes();
  RRB_REQUIRE(gn > 0 && hn > 0, "cartesian_product: empty factor");
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(gn) * hn, "cartesian_product"));
  auto id = [hn](NodeId u, NodeId i) { return u * hn + i; };
  for (const Edge& e : g.edge_list())
    for (NodeId i = 0; i < hn; ++i) builder.add_edge(id(e.u, i), id(e.v, i));
  for (const Edge& e : h.edge_list())
    for (NodeId u = 0; u < gn; ++u) builder.add_edge(id(u, e.u), id(u, e.v));
  return builder.build();
}

Graph disjoint_union(const Graph& g, const Graph& h) {
  const NodeId gn = g.num_nodes();
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(gn) + h.num_nodes(), "disjoint_union"));
  for (const Edge& e : g.edge_list()) builder.add_edge(e.u, e.v);
  for (const Edge& e : h.edge_list()) builder.add_edge(gn + e.u, gn + e.v);
  return builder.build();
}

Graph preferential_attachment(NodeId n, NodeId m, Rng& rng) {
  RRB_REQUIRE(m >= 1, "preferential_attachment: m >= 1");
  RRB_REQUIRE(n >= m + 1, "preferential_attachment: n >= m+1");

  // Flat endpoint list: every edge contributes both endpoints, so sampling
  // a uniform entry is degree-proportional sampling.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (static_cast<std::size_t>(n) * m));
  GraphBuilder builder(n);

  // Seed clique on m+1 nodes.
  for (NodeId u = 0; u <= m; ++u)
    for (NodeId v = u + 1; v <= m; ++v) {
      builder.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }

  std::vector<NodeId> targets;
  targets.reserve(m);
  for (NodeId v = m + 1; v < n; ++v) {
    // Choose m distinct degree-proportional targets by rejection.
    targets.clear();
    int guard = 0;
    while (targets.size() < m && guard < 200) {
      ++guard;
      const NodeId pick = endpoints[static_cast<std::size_t>(
          rng.uniform_u64(endpoints.size()))];
      bool duplicate = false;
      for (const NodeId t : targets)
        if (t == pick) duplicate = true;
      if (!duplicate) targets.push_back(pick);
    }
    // Pathological duplication (possible only for tiny graphs): fall back
    // to uniform distinct targets.
    while (targets.size() < m) {
      const auto pick = static_cast<NodeId>(rng.uniform_u64(v));
      bool duplicate = false;
      for (const NodeId t : targets)
        if (t == pick) duplicate = true;
      if (!duplicate) targets.push_back(pick);
    }
    for (const NodeId t : targets) {
      builder.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return builder.build();
}

}  // namespace rrb
