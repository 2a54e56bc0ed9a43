#include "rrb/graph/graph.hpp"

#include <algorithm>
#include <limits>

#include "rrb/common/runner_config.hpp"

namespace rrb {

namespace {

struct CsrCounts {
  Count edges = 0;
  Count self_loops = 0;
  Count parallel_extra = 0;
};

/// One row's kBasic verdict and multigraph tallies.
struct RowScan {
  bool clean = true;      ///< every entry < n and the row non-decreasing
  NodeId repeats = 0;     ///< entries equal to their predecessor and > v
  NodeId loop_stubs = 0;  ///< entries equal to v
};

/// Scan row v in one pass with no data-dependent branch: range and order
/// fold into one flag, and the two tallies are sums of comparisons. A
/// row's length fits NodeId (checked before the scan), so do the tallies.
[[nodiscard]] RowScan scan_row(const NodeId* row, std::size_t len, NodeId v,
                               NodeId n) {
  if (len == 0) return {};
  unsigned bad = row[0] >= n;
  NodeId repeats = 0;
  NodeId loop_stubs = row[0] == v;
  for (std::size_t i = 1; i < len; ++i) {
    const NodeId prev = row[i - 1];
    const NodeId cur = row[i];
    bad |= static_cast<unsigned>(cur >= n) | static_cast<unsigned>(cur < prev);
    repeats += static_cast<NodeId>(cur == prev) & static_cast<NodeId>(cur > v);
    loop_stubs += cur == v;
  }
  return {bad == 0, repeats, loop_stubs};
}

/// The exact kBasic entry checks, entry by entry, for a row scan_row
/// rejected: the first failing entry names the error, range before order.
void require_row_entries(const NodeId* row, std::size_t len, NodeId n) {
  for (std::size_t i = 0; i < len; ++i) {
    RRB_REQUIRE(row[i] < n, "from_csr: adjacency entry out of range");
    RRB_REQUIRE(i == 0 || row[i - 1] <= row[i],
                "from_csr: adjacency lists must be sorted per node");
  }
}

/// Adjacency entries per scan task: a CSR of at most this many entries is
/// scanned in one inline pass, a larger one in node ranges of about this
/// many entries each.
constexpr std::size_t kScanTaskEntries = std::size_t{1} << 20;

/// The per-node half of CsrValidation::kBasic fused with the multigraph
/// summary, one pass per row, over nodes [begin, end). Per node: offsets
/// non-decreasing (and inside the adjacency array), degree within NodeId
/// range, entries in range and sorted. Counts: in a sorted row a run of k
/// equal entries w contributes k-1 parallel extras when w > v (its
/// repeats), and the k entries equal to v make k/2 self-loops (k/2 - 1
/// extras).
[[nodiscard]] CsrCounts scan_rows(const std::vector<Count>& offsets,
                                  const std::vector<NodeId>& adjacency,
                                  NodeId begin, NodeId end) {
  CsrCounts counts;
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  for (NodeId v = begin; v < end; ++v) {
    RRB_REQUIRE(offsets[v] <= offsets[v + 1] &&
                    offsets[v + 1] <= adjacency.size(),
                "from_csr: offsets must be non-decreasing");
    RRB_REQUIRE(offsets[v + 1] - offsets[v] <=
                    std::numeric_limits<NodeId>::max(),
                "from_csr: node degree exceeds NodeId range");
    const NodeId* row = adjacency.data() + offsets[v];
    const std::size_t len = offsets[v + 1] - offsets[v];
    const RowScan scan = scan_row(row, len, v, n);
    if (!scan.clean) require_row_entries(row, len, n);
    const NodeId loops = scan.loop_stubs / 2;
    counts.self_loops += loops;
    counts.parallel_extra +=
        scan.repeats + loops - (scan.loop_stubs >= 2 ? 1 : 0);
  }
  return counts;
}

/// scan_rows over every node, plus num_edges = entries/2. Shared by
/// from_edges and from_csr so both construction paths agree byte-for-byte
/// on the derived counts. Past kScanTaskEntries the node range splits into
/// equal parts scanned on the shared pool and summed in range order. Each
/// part reports its first bad row, and parallel_for rethrows the lowest
/// throwing part, so the error still names the first bad row of all.
[[nodiscard]] CsrCounts scan_csr(const std::vector<Count>& offsets,
                                 const std::vector<NodeId>& adjacency) {
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  const std::size_t tasks = std::min<std::size_t>(
      std::max<std::size_t>(n, 1),
      (adjacency.size() + kScanTaskEntries - 1) / kScanTaskEntries);
  CsrCounts counts;
  if (tasks <= 1) {
    counts = scan_rows(offsets, adjacency, 0, n);
  } else {
    const auto bound = [&](std::size_t t) {
      return static_cast<NodeId>(static_cast<std::uint64_t>(n) * t / tasks);
    };
    std::vector<CsrCounts> parts(tasks);
    parallel_for(static_cast<int>(tasks), resolve_threads(RunnerConfig{}),
                 [&](int t) {
                   const auto part = static_cast<std::size_t>(t);
                   parts[part] = scan_rows(offsets, adjacency, bound(part),
                                           bound(part + 1));
                 });
    for (const CsrCounts& part : parts) {
      counts.self_loops += part.self_loops;
      counts.parallel_extra += part.parallel_extra;
    }
  }
  counts.edges = adjacency.size() / 2;
  return counts;
}

}  // namespace

Graph::Graph(NodeId n) : offsets_(static_cast<std::size_t>(n) + 1, 0) {}

Graph Graph::from_edges(NodeId n, std::span<const Edge> edges) {
  Graph g(n);

  // Count stub degrees: each endpoint once, self-loops twice. All degree
  // and offset arithmetic runs in 64-bit Count — 2 * edges.size() stubs
  // cannot overflow, but a single node's stub count must still fit the
  // NodeId returned by degree().
  std::vector<Count> degree(n, 0);
  for (const Edge& e : edges) {
    RRB_REQUIRE(e.u < n && e.v < n, "from_edges: endpoint out of range");
    ++degree[e.u];
    ++degree[e.v];
  }
  for (NodeId v = 0; v < n; ++v)
    RRB_REQUIRE(degree[v] <= std::numeric_limits<NodeId>::max(),
                "from_edges: node degree exceeds NodeId range");

  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  g.adjacency_.resize(g.offsets_[n]);

  std::vector<Count> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;  // self-loop: second entry at u
  }

  for (NodeId v = 0; v < n; ++v) {
    auto* first = g.adjacency_.data() + g.offsets_[v];
    auto* last = g.adjacency_.data() + g.offsets_[v + 1];
    std::sort(first, last);
  }

  const CsrCounts counts = scan_csr(g.offsets_, g.adjacency_);
  g.num_edges_ = counts.edges;
  g.num_self_loops_ = counts.self_loops;
  g.num_parallel_ = counts.parallel_extra;
  return g;
}

Graph Graph::from_csr(std::vector<Count> offsets,
                      std::vector<NodeId> adjacency,
                      CsrValidation validation) {
  RRB_REQUIRE(!offsets.empty(), "from_csr: offsets must have size n+1");
  RRB_REQUIRE(offsets.front() == 0, "from_csr: offsets[0] must be 0");
  RRB_REQUIRE(offsets.back() == adjacency.size(),
              "from_csr: offsets[n] must equal adjacency size");
  RRB_REQUIRE(adjacency.size() % 2 == 0,
              "from_csr: total stub count must be even");
  const CsrCounts counts = scan_csr(offsets, adjacency);

  const auto n = static_cast<NodeId>(offsets.size() - 1);
  if (validation == CsrValidation::kFull) {
    // Undirected symmetry: every (v,w) run must be mirrored with equal
    // multiplicity at w, and self-loop entries must pair up.
    for (NodeId v = 0; v < n; ++v) {
      std::size_t i = offsets[v];
      const std::size_t end = offsets[v + 1];
      while (i < end) {
        std::size_t j = i;
        while (j < end && adjacency[j] == adjacency[i]) ++j;
        const NodeId w = adjacency[i];
        const std::size_t run = j - i;
        if (w == v) {
          RRB_REQUIRE(run % 2 == 0,
                      "from_csr: self-loop entries must come in pairs");
        } else {
          const auto* wb = adjacency.data() + offsets[w];
          const auto* we = adjacency.data() + offsets[w + 1];
          const auto [lo, hi] = std::equal_range(wb, we, v);
          RRB_REQUIRE(static_cast<std::size_t>(hi - lo) == run,
                      "from_csr: asymmetric edge multiplicity");
        }
        i = j;
      }
    }
  }

  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.num_edges_ = counts.edges;
  g.num_self_loops_ = counts.self_loops;
  g.num_parallel_ = counts.parallel_extra;
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

NodeId Graph::edge_multiplicity(NodeId u, NodeId v) const {
  const auto adj = neighbors(u);
  const auto [first, last] = std::equal_range(adj.begin(), adj.end(), v);
  const auto entries = static_cast<NodeId>(last - first);
  return u == v ? entries / 2 : entries;
}

std::optional<NodeId> Graph::regular_degree() const {
  const NodeId n = num_nodes();
  if (n == 0) return std::nullopt;
  const NodeId d = degree(0);
  for (NodeId v = 1; v < n; ++v)
    if (degree(v) != d) return std::nullopt;
  return d;
}

NodeId Graph::min_degree() const {
  const NodeId n = num_nodes();
  RRB_REQUIRE(n > 0, "min_degree of empty graph");
  NodeId best = degree(0);
  for (NodeId v = 1; v < n; ++v) best = std::min(best, degree(v));
  return best;
}

NodeId Graph::max_degree() const {
  const NodeId n = num_nodes();
  RRB_REQUIRE(n > 0, "max_degree of empty graph");
  NodeId best = degree(0);
  for (NodeId v = 1; v < n; ++v) best = std::max(best, degree(v));
  return best;
}

std::vector<Edge> Graph::edge_list() const {
  // Nodes ascend and each sorted list is walked from its self-loop run
  // (w == v) to the w > v runs, so the output is already in lexicographic
  // (u, v) order.
  std::vector<Edge> out;
  out.reserve(num_edges_);
  const NodeId n = num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const auto adj = neighbors(v);
    std::size_t i = 0;
    while (i < adj.size()) {
      std::size_t j = i;
      while (j < adj.size() && adj[j] == adj[i]) ++j;
      const NodeId w = adj[i];
      const std::size_t run = j - i;
      if (w > v) {
        for (std::size_t r = 0; r < run; ++r) out.push_back(Edge{v, w});
      } else if (w == v) {
        for (std::size_t r = 0; r < run / 2; ++r) out.push_back(Edge{v, v});
      }
      i = j;
    }
  }
  return out;
}

}  // namespace rrb
