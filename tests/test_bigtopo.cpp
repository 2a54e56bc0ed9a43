#include "rrb/bigtopo/bigtopo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/rng/rng.hpp"

namespace rrb::bigtopo {
namespace {

/// FNV-1a over the full CSR (node count, then each node's degree and
/// sorted neighbour list). Two graphs with equal digests here are
/// byte-identical for every consumer in the library — Graph exposes no
/// state beyond what this walks.
std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    mix(g.degree(v));
    for (const NodeId w : g.neighbors(v)) mix(w);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Canonical chunk grid
// ---------------------------------------------------------------------------

TEST(BigtopoChunks, CanonicalGridCoversNodeRange) {
  EXPECT_EQ(num_canonical_chunks(2), 1U);
  EXPECT_EQ(num_canonical_chunks(kChunkNodes), 1U);
  EXPECT_EQ(num_canonical_chunks(kChunkNodes + 1), 2U);
  EXPECT_EQ(num_canonical_chunks(3 * kChunkNodes), 3U);

  const NodeId n = 2 * kChunkNodes + 123;
  ASSERT_EQ(num_canonical_chunks(n), 3U);
  NodeId covered = 0;
  for (NodeId c = 0; c < 3; ++c) {
    const ChunkRange range = canonical_chunk_range(n, c);
    EXPECT_EQ(range.begin, covered);
    EXPECT_LE(range.end, n);
    covered = range.end;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(canonical_chunk_range(n, 2).end - canonical_chunk_range(n, 2).begin,
            123U);
  EXPECT_THROW((void)canonical_chunk_range(n, 3), std::logic_error);
}

// Chunk-seed goldens, test_rng.cpp style: the chunk contract is
// chunk_seed == derive_seed, and the literal values are pinned so a silent
// change to derive_seed (which would invalidate every chunked graph) fails
// loudly here rather than only in downstream digests.
TEST(BigtopoChunks, ChunkSeedGoldenValues) {
  EXPECT_EQ(chunk_seed(0x5eed, 0), 0xbfd2167601e91816ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 1), 0x61e8b5651d7d8438ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 2), 0x634daa10c43a7c34ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 17), 0x63ed03ebb89139c1ULL);
  EXPECT_EQ(chunk_seed(0, 0), 0x68bcc37221b020bbULL);

  for (std::uint64_t c : {0ULL, 1ULL, 5ULL, 1000ULL})
    EXPECT_EQ(chunk_seed(0xabcdef, c), derive_seed(0xabcdef, c));
}

// ---------------------------------------------------------------------------
// StubPermutation
// ---------------------------------------------------------------------------

TEST(BigtopoPermutation, BijectiveOnAssortedDomains) {
  for (const std::uint64_t domain :
       {2ULL, 3ULL, 10ULL, 97ULL, 1024ULL, 1000ULL, 16389ULL}) {
    for (const std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL}) {
      const StubPermutation perm(seed, domain);
      EXPECT_EQ(perm.domain(), domain);
      std::set<std::uint64_t> images;
      for (std::uint64_t x = 0; x < domain; ++x) {
        const std::uint64_t y = perm.forward(x);
        ASSERT_LT(y, domain);
        images.insert(y);
        ASSERT_EQ(perm.inverse(y), x);
      }
      EXPECT_EQ(images.size(), domain);  // injective + total = bijective
    }
  }
}

TEST(BigtopoPermutation, SeedChangesThePermutation) {
  const StubPermutation a(1, 4096);
  const StubPermutation b(2, 4096);
  int differing = 0;
  for (std::uint64_t x = 0; x < 4096; ++x)
    if (a.forward(x) != b.forward(x)) ++differing;
  EXPECT_GT(differing, 4096 / 2);
}

TEST(BigtopoPermutation, RejectsOutOfDomainAndTrivialDomains) {
  EXPECT_THROW(StubPermutation(7, 0), std::logic_error);
  EXPECT_THROW(StubPermutation(7, 1), std::logic_error);
  const StubPermutation perm(7, 100);
  EXPECT_THROW((void)perm.forward(100), std::logic_error);
  EXPECT_THROW((void)perm.inverse(100), std::logic_error);
}

// ---------------------------------------------------------------------------
// chunked_configuration_model
// ---------------------------------------------------------------------------

TEST(BigtopoConfigModel, ExactRegularMultigraphSemantics) {
  const Graph g = chunked_configuration_model({.n = 2048, .d = 4, .seed = 9});
  EXPECT_EQ(g.num_nodes(), 2048U);
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 4U);
  EXPECT_EQ(g.num_edges(), 2048U * 4 / 2);
}

TEST(BigtopoConfigModel, ByteIdenticalForEveryChunkCount) {
  // Spans three canonical chunks so batching genuinely regroups work.
  ChunkedParams params{.n = 2 * kChunkNodes + 778, .d = 4, .seed = 0xb16};
  const std::uint64_t reference = graph_digest(chunked_configuration_model(params));
  for (const int chunks : {1, 4, 17}) {
    params.chunks = chunks;
    EXPECT_EQ(graph_digest(chunked_configuration_model(params)), reference)
        << "chunks=" << chunks;
  }
}

TEST(BigtopoConfigModel, ByteIdenticalForEveryChunkOrder) {
  const ChunkedParams params{.n = 3 * kChunkNodes, .d = 3, .seed = 0xb16};
  const std::uint64_t reference =
      graph_digest(chunked_configuration_model(params));

  std::vector<NodeId> order(num_canonical_chunks(params.n));
  std::iota(order.begin(), order.end(), NodeId{0});
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(graph_digest(chunked_configuration_model(params, order)),
            reference);

  // A deterministic shuffle (Rng, not std::shuffle — platform-pinned).
  Rng rng(42);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  EXPECT_EQ(graph_digest(chunked_configuration_model(params, order)),
            reference);
}

// The compact slot-addressed build must equal the reference edge-list path:
// pair the stubs with the same PRP, round-trip through from_edges, and
// compare bytes. This chains the chunked generator to the library's
// canonical CSR construction.
TEST(BigtopoConfigModel, MatchesEdgeListPairingReference) {
  const ChunkedParams params{.n = 64, .d = 3, .seed = 0x5eed};
  const std::uint64_t stubs =
      static_cast<std::uint64_t>(params.n) * params.d;
  const StubPermutation perm(
      derive_seed(params.seed, hash_string("bigtopo/pairing")), stubs);

  std::vector<Edge> edges;
  for (std::uint64_t s = 0; s < stubs; ++s) {
    const std::uint64_t partner = perm.inverse(perm.forward(s) ^ 1);
    if (s < partner)
      edges.push_back({static_cast<NodeId>(s / params.d),
                       static_cast<NodeId>(partner / params.d)});
  }
  ASSERT_EQ(edges.size(), stubs / 2);

  const Graph reference = Graph::from_edges(params.n, edges);
  const Graph chunked = chunked_configuration_model(params);
  EXPECT_EQ(graph_digest(chunked), graph_digest(reference));
  EXPECT_EQ(chunked.num_self_loops(), reference.num_self_loops());
  EXPECT_EQ(chunked.num_parallel_extra(), reference.num_parallel_extra());
}

// The fill walks permuted positions and writes each pair from both ends;
// the definition is per slot: adjacency[s] = inverse(forward(s) ^ 1) / d.
// Odd d and a partial last chunk put pairs next to every chunk boundary,
// and every batching and a reversed order must land each row on the
// definition's sorted multiset.
TEST(BigtopoConfigModel, MatchesPerSlotDefinitionAcrossChunks) {
  ChunkedParams params{.n = 2 * kChunkNodes + 778, .d = 3, .seed = 0xb18};
  const std::uint64_t stubs =
      static_cast<std::uint64_t>(params.n) * params.d;
  const StubPermutation perm(
      derive_seed(params.seed, hash_string("bigtopo/pairing")), stubs);
  std::vector<NodeId> expected(stubs);
  for (std::uint64_t s = 0; s < stubs; ++s)
    expected[s] =
        static_cast<NodeId>(perm.inverse(perm.forward(s) ^ 1) / params.d);
  for (NodeId v = 0; v < params.n; ++v) {
    const auto row = expected.begin() +
                     static_cast<std::ptrdiff_t>(std::uint64_t{v} * params.d);
    std::sort(row, row + params.d);
  }

  const auto check = [&](const Graph& g, const std::string& label) {
    ASSERT_EQ(g.num_nodes(), params.n) << label;
    for (NodeId v = 0; v < params.n; ++v) {
      const auto row = g.neighbors(v);
      const auto want = expected.begin() +
                        static_cast<std::ptrdiff_t>(std::uint64_t{v} * params.d);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), want, want + params.d))
          << label << ": row " << v;
    }
  };
  for (const int chunks : {0, 1, 17}) {
    params.chunks = chunks;
    check(chunked_configuration_model(params),
          "chunks=" + std::to_string(chunks));
  }
  params.chunks = 0;
  std::vector<NodeId> order(num_canonical_chunks(params.n));
  std::iota(order.begin(), order.end(), NodeId{0});
  std::reverse(order.begin(), order.end());
  check(chunked_configuration_model(params, order), "reversed order");
}

// Golden digest: the full CSR of a fixed (n, d, seed) is pinned. Any change
// to the PRP, the chunk grid, or the pairing rule shows up here.
TEST(BigtopoConfigModel, GoldenDigest) {
  const Graph g = chunked_configuration_model({.n = 4096, .d = 6, .seed = 0xb16});
  EXPECT_EQ(graph_digest(g), 0x98a5bd1ec21e18c5ULL);
}

TEST(BigtopoConfigModel, RejectsInvalidParameters) {
  EXPECT_THROW((void)chunked_configuration_model({.n = 0, .d = 2, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_configuration_model({.n = 1, .d = 2, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_configuration_model({.n = 16, .d = 0, .seed = 1}),
               std::logic_error);
  // n*d odd: no perfect matching on the stubs.
  EXPECT_THROW((void)chunked_configuration_model({.n = 15, .d = 3, .seed = 1}),
               std::logic_error);
  // Bad execution orders.
  const ChunkedParams params{.n = 3 * kChunkNodes, .d = 2, .seed = 1};
  const std::vector<NodeId> short_order = {0, 1};
  EXPECT_THROW((void)chunked_configuration_model(params, short_order),
               std::logic_error);
  const std::vector<NodeId> dup_order = {0, 1, 1};
  EXPECT_THROW((void)chunked_configuration_model(params, dup_order),
               std::logic_error);
  const std::vector<NodeId> oob_order = {0, 1, 3};
  EXPECT_THROW((void)chunked_configuration_model(params, oob_order),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// chunked_random_out
// ---------------------------------------------------------------------------

TEST(BigtopoRandomOut, DegreeAndLoopInvariants) {
  const Graph g = chunked_random_out({.n = 2048, .d = 3, .seed = 11});
  EXPECT_EQ(g.num_nodes(), 2048U);
  EXPECT_EQ(g.num_self_loops(), 0U);   // partner draw excludes self
  EXPECT_GE(g.min_degree(), 3U);       // d out-links + in-degree
  EXPECT_EQ(g.num_edges(), 2048U * 3); // one edge per out-link
}

TEST(BigtopoRandomOut, ByteIdenticalForEveryChunkCountAndOrder) {
  ChunkedParams params{.n = 2 * kChunkNodes + 123, .d = 3, .seed = 0xb17};
  const std::uint64_t reference = graph_digest(chunked_random_out(params));
  for (const int chunks : {1, 4, 17}) {
    params.chunks = chunks;
    EXPECT_EQ(graph_digest(chunked_random_out(params)), reference)
        << "chunks=" << chunks;
  }
  params.chunks = 0;
  std::vector<NodeId> order(num_canonical_chunks(params.n));
  std::iota(order.begin(), order.end(), NodeId{0});
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(graph_digest(chunked_random_out(params, order)), reference);
}

// Chain the two-pass in-place build to the reference edge-list path: replay
// the same per-chunk Rng streams into from_edges and compare bytes.
TEST(BigtopoRandomOut, MatchesChunkStreamReference) {
  const ChunkedParams params{.n = kChunkNodes + 100, .d = 2, .seed = 0x77};
  std::vector<Edge> edges;
  for (NodeId c = 0; c < num_canonical_chunks(params.n); ++c) {
    const ChunkRange range = canonical_chunk_range(params.n, c);
    Rng rng(chunk_seed(params.seed, c));
    for (NodeId v = range.begin; v < range.end; ++v)
      for (NodeId j = 0; j < params.d; ++j) {
        auto t = static_cast<NodeId>(rng.uniform_u64(params.n - 1));
        if (t >= v) ++t;
        edges.push_back({v, t});
      }
  }
  const Graph reference = Graph::from_edges(params.n, edges);
  EXPECT_EQ(graph_digest(chunked_random_out(params)),
            graph_digest(reference));
}

TEST(BigtopoRandomOut, GoldenDigest) {
  const Graph g = chunked_random_out({.n = 4096, .d = 5, .seed = 0xb17});
  EXPECT_EQ(graph_digest(g), 0x6d50e6b9b2497932ULL);
}

TEST(BigtopoRandomOut, RejectsInvalidParameters) {
  EXPECT_THROW((void)chunked_random_out({.n = 16, .d = 16, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_random_out({.n = 0, .d = 1, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_random_out({.n = 16, .d = 0, .seed = 1}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Memory estimates and budget enforcement
// ---------------------------------------------------------------------------

TEST(BigtopoBudget, EstimatesAreTheCsrFootprint) {
  // offsets: 8*(n+1) bytes; adjacency: 4 bytes per entry.
  EXPECT_EQ(estimate_configuration_model_bytes(1000, 4),
            8 * 1001ULL + 4 * 4000ULL);
  EXPECT_EQ(estimate_random_out_bytes(1000, 4), 8 * 1001ULL + 4 * 8000ULL);
}

TEST(BigtopoBudget, GuardsNodeIdRangeAtLargeN) {
  // 2^31 nodes is the supported ceiling (NodeId addressing); one past it
  // must be refused before any allocation happens.
  const auto too_many = static_cast<NodeId>((std::uint64_t{1} << 31) + 1);
  EXPECT_THROW((void)estimate_configuration_model_bytes(too_many, 3),
               std::logic_error);
  EXPECT_THROW((void)estimate_random_out_bytes(too_many, 3),
               std::logic_error);
  EXPECT_NO_THROW(
      (void)estimate_configuration_model_bytes(1 << 20, 8));
}

TEST(BigtopoBudget, RefusesGenerationOverBudget) {
  ChunkedParams params{.n = 4096, .d = 8, .seed = 3};
  params.memory_budget_bytes = 1;  // nothing fits in one byte
  EXPECT_THROW((void)chunked_configuration_model(params), std::logic_error);
  EXPECT_THROW((void)chunked_random_out(params), std::logic_error);

  params.memory_budget_bytes =
      estimate_random_out_bytes(params.n, params.d);
  EXPECT_NO_THROW((void)chunked_random_out(params));
  params.memory_budget_bytes = 0;  // 0 disables the check
  EXPECT_NO_THROW((void)chunked_configuration_model(params));
}

// ---------------------------------------------------------------------------
// End-to-end: chunked graphs are plain Graphs for every broadcast scheme
// ---------------------------------------------------------------------------

TEST(BigtopoBroadcast, AllSchemesCompleteOnChunkedGraph) {
  const Graph g =
      chunked_configuration_model({.n = 1024, .d = 8, .seed = 0xabc});
  for (const BroadcastScheme scheme : kAllSchemes) {
    BroadcastOptions options;
    options.scheme = scheme;
    options.seed = 0x5eed;
    const RunResult result = broadcast(g, 0, options);
    EXPECT_EQ(result.final_informed, g.num_nodes())
        << scheme_name(scheme);
    EXPECT_GT(result.rounds, 0U) << scheme_name(scheme);
  }
}

// ---------------------------------------------------------------------------
// Million-node invariants (slow label)
// ---------------------------------------------------------------------------

TEST(BigtopoSlow, MillionNodeConfigurationModelInvariants) {
  const NodeId n = 1'000'000;
  const Graph g = chunked_configuration_model({.n = n, .d = 8, .seed = 0xe18});
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 8U);
  EXPECT_EQ(g.num_edges(), static_cast<Count>(n) * 8 / 2);
  // The configuration model keeps self-loops and parallel edges, but at
  // n = 10^6 they are O(d^2) in expectation — a vanishing fraction.
  EXPECT_LT(g.num_self_loops(), 1000U);
  EXPECT_LT(g.num_parallel_extra(), 1000U);
}

TEST(BigtopoSlow, MillionNodeRandomOutInvariants) {
  const NodeId n = 1'000'000;
  const Graph g = chunked_random_out({.n = n, .d = 3, .seed = 0xe18});
  EXPECT_EQ(g.num_self_loops(), 0U);
  EXPECT_GE(g.min_degree(), 3U);
  EXPECT_EQ(g.num_edges(), static_cast<Count>(n) * 3);
}

}  // namespace
}  // namespace rrb::bigtopo
