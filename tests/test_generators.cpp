#include "rrb/graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/graph/algorithms.hpp"

namespace rrb {
namespace {

TEST(ConfigurationModel, ProducesRegularMultigraph) {
  Rng rng(1);
  const Graph g = configuration_model(100, 6, rng);
  EXPECT_EQ(g.num_nodes(), 100U);
  EXPECT_EQ(g.num_edges(), 300U);
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{6});
}

TEST(ConfigurationModel, OddStubCountRejected) {
  Rng rng(2);
  EXPECT_THROW((void)configuration_model(3, 3, rng), std::logic_error);
}

TEST(ConfigurationModel, HandshakeAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Graph g = configuration_model(64, 4, rng);
    Count degree_sum = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
    EXPECT_EQ(degree_sum, 2 * g.num_edges());
  }
}

TEST(ConfigurationModel, TypicallyConnectedForDegreeAtLeastThree) {
  // Random d-regular graphs with d >= 3 are connected w.h.p. (Bollobás);
  // at n = 200, 20/20 seeds should produce connected multigraphs.
  int connected = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const Graph g = configuration_model(200, 4, rng);
    if (is_connected(g)) ++connected;
  }
  EXPECT_GE(connected, 19);
}

TEST(ConfigurationModel, LoopAndParallelRatesAreSmall) {
  // Expected self-loops ~ (d-1)/2, parallel pairs ~ (d^2-1)/4, both O(1).
  Rng rng(7);
  Count loops = 0;
  Count parallel = 0;
  constexpr int kReps = 50;
  for (int i = 0; i < kReps; ++i) {
    const Graph g = configuration_model(500, 4, rng);
    loops += g.num_self_loops();
    parallel += g.num_parallel_extra();
  }
  EXPECT_LT(static_cast<double>(loops) / kReps, 8.0);
  EXPECT_LT(static_cast<double>(parallel) / kReps, 12.0);
  EXPECT_GT(loops + parallel, 0U);  // the model does produce defects
}

TEST(RandomRegularSimple, IsSimpleAndRegular) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Graph g = random_regular_simple(128, 5, rng);
    EXPECT_TRUE(g.is_simple());
    EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{5});
  }
}

TEST(RandomRegularSimple, WorksAtTightParameters) {
  Rng rng(3);
  const Graph g = random_regular_simple(8, 7, rng);  // K8 is forced
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{7});
  EXPECT_EQ(g.num_edges(), 28U);
}

TEST(RandomRegularSimple, DistinctSeedsGiveDistinctGraphs) {
  Rng r1(10);
  Rng r2(11);
  const Graph a = random_regular_simple(64, 4, r1);
  const Graph b = random_regular_simple(64, 4, r2);
  EXPECT_NE(a.edge_list(), b.edge_list());
}

TEST(Gnp, EdgeCountConcentratesAroundMean) {
  Rng rng(4);
  const NodeId n = 300;
  const double p = 0.05;
  const double expected = p * n * (n - 1) / 2.0;
  double total = 0.0;
  constexpr int kReps = 20;
  for (int i = 0; i < kReps; ++i)
    total += static_cast<double>(gnp(n, p, rng).num_edges());
  const double mean = total / kReps;
  EXPECT_NEAR(mean, expected, 0.1 * expected);
}

TEST(Gnp, ExtremeProbabilities) {
  Rng rng(5);
  EXPECT_EQ(gnp(50, 0.0, rng).num_edges(), 0U);
  const Graph full = gnp(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45U);
  EXPECT_TRUE(full.is_simple());
}

TEST(Gnp, ProducesSimpleGraphs) {
  Rng rng(6);
  const Graph g = gnp(200, 0.1, rng);
  EXPECT_TRUE(g.is_simple());
}

TEST(Complete, StructureIsExact) {
  const Graph g = complete(6);
  EXPECT_EQ(g.num_edges(), 15U);
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{5});
  EXPECT_TRUE(g.is_simple());
  for (NodeId u = 0; u < 6; ++u)
    for (NodeId v = u + 1; v < 6; ++v) EXPECT_TRUE(g.has_edge(u, v));
}

TEST(CompleteBipartite, DegreesAndEdgeCount) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_nodes(), 7U);
  EXPECT_EQ(g.num_edges(), 12U);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4U);
  for (NodeId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3U);
  EXPECT_FALSE(g.has_edge(0, 1));  // no intra-side edges
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(Cycle, TwoRegularAndConnected) {
  const Graph g = cycle(9);
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{2});
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 9U);
  EXPECT_THROW((void)cycle(2), std::logic_error);
}

TEST(Path, EndpointsHaveDegreeOne) {
  const Graph g = path(5);
  EXPECT_EQ(g.degree(0), 1U);
  EXPECT_EQ(g.degree(4), 1U);
  EXPECT_EQ(g.degree(2), 2U);
  EXPECT_EQ(g.num_edges(), 4U);
}

TEST(Star, HubAndLeaves) {
  const Graph g = star(7);
  EXPECT_EQ(g.degree(0), 6U);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 1U);
}

TEST(Hypercube, RegularityAndSize) {
  const Graph g = hypercube(5);
  EXPECT_EQ(g.num_nodes(), 32U);
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{5});
  EXPECT_TRUE(is_connected(g));
  // Neighbours differ in exactly one bit.
  for (NodeId v = 0; v < 32; ++v)
    for (const NodeId w : g.neighbors(v)) {
      const NodeId x = v ^ w;
      EXPECT_EQ(x & (x - 1), 0U);
      EXPECT_NE(x, 0U);
    }
}

TEST(Hypercube, DimensionZeroIsSingleNode) {
  const Graph g = hypercube(0);
  EXPECT_EQ(g.num_nodes(), 1U);
  EXPECT_EQ(g.num_edges(), 0U);
}

TEST(Torus, FourRegular) {
  const Graph g = torus(4, 5);
  EXPECT_EQ(g.num_nodes(), 20U);
  EXPECT_EQ(g.regular_degree(), std::optional<NodeId>{4});
  EXPECT_TRUE(is_connected(g));
}

TEST(CartesianProduct, DegreeIsSumOfFactorDegrees) {
  Rng rng(8);
  const Graph g = random_regular_simple(20, 4, rng);
  const Graph k5 = complete(5);
  const Graph prod = cartesian_product(g, k5);
  EXPECT_EQ(prod.num_nodes(), 100U);
  EXPECT_EQ(prod.regular_degree(), std::optional<NodeId>{8});  // 4 + 4
  EXPECT_TRUE(is_connected(prod));
}

TEST(CartesianProduct, EdgeCountMatchesFormula) {
  const Graph c4 = cycle(4);
  const Graph p3 = path(3);
  const Graph prod = cartesian_product(c4, p3);
  // |E| = |E_G|*|V_H| + |E_H|*|V_G| = 4*3 + 2*4 = 20.
  EXPECT_EQ(prod.num_edges(), 20U);
  EXPECT_EQ(prod.num_nodes(), 12U);
}

TEST(CartesianProduct, K5FibresAreCliques) {
  Rng rng(9);
  const Graph g = random_regular_simple(10, 3, rng);
  const Graph prod = cartesian_product(g, complete(5));
  // Within fibre u: nodes u*5..u*5+4 pairwise adjacent.
  for (NodeId u = 0; u < 10; ++u)
    for (NodeId i = 0; i < 5; ++i)
      for (NodeId j = i + 1; j < 5; ++j)
        EXPECT_TRUE(prod.has_edge(u * 5 + i, u * 5 + j));
}

TEST(PreferentialAttachment, EdgeCountMatchesFormula) {
  Rng rng(20);
  const Graph g = preferential_attachment(200, 3, rng);
  EXPECT_EQ(g.num_nodes(), 200U);
  // Seed clique C(4,2) = 6 edges + 196 nodes * 3 edges.
  EXPECT_EQ(g.num_edges(), 6U + 196U * 3U);
}

TEST(PreferentialAttachment, IsConnected) {
  Rng rng(21);
  const Graph g = preferential_attachment(500, 2, rng);
  EXPECT_TRUE(is_connected(g));
}

TEST(PreferentialAttachment, MinDegreeIsM) {
  Rng rng(22);
  const NodeId m = 3;
  const Graph g = preferential_attachment(300, m, rng);
  EXPECT_GE(g.min_degree(), m);
}

TEST(PreferentialAttachment, ProducesHeavyTailedHubs) {
  // The degree distribution is a power law: the maximum degree should far
  // exceed the mean (unlike a random regular graph).
  Rng rng(23);
  const Graph g = preferential_attachment(2000, 2, rng);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GT(static_cast<double>(stats.max), 6.0 * stats.mean);
}

TEST(PreferentialAttachment, EarlyNodesAreRicher) {
  // Cumulative advantage: the average degree of the first 10% of nodes
  // exceeds that of the last 10%.
  Rng rng(24);
  const NodeId n = 2000;
  const Graph g = preferential_attachment(n, 2, rng);
  double early = 0.0;
  double late = 0.0;
  for (NodeId v = 0; v < n / 10; ++v) early += g.degree(v);
  for (NodeId v = n - n / 10; v < n; ++v) late += g.degree(v);
  EXPECT_GT(early, 1.5 * late);
}

TEST(PreferentialAttachment, Validation) {
  Rng rng(25);
  EXPECT_THROW((void)preferential_attachment(3, 3, rng), std::logic_error);
  EXPECT_THROW((void)preferential_attachment(10, 0, rng), std::logic_error);
}

TEST(DisjointUnion, ComponentsAreSeparate) {
  const Graph a = cycle(3);
  const Graph b = cycle(4);
  const Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.num_nodes(), 7U);
  EXPECT_EQ(u.num_edges(), 7U);
  EXPECT_FALSE(is_connected(u));
  const auto comps = connected_components(u);
  EXPECT_EQ(comps.count, 2U);
}

// Composite generators whose node count is a product or sum of inputs must
// refuse anything past the NodeId ceiling (2^31) instead of wrapping the
// 32-bit arithmetic into a silently-wrong small graph. The factors here are
// cheap (empty or tiny graphs); the guard fires before any edge is built.
TEST(GeneratorOverflow, ProductAndSumNodeCountsAreGuarded) {
  const Graph big = Graph::from_edges(NodeId{1} << 16, {});
  EXPECT_THROW((void)cartesian_product(big, big), std::logic_error);
  EXPECT_THROW((void)torus(NodeId{1} << 16, NodeId{1} << 16),
               std::logic_error);
  const auto half = static_cast<NodeId>((std::uint64_t{1} << 30) + 1);
  EXPECT_THROW((void)complete_bipartite(half, half), std::logic_error);
}

// ---------------------------------------------------------------------------
// Golden pins: the full CSR and the generator's RNG position afterwards
// ---------------------------------------------------------------------------

/// FNV-1a over the CSR offsets (n+1 prefix sums of the degrees) and then
/// the concatenated sorted adjacency lists.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  Count offset = 0;
  mix(offset);
  for (NodeId v = 0; v < g.num_nodes(); ++v) mix(offset += g.degree(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const NodeId w : g.neighbors(v)) mix(w);
  return h;
}

/// One pinned draw: generator(n, d) from Rng(seed) yields a CSR with
/// `digest`, and the Rng's next next_u64() afterwards is `next_draw` — so
/// a change to the number or order of draws shows up even when the graph
/// happens to match.
struct GeneratorPin {
  NodeId n;
  NodeId d;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t next_draw;
};

// The grid covers the forced K8 (8, 7), tiny cubic (6, 3), dense (10, 8),
// the near-complete (130, 128), a (2^12, 34) draw that repairs 510 initial
// defects, a matching (2, 1) and the edgeless d = 0. (10, 8) and
// (130, 128) exhaust 64 tries on a defect and rescan — 3 and about 9000
// passes — so the give-up path is pinned too.
constexpr GeneratorPin kRandomRegularSimplePins[] = {
    {8, 7, 3, 0xe4d83b15418ccd87ULL, 0xa2745c54fce8ff79ULL},
    {6, 3, 1, 0x75a5e631415770bfULL, 0x6332dd9209de72a7ULL},
    {10, 8, 2, 0x890d4edd600cf1afULL, 0xd90286cedc7f6996ULL},
    {64, 4, 10, 0xf37316117e25a013ULL, 0x9aa8f9c4a6ea7ea2ULL},
    {1000, 6, 5, 0x8325cbb8ce1e5a23ULL, 0x78a7ee94ba2131c7ULL},
    {130, 128, 7, 0x1e2b5d67513c3977ULL, 0x7d19195cc8277017ULL},
    {4096, 34, 11, 0xb2c4e85979e105d7ULL, 0x2307885142ea2dc6ULL},
    {2, 1, 4, 0x337213d0c5291291ULL, 0xe95a0d7fd8c1832cULL},
    {5, 0, 9, 0xd7e4fcfa299d713dULL, 0x00a94eecf619a060ULL},
};

// Multigraph draws: (1000, 3) has a self-loop, (100, 6) and (4096, 8)
// parallel edges, (130, 128) dozens of loops and thousands of extras.
constexpr GeneratorPin kConfigurationModelPins[] = {
    {2, 1, 1, 0x337213d0c5291291ULL, 0x853b559647364ceaULL},
    {7, 2, 2, 0xe55dc62402ad887fULL, 0xf5f45afc1af068edULL},
    {100, 6, 3, 0xc65d7f0664756381ULL, 0xe0ed41039edc609eULL},
    {1000, 3, 4, 0x4309882abb7a5337ULL, 0x2de696ce825238ceULL},
    {4096, 8, 5, 0xea33922670adc07dULL, 0x3741266fe2bc4f69ULL},
    {130, 128, 6, 0x554e23482c72cdcbULL, 0xeee4b5a666d3c079ULL},
};

/// The generator's CSR handed back through from_csr with full validation
/// (symmetry included) is accepted and reproduces the graph exactly.
void expect_full_csr_round_trip(const Graph& g) {
  std::vector<Count> offsets{0};
  std::vector<NodeId> adjacency;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto adj = g.neighbors(v);
    adjacency.insert(adjacency.end(), adj.begin(), adj.end());
    offsets.push_back(adjacency.size());
  }
  const Graph copy = Graph::from_csr(std::move(offsets), std::move(adjacency),
                                     CsrValidation::kFull);
  EXPECT_EQ(csr_digest(copy), csr_digest(g));
  EXPECT_EQ(copy.num_self_loops(), g.num_self_loops());
  EXPECT_EQ(copy.num_parallel_extra(), g.num_parallel_extra());
}

TEST(GeneratorGolden, RandomRegularSimple) {
  for (const GeneratorPin& pin : kRandomRegularSimplePins) {
    SCOPED_TRACE(::testing::Message() << "n=" << pin.n << " d=" << pin.d);
    Rng rng(pin.seed);
    const Graph g = random_regular_simple(pin.n, pin.d, rng);
    EXPECT_EQ(csr_digest(g), pin.digest);
    EXPECT_EQ(rng.next_u64(), pin.next_draw);
    EXPECT_TRUE(g.is_simple());
    expect_full_csr_round_trip(g);
  }
}

TEST(GeneratorGolden, ConfigurationModel) {
  for (const GeneratorPin& pin : kConfigurationModelPins) {
    SCOPED_TRACE(::testing::Message() << "n=" << pin.n << " d=" << pin.d);
    Rng rng(pin.seed);
    const Graph g = configuration_model(pin.n, pin.d, rng);
    EXPECT_EQ(csr_digest(g), pin.digest);
    EXPECT_EQ(rng.next_u64(), pin.next_draw);
    expect_full_csr_round_trip(g);
  }
}

// ---------------------------------------------------------------------------
// Closed form: loop and double-edge counts of the pairing model
// ---------------------------------------------------------------------------

/// For fixed d and n -> infinity the pairing model's self-loop count tends
/// to Poisson((d-1)/2) and its double-edge count to Poisson((d-1)^2/4).
/// Draws `generate(n, d, seed)` over a fixed seed set at n = 1000 (the
/// finite-n bias is well under 1 %) and d in {3, 8}. Tolerances come from
/// the sample's own spread: each mean within four standard errors of its
/// limit, and the dispersion var/mean within 1 +- 0.3 (about four standard
/// errors of sqrt(2/400)). At these seeds both generators measured
/// |z| <= 2.2 and var/mean in [0.82, 1.05].
template <typename Generate>
void expect_poisson_loop_and_double_counts(Generate generate) {
  constexpr NodeId kN = 1000;
  constexpr int kSeeds = 400;
  const auto expect_poisson = [](const std::vector<double>& xs, double mu) {
    const auto count = static_cast<double>(xs.size());
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= count;
    double var = 0.0;
    for (const double x : xs) var += (x - mean) * (x - mean);
    var /= count - 1.0;
    EXPECT_NEAR(mean, mu, 4.0 * std::sqrt(var / count));
    EXPECT_NEAR(var / mean, 1.0, 0.3);
  };
  for (const NodeId d : {NodeId{3}, NodeId{8}}) {
    SCOPED_TRACE(::testing::Message() << "d=" << d);
    std::vector<double> loops;
    std::vector<double> doubles;
    for (int s = 0; s < kSeeds; ++s) {
      const Graph g = generate(kN, d, static_cast<std::uint64_t>(1000 + s));
      loops.push_back(static_cast<double>(g.num_self_loops()));
      doubles.push_back(static_cast<double>(g.num_parallel_extra()));
    }
    const double dm1 = static_cast<double>(d) - 1.0;
    expect_poisson(loops, dm1 / 2.0);
    expect_poisson(doubles, dm1 * dm1 / 4.0);
  }
}

TEST(ConfigurationModel, LoopAndDoubleEdgeCountsMatchPoissonMeans) {
  expect_poisson_loop_and_double_counts(
      [](NodeId n, NodeId d, std::uint64_t seed) {
        Rng rng(seed);
        return configuration_model(n, d, rng);
      });
}

TEST(ChunkedConfigurationModel, LoopAndDoubleEdgeCountsMatchPoissonMeans) {
  expect_poisson_loop_and_double_counts(
      [](NodeId n, NodeId d, std::uint64_t seed) {
        return bigtopo::chunked_configuration_model(
            {.n = n, .d = d, .seed = seed});
      });
}

/// Property sweep: configuration model regularity over an (n, d) grid.
class ConfigModelParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConfigModelParam, RegularWithExactEdgeCount) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + d));
  const Graph g = configuration_model(static_cast<NodeId>(n),
                                      static_cast<NodeId>(d), rng);
  EXPECT_EQ(g.regular_degree(),
            std::optional<NodeId>{static_cast<NodeId>(d)});
  EXPECT_EQ(g.num_edges(), static_cast<Count>(n) * d / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigModelParam,
    ::testing::Values(std::tuple{4, 2}, std::tuple{10, 3}, std::tuple{16, 4},
                      std::tuple{64, 6}, std::tuple{128, 8},
                      std::tuple{256, 16}, std::tuple{512, 3},
                      std::tuple{1024, 12}));

/// Property sweep: simple sampler produces simple regular connected graphs.
class SimpleRegularParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimpleRegularParam, SimpleRegularConnected) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 7919 + d));
  const Graph g = random_regular_simple(static_cast<NodeId>(n),
                                        static_cast<NodeId>(d), rng);
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.regular_degree(),
            std::optional<NodeId>{static_cast<NodeId>(d)});
  if (d >= 3) {
    EXPECT_TRUE(is_connected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimpleRegularParam,
    ::testing::Values(std::tuple{16, 3}, std::tuple{50, 4}, std::tuple{64, 8},
                      std::tuple{200, 5}, std::tuple{256, 10},
                      std::tuple{500, 6}, std::tuple{1024, 16}));

}  // namespace
}  // namespace rrb
