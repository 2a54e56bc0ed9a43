#include "rrb/rng/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace rrb {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  EXPECT_NE(splitmix64_next(a), splitmix64_next(b));
}

TEST(Xoshiro, SameSeedSameStream) {
  Xoshiro256StarStar a(123);
  Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, ZeroSeedIsNotDegenerate) {
  Xoshiro256StarStar g(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(g());
  EXPECT_GT(seen.size(), 60U);  // essentially all distinct
}

TEST(Xoshiro, JumpChangesStream) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64BoundOneAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform_u64(1), 0U);
}

TEST(Rng, UniformU64ZeroBoundThrows) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform_u64(0), std::logic_error);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(4);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i)
    ++counts[static_cast<std::size_t>(rng.uniform_u64(kBuckets))];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c), expected, 5.0 * std::sqrt(expected));
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(9);
  constexpr int kDraws = 50000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng rng(10);
  EXPECT_THROW((void)rng.bernoulli(-0.1), std::logic_error);
  EXPECT_THROW((void)rng.bernoulli(1.1), std::logic_error);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(std::span<int>(v));
  std::vector<int> sorted(v);
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(12);
  std::vector<int> v(64);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(std::span<int>(v));
  int fixed = 0;
  for (int i = 0; i < 64; ++i)
    if (v[static_cast<size_t>(i)] == i) ++fixed;
  EXPECT_LT(fixed, 10);  // expected ~1 fixed point
}

TEST(Rng, ShuffleUniformOverSmallPermutations) {
  // All 6 permutations of 3 elements should appear with frequency ~1/6.
  Rng rng(13);
  std::map<std::vector<int>, int> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<int> v{0, 1, 2};
    rng.shuffle(std::span<int>(v));
    ++counts[v];
  }
  ASSERT_EQ(counts.size(), 6U);
  for (const auto& [perm, c] : counts)
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 1.0 / 6.0, 0.01);
}

TEST(Rng, SampleDistinctProducesDistinctValuesInRange) {
  Rng rng(14);
  std::vector<std::uint64_t> out;
  for (int rep = 0; rep < 100; ++rep) {
    rng.sample_distinct(50, 10, out);
    ASSERT_EQ(out.size(), 10U);
    std::set<std::uint64_t> set(out.begin(), out.end());
    EXPECT_EQ(set.size(), 10U);
    for (const auto v : out) EXPECT_LT(v, 50U);
  }
}

TEST(Rng, SampleDistinctFullRangeIsPermutationOfSet) {
  Rng rng(15);
  std::vector<std::uint64_t> out;
  rng.sample_distinct(8, 8, out);
  std::set<std::uint64_t> set(out.begin(), out.end());
  EXPECT_EQ(set.size(), 8U);
}

TEST(Rng, SampleDistinctMarginalsAreUniform) {
  // Each element of [0,10) should be included in a 3-subset w.p. 3/10.
  Rng rng(16);
  std::vector<int> counts(10, 0);
  std::vector<std::uint64_t> out;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    rng.sample_distinct(10, 3, out);
    for (const auto v : out) ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.3, 0.015);
}

TEST(Rng, SampleDistinctSmallDistinctAndInRange) {
  Rng rng(17);
  std::array<std::uint32_t, 8> buf{};
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t got =
        rng.sample_distinct_small(12, 4, std::span<std::uint32_t>(buf));
    ASSERT_EQ(got, 4U);
    std::set<std::uint32_t> set(buf.begin(), buf.begin() + 4);
    EXPECT_EQ(set.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(buf[i], 12U);
  }
}

TEST(Rng, SampleDistinctSmallKEqualsN) {
  Rng rng(18);
  std::array<std::uint32_t, 8> buf{};
  const std::size_t got =
      rng.sample_distinct_small(4, 4, std::span<std::uint32_t>(buf));
  ASSERT_EQ(got, 4U);
  std::set<std::uint32_t> set(buf.begin(), buf.begin() + 4);
  EXPECT_EQ(set, (std::set<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Rng, SampleDistinctSmallMarginalsAreUniform) {
  Rng rng(19);
  std::array<std::uint32_t, 8> buf{};
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    rng.sample_distinct_small(8, 4, std::span<std::uint32_t>(buf));
    for (std::size_t j = 0; j < 4; ++j) ++counts[buf[j]];
  }
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.5, 0.02);
}

// ---- sample_distinct_small against its frozen prefix-scan form -------------
//
// The channel sampler's draws are part of every recorded experiment. The
// library's sampler tests repeats against a `seen` mask for n <= 64; this is
// the prefix-scan form it replaced, kept verbatim so the two can be compared
// output for output and draw for draw.
std::size_t frozen_sample_distinct_small(Rng& rng, std::uint32_t n,
                                         std::size_t k,
                                         std::span<std::uint32_t> out) {
  for (std::size_t i = 0; i < k; ++i) {
    std::uint32_t candidate;
    bool fresh;
    do {
      candidate = static_cast<std::uint32_t>(rng.uniform_u64(n));
      fresh = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (out[j] == candidate) {
          fresh = false;
          break;
        }
      }
    } while (!fresh);
    out[i] = candidate;
  }
  return k;
}

/// Runs 10^4 calls of both samplers on twin streams; after each call the
/// outputs and the streams' next draws must agree.
void expect_sampler_matches_frozen(std::uint32_t n, std::size_t k) {
  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
  const std::uint64_t seed = derive_seed(0x5a3b1e, (std::uint64_t{n} << 8) | k);
  Rng live(seed);
  Rng frozen(seed);
  std::array<std::uint32_t, 64> got{};
  std::array<std::uint32_t, 64> want{};
  for (int call = 0; call < 10000; ++call) {
    ASSERT_EQ(live.sample_distinct_small(n, k, got), k);
    frozen_sample_distinct_small(frozen, n, k, want);
    ASSERT_TRUE(std::equal(got.begin(), got.begin() + k, want.begin()))
        << "call " << call;
    ASSERT_EQ(live.next_u64(), frozen.next_u64()) << "call " << call;
  }
}

TEST(SampleDistinctSmallEquivalence, MaskPathEveryNUpTo64) {
  for (std::uint32_t n = 1; n <= 64; ++n)
    for (std::size_t k = 1; k <= std::min<std::size_t>(n, 8); ++k)
      expect_sampler_matches_frozen(n, k);
}

TEST(SampleDistinctSmallEquivalence, ScanPathAbove64) {
  for (const std::uint32_t n : {65U, 100U, 1000U})
    for (std::size_t k = 1; k <= 8; ++k) expect_sampler_matches_frozen(n, k);
}

TEST(SampleDistinctSmallEquivalence, KEqualsNUpTo16) {
  for (std::uint32_t n = 1; n <= 16; ++n) expect_sampler_matches_frozen(n, n);
}

TEST(RngFork, KeyedOnSeedAndStreamOnly) {
  // fork(i) is a pure function of (construction seed, i): draws and other
  // forks made beforehand must not change it.
  Rng pristine(77);
  Rng exercised(77);
  for (int i = 0; i < 1000; ++i) (void)exercised.next_u64();
  (void)exercised.fork(3);
  (void)exercised.split();
  Rng a = pristine.fork(5);
  Rng b = exercised.fork(5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngFork, IndependentOfForkOrder) {
  Rng parent(0xabcd);
  Rng f2_first = parent.fork(2);
  Rng f0 = parent.fork(0);
  Rng f2_again = parent.fork(2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(f2_first.next_u64(), f2_again.next_u64());
  EXPECT_NE(f0.next_u64(), parent.fork(2).next_u64());
}

TEST(RngFork, SeedAccessorReportsConstructionSeed) {
  EXPECT_EQ(Rng(123).seed(), 123U);
  EXPECT_EQ(Rng(123).fork(4).seed(), derive_seed(123, 4));
}

TEST(RngFork, GoldenValuesAreStableAcrossPlatforms) {
  // Pinned outputs of the (seed, stream) derivation and the first draws of
  // forked streams. These must never change: they define the persistent
  // seeding contract "trial i's stream depends only on (seed, i)", and a
  // silent change would reshuffle every recorded experiment.
  EXPECT_EQ(derive_seed(0, 0), 0x68bcc37221b020bbULL);
  EXPECT_EQ(derive_seed(0, 1), 0xf0e177d57a54eb9bULL);
  EXPECT_EQ(derive_seed(0, 2), 0x10ed4bcd2220f2b1ULL);
  EXPECT_EQ(derive_seed(0, ~0ULL), 0x91951c17b1cf73aaULL);
  EXPECT_EQ(derive_seed(0x5eed, 0), 0xbfd2167601e91816ULL);
  EXPECT_EQ(derive_seed(0x5eed, 1), 0x61e8b5651d7d8438ULL);
  EXPECT_EQ(derive_seed(0x5eed, 2), 0x634daa10c43a7c34ULL);
  EXPECT_EQ(derive_seed(0x5eed, ~0ULL), 0xc40d03ed4ac06394ULL);

  Rng base(0x5eed);
  Rng f0 = base.fork(0);
  EXPECT_EQ(f0.next_u64(), 0x14608cbeac71a062ULL);
  EXPECT_EQ(f0.next_u64(), 0xce9b38b0c6d879b7ULL);
  EXPECT_EQ(f0.next_u64(), 0x9b8d1680baf44a68ULL);
  Rng f1 = base.fork(1);
  EXPECT_EQ(f1.next_u64(), 0x17a68aa5d6bd38efULL);
  EXPECT_EQ(f1.next_u64(), 0xcbaddcf546fa56cbULL);
  Rng f7 = base.fork(7);
  EXPECT_EQ(f7.next_u64(), 0x16ec90289247b717ULL);
  EXPECT_EQ(f7.next_u64(), 0xcd5ff77b0e235647ULL);
}

TEST(RngFork, HashStringGoldenValuesAreStableAcrossPlatforms) {
  // Pinned outputs of the string hash behind named sub-streams: the
  // campaign subsystem keys every cell's randomness on
  // derive_seed(campaign_seed, hash_string(cell_key)), so these values are
  // part of the seeding contract — a silent change would re-seed every
  // recorded campaign (cell seeds themselves are pinned in
  // tests/test_campaign.cpp).
  EXPECT_EQ(hash_string(""), 0x100cdaacc0bc9316ULL);
  EXPECT_EQ(hash_string("rrb"), 0x26feeb5d965b9927ULL);
  EXPECT_EQ(hash_string("cell"), 0x78a140d461eceb33ULL);
  EXPECT_EQ(hash_string("scheme=push;qr=0;graph=regular;n=256;d=8;"
                        "alpha=1.5;failure=0;churn=0"),
            0xcbb35f52f5b19a4bULL);
}

TEST(RngFork, HashStringSeparatesSimilarStrings) {
  const std::vector<std::string> keys = {
      "", "a", "b", "ab", "ba", "aa", "a a", "a  a",
      "scheme=push;n=256", "scheme=push;n=257", "scheme=pull;n=256"};
  std::set<std::uint64_t> seen;
  for (const std::string& key : keys) seen.insert(hash_string(key));
  EXPECT_EQ(seen.size(), keys.size());
}

TEST(RngFork, StreamsArePairwiseNonOverlappingOnAMillionDraws) {
  // Forked streams must behave as independent: any value colliding across
  // two streams' first 1e6 draws would signal overlapping state
  // trajectories. (For honest 64-bit random streams the collision
  // probability over this window is ~2^-22 per pair — treat a hit as a
  // derivation bug, not bad luck.)
  constexpr std::size_t kWindow = 1'000'000;
  Rng base(0xfeedface);
  const std::array<std::uint64_t, 3> streams = {0, 1, 1ULL << 63};
  std::vector<std::vector<std::uint64_t>> draws;
  for (const std::uint64_t id : streams) {
    Rng fork = base.fork(id);
    std::vector<std::uint64_t> window(kWindow);
    for (auto& v : window) v = fork.next_u64();
    std::sort(window.begin(), window.end());
    draws.push_back(std::move(window));
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    for (std::size_t j = i + 1; j < draws.size(); ++j) {
      std::vector<std::uint64_t> common;
      std::set_intersection(draws[i].begin(), draws[i].end(),
                            draws[j].begin(), draws[j].end(),
                            std::back_inserter(common));
      EXPECT_TRUE(common.empty())
          << common.size() << " collisions between streams " << streams[i]
          << " and " << streams[j];
    }
  }
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(20);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, DeriveSeedIsDeterministicAndSpread) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) seeds.insert(derive_seed(42, s));
  EXPECT_EQ(seeds.size(), 100U);
}

/// Property sweep: sample_distinct respects (n, k) contracts across a grid.
class SampleDistinctParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SampleDistinctParam, DistinctInRangeAndFullSize) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 131 + k));
  std::vector<std::uint64_t> out;
  rng.sample_distinct(static_cast<std::uint64_t>(n),
                      static_cast<std::size_t>(k), out);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(k));
  std::set<std::uint64_t> set(out.begin(), out.end());
  EXPECT_EQ(set.size(), static_cast<std::size_t>(k));
  for (const auto v : out) EXPECT_LT(v, static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SampleDistinctParam,
    ::testing::Values(std::tuple{1, 1}, std::tuple{4, 1}, std::tuple{4, 4},
                      std::tuple{10, 3}, std::tuple{100, 7},
                      std::tuple{100, 100}, std::tuple{1000, 64}));

}  // namespace
}  // namespace rrb
