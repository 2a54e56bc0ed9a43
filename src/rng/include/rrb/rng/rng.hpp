#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "rrb/common/check.hpp"

/// \file rng.hpp
/// Deterministic, seedable randomness for every simulation component.
///
/// All stochastic behaviour in the library flows through Rng so that a run
/// is exactly reproducible from (seed, parameters). The engine is
/// xoshiro256** (Blackman & Vigna), seeded through splitmix64 as its authors
/// recommend; both are implemented here from the public-domain reference
/// algorithms so the library has no external dependencies.

namespace rrb {

/// splitmix64 step: advances `state` and returns the next output. Used for
/// seeding and for cheap stateless hashing of seed material.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256** engine. Satisfies std::uniform_random_bit_generator, so it
/// can be plugged into <random> distributions where convenient, though the
/// Rng helpers below are preferred (they are portable across standard
/// library implementations, which <random> distributions are not).
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 so that any 64-bit seed (including 0) yields a
  /// well-mixed, non-degenerate state.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0xdeadbeefcafef00dULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return ~static_cast<result_type>(0);
  }

  // Defined inline below: this is the leaf of every random draw in the
  // library, and the simulation hot loops are draw-bound.
  result_type operator()();

  /// Jump ahead 2^128 steps; used to derive independent parallel streams.
  void jump();

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Derive a stable 64-bit seed for a named sub-stream, e.g.
/// `derive_seed(base, trial_index)`. A stateless double splitmix64 mix of
/// (base, stream): deterministic, order-free, and platform-independent —
/// the primitive behind Rng::fork and the persistent seeding contract
/// "trial i's stream depends only on (seed, i)".
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t stream);

/// Stable 64-bit hash of a byte string: FNV-1a folded through a splitmix64
/// finalising mix. Deterministic and platform-independent, so a *named*
/// sub-stream can be derived as `derive_seed(base, hash_string(name))` —
/// the experiment-campaign subsystem keys every cell's randomness on
/// (campaign_seed, cell_key) this way. Golden-pinned in tests/test_rng.cpp;
/// changing it invalidates every recorded campaign.
[[nodiscard]] std::uint64_t hash_string(std::string_view text);

/// High-level random source. One instance per simulation trial.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xdeadbeefcafef00dULL)
      : engine_(seed), seed_(seed) {}

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  /// Uniform integer in [0, bound) via Lemire's unbiased multiply-shift
  /// rejection method. bound must be >= 1. Inline (below): one draw per
  /// node per round in the phone call engines.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform_double();

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Fisher–Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct values uniformly from [0, n), k <= n.
  ///
  /// Uses Floyd's algorithm: O(k) expected work independent of n, no
  /// allocation beyond the output. Order of the output is the insertion
  /// order of Floyd's algorithm (a uniformly random k-subset, though not a
  /// uniformly random *sequence*; callers that need a random order should
  /// shuffle).
  void sample_distinct(std::uint64_t n, std::size_t k,
                       std::vector<std::uint64_t>& out);

  /// Sample k distinct indices from [0, n) into a small fixed buffer,
  /// returning the number written (== k). Optimised for the phone call
  /// model's k <= 8 choices out of a node's d neighbours: each index is
  /// drawn with uniform_u64(n) and redrawn while it repeats an earlier
  /// one. For n <= 64 the repeat test is one bit of a `seen` mask; larger n
  /// scan the already-chosen prefix. Both paths make the same draws. Inline
  /// (below): this is the channel sampler of every phone call engine.
  std::size_t sample_distinct_small(std::uint32_t n, std::size_t k,
                                    std::span<std::uint32_t> out);

  /// A fresh Rng whose stream is independent of this one (derived by
  /// hashing a drawn value; suitable for seeding per-trial generators).
  ///
  /// Note: split() advances this generator, so the child depends on how
  /// many draws preceded it. For parallel work use fork(), whose streams
  /// are a pure function of (seed, stream_id).
  [[nodiscard]] Rng split();

  /// The RNG for sub-stream `stream_id`: a SplitMix-style derivation keyed
  /// on (construction seed, stream_id) only. It does not consume or
  /// observe this generator's state, so the result is independent of any
  /// draws or other forks made before it — the property that makes
  /// parallel trial execution bit-identical to sequential execution.
  /// This is the library's seeding contract: trial i always runs on
  /// Rng(seed).fork(i), whoever schedules it.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    return Rng(derive_seed(seed_, stream_id));
  }

  /// The seed this Rng was constructed with (forks derive from it).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Access the raw engine (for <random> interop in tests).
  [[nodiscard]] Xoshiro256StarStar& engine() { return engine_; }

 private:
  /// sample_distinct_small's path for n > 64. Out of line (rng.cpp) so the
  /// inline mask path stays small inside the engines' round loops.
  std::size_t sample_distinct_scan(std::uint32_t n, std::size_t k,
                                   std::span<std::uint32_t> out);

  Xoshiro256StarStar engine_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Inline hot-path definitions. These are the leaves of every draw the round
// loops make (one xoshiro step + one Lemire reduction per channel choice);
// keeping them in the header lets them inline into the engines instead of
// costing two cross-TU calls per draw. The algorithms are bit-for-bit the
// ones golden-pinned in tests/test_rng.cpp — only their linkage is inline.
// ---------------------------------------------------------------------------

inline Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

inline std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  RRB_REQUIRE(bound >= 1, "uniform_u64 bound must be >= 1");
  // Lemire's method with rejection to remove bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - b) mod b
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

inline double Rng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline bool Rng::bernoulli(double p) {
  RRB_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p out of [0,1]");
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_double() < p;
}

inline std::size_t Rng::sample_distinct_small(std::uint32_t n, std::size_t k,
                                              std::span<std::uint32_t> out) {
  RRB_REQUIRE(k <= n, "sample_distinct_small needs k <= n");
  RRB_REQUIRE(out.size() >= k, "output buffer too small");
  if (n <= 64) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < k; ++i) {
      std::uint32_t candidate;
      do {
        candidate = static_cast<std::uint32_t>(uniform_u64(n));
      } while (((seen >> candidate) & 1) != 0);
      seen |= std::uint64_t{1} << candidate;
      out[i] = candidate;
    }
    return k;
  }
  return sample_distinct_scan(n, k, out);
}

}  // namespace rrb
