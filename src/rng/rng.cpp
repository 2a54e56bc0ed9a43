#include "rrb/rng/rng.hpp"

#include <algorithm>

namespace rrb {

std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
}

void Xoshiro256StarStar::jump() {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if ((word & (1ULL << b)) != 0)
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      (void)(*this)();
    }
  }
  s_ = acc;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RRB_REQUIRE(lo <= hi, "uniform_int needs lo <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

void Rng::sample_distinct(std::uint64_t n, std::size_t k,
                          std::vector<std::uint64_t>& out) {
  RRB_REQUIRE(k <= n, "sample_distinct needs k <= n");
  out.clear();
  out.reserve(k);
  // Floyd's algorithm: for j = n-k..n-1, draw t in [0, j]; insert t if not
  // present, otherwise insert j. Linear scan of `out` is optimal for the
  // small k this library uses (k <= 8 in the protocols; tests use k <= 64).
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = uniform_u64(j + 1);
    if (std::find(out.begin(), out.end(), t) == out.end())
      out.push_back(t);
    else
      out.push_back(j);
  }
}

std::size_t Rng::sample_distinct_scan(std::uint32_t n, std::size_t k,
                                      std::span<std::uint32_t> out) {
  for (std::size_t i = 0; i < k; ++i) {
    std::uint32_t candidate;
    bool fresh;
    do {
      candidate = static_cast<std::uint32_t>(uniform_u64(n));
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

Rng Rng::split() {
  std::uint64_t material = next_u64();
  const std::uint64_t seed = splitmix64_next(material);
  return Rng(seed);
}

std::uint64_t hash_string(std::string_view text) {
  // FNV-1a over the bytes, then one splitmix64 round keyed on the length so
  // that short strings still diffuse into all 64 bits and "" != hash(0).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t s = h + 0x9e3779b97f4a7c15ULL * (text.size() + 1);
  return splitmix64_next(s);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL + stream);
  std::uint64_t a = splitmix64_next(s);
  s ^= stream * 0xff51afd7ed558ccdULL;
  return a ^ splitmix64_next(s);
}

}  // namespace rrb
