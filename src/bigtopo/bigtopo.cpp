#include "rrb/bigtopo/bigtopo.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/common/runner_config.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb::bigtopo {

namespace {

/// Node-id ceiling shared with the campaign spec parser (n <= 2^31,
/// types.hpp).
constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 31;

/// splitmix64 finalising mix — the diffusion step of the Feistel round
/// function. Matches the mixer inside derive_seed, so the permutation's
/// quality rests on the same primitive as the seeding contract.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Stub count n·d as a guarded 64-bit product (the satellite overflow
/// rule: degree/offset arithmetic at large n always runs in 64 bits, with
/// explicit RRB_REQUIRE guards where a product could leave the supported
/// range).
[[nodiscard]] std::uint64_t stub_count(NodeId n, NodeId d) {
  RRB_REQUIRE(n >= 2, "bigtopo: n must be >= 2");
  RRB_REQUIRE(d >= 1, "bigtopo: d must be >= 1");
  RRB_REQUIRE(static_cast<std::uint64_t>(n) <= kMaxNodes,
              "bigtopo: n exceeds the NodeId range");
  const std::uint64_t stubs =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(d);
  RRB_REQUIRE(stubs / d == n, "bigtopo: n*d overflows 64 bits");
  return stubs;
}

/// One CSR: 8-byte offsets (n+1) plus 4-byte adjacency entries.
[[nodiscard]] std::uint64_t csr_bytes(NodeId n, std::uint64_t entries) {
  return (static_cast<std::uint64_t>(n) + 1) * sizeof(Count) +
         entries * sizeof(NodeId);
}

void enforce_budget(const ChunkedParams& params, std::uint64_t estimate,
                    const char* generator) {
  if (params.memory_budget_bytes == 0) return;
  RRB_REQUIRE(estimate <= params.memory_budget_bytes,
              std::string(generator) + ": estimated peak " +
                  std::to_string(estimate) + " bytes exceeds memory budget " +
                  std::to_string(params.memory_budget_bytes) + " bytes");
}

/// Identity execution order over the canonical chunks.
[[nodiscard]] std::vector<NodeId> identity_order(NodeId n) {
  std::vector<NodeId> order(num_canonical_chunks(n));
  for (NodeId c = 0; c < order.size(); ++c) order[c] = c;
  return order;
}

void validate_order(NodeId n, std::span<const NodeId> order) {
  const NodeId chunks = num_canonical_chunks(n);
  RRB_REQUIRE(order.size() == chunks,
              "bigtopo: chunk order must cover every canonical chunk");
  std::vector<bool> seen(chunks, false);
  for (const NodeId c : order) {
    RRB_REQUIRE(c < chunks, "bigtopo: chunk order index out of range");
    RRB_REQUIRE(!seen[c], "bigtopo: duplicate chunk in execution order");
    seen[c] = true;
  }
}

/// Execution batches: `chunks` groups of consecutive entries of `order`
/// (0 = one batch per canonical chunk). Pure scheduling — the per-chunk
/// work is identical whatever the grouping.
[[nodiscard]] std::size_t num_batches(std::size_t total, int chunks) {
  RRB_REQUIRE(chunks >= 0, "bigtopo: chunks must be >= 0");
  if (chunks == 0 || static_cast<std::size_t>(chunks) >= total) return total;
  return static_cast<std::size_t>(chunks);
}

/// Run per_chunk(c) for every canonical chunk c of `order`, batch b taking
/// its contiguous share of the order. Batches run concurrently on the
/// shared pool with min(batches, automatic thread count) workers — one
/// batch runs inline — so per_chunk must write only chunk-owned bytes.
template <typename PerChunk>
void for_each_batch(std::span<const NodeId> order, int chunks,
                    const PerChunk& per_chunk) {
  const std::size_t batches = num_batches(order.size(), chunks);
  parallel_for(static_cast<int>(batches), resolve_threads(RunnerConfig{}),
               [&](int b) {
                 const auto batch = static_cast<std::size_t>(b);
                 const std::size_t begin = batch * order.size() / batches;
                 const std::size_t end = (batch + 1) * order.size() / batches;
                 for (std::size_t i = begin; i < end; ++i) per_chunk(order[i]);
               });
}

/// Sort every adjacency row of the canonical chunks in `order` — Graph's
/// sorted-list invariant, and the step that makes bucket order (random-out)
/// invisible. Rows are disjoint, so the batches sort concurrently.
void sort_rows(NodeId n, std::span<const NodeId> order, int chunks,
               const std::vector<Count>& offsets,
               std::vector<NodeId>& adjacency) {
  for_each_batch(order, chunks, [&](NodeId c) {
    const ChunkRange range = canonical_chunk_range(n, c);
    for (NodeId v = range.begin; v < range.end; ++v)
      std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                adjacency.begin() +
                    static_cast<std::ptrdiff_t>(offsets[v + 1]));
  });
}

/// RSS sample attached to a span's args — telemetry side channel only.
void sample_rss(telemetry::Span& span) {
  if (!span.active()) return;
  span.set_args(
      "{\"current_rss_bytes\":" +
      std::to_string(telemetry::current_rss_bytes()) +
      ",\"peak_rss_bytes\":" + std::to_string(telemetry::peak_rss_bytes()) +
      "}");
}

}  // namespace

std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t chunk_id) {
  return derive_seed(seed, chunk_id);
}

NodeId num_canonical_chunks(NodeId n) {
  return static_cast<NodeId>(
      (static_cast<std::uint64_t>(n) + kChunkNodes - 1) / kChunkNodes);
}

ChunkRange canonical_chunk_range(NodeId n, NodeId chunk_id) {
  RRB_REQUIRE(chunk_id < num_canonical_chunks(n),
              "canonical_chunk_range: chunk out of range");
  const std::uint64_t begin =
      static_cast<std::uint64_t>(chunk_id) * kChunkNodes;
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + kChunkNodes, n);
  return ChunkRange{static_cast<NodeId>(begin), static_cast<NodeId>(end)};
}

StubPermutation::StubPermutation(std::uint64_t seed, std::uint64_t domain)
    : domain_(domain) {
  RRB_REQUIRE(domain >= 2, "StubPermutation: domain must be >= 2");
  // Enclosing power-of-two domain 2^(2*half_bits_): the Feistel network
  // permutes it exactly; cycle-walking projects back into [0, domain).
  int bits = 1;
  while (bits < 64 && (std::uint64_t{1} << bits) < domain) ++bits;
  half_bits_ = (bits + 1) / 2;
  half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
  // Round keys from the named-sub-stream discipline, so two permutations
  // with different seeds (or one seed in different roles) never share a
  // key schedule.
  const std::uint64_t base =
      derive_seed(seed, hash_string("bigtopo/stub-permutation"));
  for (int r = 0; r < kRounds; ++r)
    keys_[static_cast<std::size_t>(r)] =
        derive_seed(base, static_cast<std::uint64_t>(r));
}

std::uint64_t StubPermutation::encrypt_once(std::uint64_t x) const {
  std::uint64_t left = x >> half_bits_;
  std::uint64_t right = x & half_mask_;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t f =
        mix64(right + keys_[static_cast<std::size_t>(r)]) & half_mask_;
    const std::uint64_t next_right = left ^ f;
    left = right;
    right = next_right;
  }
  return (left << half_bits_) | right;
}

std::uint64_t StubPermutation::decrypt_once(std::uint64_t y) const {
  std::uint64_t left = y >> half_bits_;
  std::uint64_t right = y & half_mask_;
  for (int r = kRounds - 1; r >= 0; --r) {
    const std::uint64_t f =
        mix64(left + keys_[static_cast<std::size_t>(r)]) & half_mask_;
    const std::uint64_t prev_left = right ^ f;
    right = left;
    left = prev_left;
  }
  return (left << half_bits_) | right;
}

std::uint64_t StubPermutation::forward(std::uint64_t x) const {
  RRB_REQUIRE(x < domain_, "StubPermutation::forward: out of domain");
  std::uint64_t y = encrypt_once(x);
  while (y >= domain_) y = encrypt_once(y);  // cycle-walk back into range
  return y;
}

std::uint64_t StubPermutation::inverse(std::uint64_t y) const {
  RRB_REQUIRE(y < domain_, "StubPermutation::inverse: out of domain");
  return walk_inverse(y);
}

std::uint64_t StubPermutation::walk_inverse(std::uint64_t y) const {
  std::uint64_t x = decrypt_once(y);
  while (x >= domain_) x = decrypt_once(x);
  return x;
}

std::uint64_t estimate_configuration_model_bytes(NodeId n, NodeId d) {
  return csr_bytes(n, stub_count(n, d));
}

std::uint64_t estimate_random_out_bytes(NodeId n, NodeId d) {
  return csr_bytes(n, 2 * stub_count(n, d));
}

Graph chunked_configuration_model(const ChunkedParams& params) {
  const std::vector<NodeId> order = identity_order(params.n);
  return chunked_configuration_model(params, order);
}

Graph chunked_configuration_model(const ChunkedParams& params,
                                  std::span<const NodeId> chunk_order) {
  const NodeId n = params.n;
  const NodeId d = params.d;
  const std::uint64_t stubs = stub_count(n, d);
  RRB_REQUIRE(stubs % 2 == 0, "chunked_configuration_model: n*d must be even");
  validate_order(n, chunk_order);
  enforce_budget(params, estimate_configuration_model_bytes(n, d),
                 "chunked_configuration_model");

  telemetry::Span total_span("bigtopo", "config-model");

  // The pairing: stub s partners with the stub at the XOR-1 position of
  // the permuted order, i.e. adjacency[s] = inverse(forward(s) ^ 1) / d.
  // The fill walks permuted positions instead: each even position y pairs
  // stubs a = inverse(y) and b = inverse(y ^ 1), written from both ends at
  // once, so every pair costs two inverse walks and no forward one. The
  // permutation is a bijection, so every slot is written exactly once with
  // the bytes the per-slot rule gives.
  const StubPermutation perm(
      derive_seed(params.seed, hash_string("bigtopo/pairing")), stubs);

  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[v] + static_cast<Count>(d);
  std::vector<NodeId> adjacency(stubs);

  {
    // Canonical chunk c owns the positions [begin·d, end·d) of its node
    // range. Both bounds are even (kChunkNodes is even, n·d is even), so
    // no pair straddles two chunks, and chunks write disjoint slots.
    telemetry::Span fill_span("bigtopo", "config-model/fill");
    const std::uint64_t width = d;
    for_each_batch(chunk_order, params.chunks, [&](NodeId c) {
      const ChunkRange range = canonical_chunk_range(n, c);
      const std::uint64_t end = range.end * width;
      for (std::uint64_t y = range.begin * width; y < end; y += 2) {
        const std::uint64_t a = perm.walk_inverse(y);
        const std::uint64_t b = perm.walk_inverse(y + 1);
        adjacency[a] = static_cast<NodeId>(b / width);
        adjacency[b] = static_cast<NodeId>(a / width);
      }
    });
    sample_rss(fill_span);
  }

  {
    telemetry::Span sort_span("bigtopo", "config-model/sort");
    sort_rows(n, chunk_order, params.chunks, offsets, adjacency);
    sample_rss(sort_span);
  }

  Graph graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  sample_rss(total_span);
  return graph;
}

Graph chunked_random_out(const ChunkedParams& params) {
  const std::vector<NodeId> order = identity_order(params.n);
  return chunked_random_out(params, order);
}

Graph chunked_random_out(const ChunkedParams& params,
                         std::span<const NodeId> chunk_order) {
  const NodeId n = params.n;
  const NodeId d = params.d;
  const std::uint64_t stubs = stub_count(n, d);
  RRB_REQUIRE(d < n, "chunked_random_out: need d < n");
  validate_order(n, chunk_order);
  enforce_budget(params, estimate_random_out_bytes(n, d),
                 "chunked_random_out");

  telemetry::Span total_span("bigtopo", "random-out");

  // One uniform partner in [0, n) \ {v}, drawn from the chunk stream. The
  // count pass and the fill pass replay the same stream, so both see the
  // same draws without ever storing an edge.
  const auto draw_partner = [n](Rng& rng, NodeId v) {
    auto t = static_cast<NodeId>(rng.uniform_u64(n - 1));
    return t >= v ? t + 1 : t;
  };

  // Pass 1 — count degrees into offsets[v+1]. Increments commute, so the
  // counts are independent of chunk execution order.
  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1, 0);
  {
    telemetry::Span count_span("bigtopo", "random-out/count");
    for (const NodeId c : chunk_order) {
      const ChunkRange range = canonical_chunk_range(n, c);
      Rng rng(chunk_seed(params.seed, c));
      for (NodeId v = range.begin; v < range.end; ++v)
        for (NodeId j = 0; j < d; ++j) {
          const NodeId t = draw_partner(rng, v);
          ++offsets[static_cast<std::size_t>(v) + 1];
          ++offsets[static_cast<std::size_t>(t) + 1];
        }
    }
    for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    RRB_ASSERT(offsets[n] == 2 * stubs, "random-out: stub conservation");
    sample_rss(count_span);
  }

  // Pass 2 — in-place bucket fill: offsets[v] doubles as v's write cursor
  // (no separate cursor array). After the pass offsets[v] has advanced to
  // the old offsets[v+1], so one right-shift restores the offset array.
  std::vector<NodeId> adjacency(2 * stubs);
  {
    telemetry::Span fill_span("bigtopo", "random-out/fill");
    for (const NodeId c : chunk_order) {
      const ChunkRange range = canonical_chunk_range(n, c);
      Rng rng(chunk_seed(params.seed, c));
      for (NodeId v = range.begin; v < range.end; ++v)
        for (NodeId j = 0; j < d; ++j) {
          const NodeId t = draw_partner(rng, v);
          adjacency[offsets[v]++] = t;
          adjacency[offsets[t]++] = v;
        }
    }
    for (NodeId v = n; v > 0; --v) offsets[v] = offsets[v - 1];
    offsets[0] = 0;
    sample_rss(fill_span);
  }

  {
    // Bucket order depends on the chunk execution order; sorting each
    // bucket canonicalises the bytes, making the output order-independent.
    telemetry::Span sort_span("bigtopo", "random-out/sort");
    sort_rows(n, chunk_order, params.chunks, offsets, adjacency);
    sample_rss(sort_span);
  }

  Graph graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  sample_rss(total_span);
  return graph;
}

}  // namespace rrb::bigtopo
