#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "rrb/common/types.hpp"
#include "rrb/graph/graph.hpp"

/// \file bigtopo.hpp
/// Chunked million-node topology generation with a compact CSR build.
///
/// Every generator in rrb/graph/generators.hpp materialises an intermediate
/// `std::vector<Edge>` (12+ bytes per edge plus builder overhead) before the
/// CSR is assembled, which caps experiments around n ≈ 10^5–10^6. This
/// module targets the n = 10^7–10^8 regime of the "density does not matter"
/// prediction (Fountoulakis–Huber–Panagiotou, arXiv:0904.4851) by emitting
/// adjacency entries straight into their final CSR slots: peak memory is
/// one CSR (8(n+1) bytes of offsets + 4 bytes per adjacency entry) plus
/// O(1) scratch.
///
/// Chunking contract
/// -----------------
/// The node range is partitioned into *canonical* chunks of kChunkNodes
/// nodes each — a fixed grid that is part of the output's identity, NOT a
/// tuning knob. Chunk `c`'s randomness derives as
///
///     Rng(chunk_seed(seed, c))     with  chunk_seed = derive_seed
///
/// — the same discipline as the trial contract (trial i runs on
/// Rng(seed).fork(i)), golden-pinned in tests/test_bigtopo.cpp. The
/// user-facing `ChunkedParams::chunks` only groups canonical chunks into
/// execution batches; like thread counts and shard splits everywhere else
/// in this repo, chunking is scheduling, never semantics: the produced
/// graph is byte-identical for every chunk count, every chunk execution
/// order and every thread count (pinned in tests/test_bigtopo.cpp).
///
/// Batches run concurrently on the library's one worker pool
/// (rrb::parallel_for, rrb/common/runner_config.hpp) with
/// min(batches, resolve_threads(RunnerConfig{})) workers — the
/// `RunnerConfig::threads = 0` resolution: $RRB_THREADS when set, else one
/// per hardware core. `chunks = 1` is one batch and runs inline on the
/// calling thread. The configuration model's fill and both generators'
/// per-node row sorts run batched this way; chunked_random_out's count and
/// fill passes share the offset cursors and stay sequential.
///
/// Two generators are provided:
///  - chunked_configuration_model: the paper's §1.2 pairing model, exact
///    d-regular multigraph semantics (self-loops and parallel edges kept).
///    A sequential per-chunk RNG stream cannot produce a *global* uniform
///    stub pairing without a global shuffle (which is exactly the O(n·d)
///    scratch this module exists to avoid), so the pairing is realised as a
///    seed-keyed pseudorandom permutation over stub indices
///    (StubPermutation): stub s is matched with the stub occupying the
///    adjacent position in the permuted order. Each adjacency slot is then
///    a pure function of (seed, slot) — trivially chunk-count- and
///    order-independent, with zero scratch. The fill walks ranges of
///    *permuted positions*: canonical chunk c owns the positions
///    [c·kChunkNodes·d, min((c+1)·kChunkNodes·d, n·d)), and each even
///    position y writes both ends of the pair (inverse(y), inverse(y ^ 1)).
///    The range bounds are even, so no pair straddles two chunks, and the
///    permutation is a bijection, so chunks write disjoint slots and run
///    concurrently.
///  - chunked_random_out: each node draws d out-partners from its canonical
///    chunk's Rng(chunk_seed(seed, c)) stream; the undirected union has
///    irregular degrees, so the CSR is assembled by the classical two-pass
///    build (count-degrees pass, then in-place bucket fill over the offset
///    array used as cursors) with no edge list and no cursor array.
///
/// Telemetry: both generators wrap their phases in rrb::telemetry spans
/// (category "bigtopo") and sample current/peak RSS into the span args.
/// Side channel only — the produced graph bytes never depend on telemetry
/// (ROADMAP telemetry invariant).

namespace rrb::bigtopo {

/// Canonical chunk width in nodes. Fixed: the chunk grid is part of the
/// generated graph's identity (chunk c covers nodes [c*kChunkNodes,
/// (c+1)*kChunkNodes) ∩ [0, n)), so outputs never depend on how many
/// execution batches the caller asked for.
inline constexpr NodeId kChunkNodes = NodeId{1} << 14;

/// Seed of canonical chunk `chunk_id` under `seed`: derive_seed(seed,
/// chunk_id) — the chunk-level twin of the trial contract. Golden-pinned
/// in tests/test_bigtopo.cpp; changing it invalidates every chunked graph.
[[nodiscard]] std::uint64_t chunk_seed(std::uint64_t seed,
                                       std::uint64_t chunk_id);

/// Number of canonical chunks covering [0, n): ceil(n / kChunkNodes).
[[nodiscard]] NodeId num_canonical_chunks(NodeId n);

/// Half-open node range of canonical chunk `chunk_id`.
struct ChunkRange {
  NodeId begin = 0;
  NodeId end = 0;
};
[[nodiscard]] ChunkRange canonical_chunk_range(NodeId n, NodeId chunk_id);

struct ChunkedParams;

/// Seed-keyed pseudorandom permutation of [0, domain): a balanced Feistel
/// network over the enclosing power-of-two domain with cycle-walking back
/// into [0, domain). Stateless and O(1) per evaluation in both directions —
/// the primitive that lets the configuration-model pairing be computed
/// slot-by-slot instead of via a global shuffle. Deterministic and
/// platform-independent (pure 64-bit integer mixing).
class StubPermutation {
 public:
  /// domain must be >= 2.
  StubPermutation(std::uint64_t seed, std::uint64_t domain);

  [[nodiscard]] std::uint64_t domain() const { return domain_; }

  /// The image of x (x < domain()).
  [[nodiscard]] std::uint64_t forward(std::uint64_t x) const;

  /// The preimage of y (y < domain()): inverse(forward(x)) == x.
  [[nodiscard]] std::uint64_t inverse(std::uint64_t y) const;

 private:
  /// inverse() without the domain check, for the configuration model's
  /// fill loop, whose positions are in range by construction.
  [[nodiscard]] std::uint64_t walk_inverse(std::uint64_t y) const;
  friend Graph chunked_configuration_model(
      const ChunkedParams& params, std::span<const NodeId> chunk_order);

  [[nodiscard]] std::uint64_t encrypt_once(std::uint64_t x) const;
  [[nodiscard]] std::uint64_t decrypt_once(std::uint64_t y) const;

  static constexpr int kRounds = 8;
  std::uint64_t domain_ = 0;
  int half_bits_ = 0;            ///< width of each Feistel half
  std::uint64_t half_mask_ = 0;  ///< (1 << half_bits_) - 1
  std::array<std::uint64_t, kRounds> keys_{};
};

/// Parameters of a chunked generation run. `n`, `d` and `seed` are the
/// output's identity; `chunks` and `memory_budget_bytes` are execution
/// policy and change no byte of the result.
struct ChunkedParams {
  NodeId n = 0;  ///< nodes
  NodeId d = 0;  ///< configuration-model degree / out-links per node
  std::uint64_t seed = 0;

  /// Execution batches the canonical chunks are grouped into; 0 = one batch
  /// per canonical chunk, 1 = one batch run inline on the calling thread.
  /// Batches run concurrently on min(batches, automatic thread count)
  /// workers. Scheduling only — never semantics.
  int chunks = 0;

  /// Refuse (RRB_REQUIRE) to generate when the estimated peak exceeds this
  /// many bytes; 0 disables the check.
  std::uint64_t memory_budget_bytes = 0;
};

/// Estimated peak bytes of chunked_configuration_model(n, d): one CSR of
/// n·d adjacency entries. Guards 64-bit products (throws on NodeId-range
/// overflow).
[[nodiscard]] std::uint64_t estimate_configuration_model_bytes(NodeId n,
                                                               NodeId d);

/// Estimated peak bytes of chunked_random_out(n, d): one CSR of 2·n·d
/// adjacency entries.
[[nodiscard]] std::uint64_t estimate_random_out_bytes(NodeId n, NodeId d);

/// Random d-regular multigraph from the configuration model (§1.2 of the
/// paper): the n·d stubs are paired by a seed-keyed pseudorandom
/// permutation (adjacent positions in the permuted order are partners).
/// Exactly the multigraph semantics of configuration_model() — self-loops
/// and parallel edges kept, degree(v) == d for every v — with a different
/// (stateless) randomness source. Requires n >= 2, d >= 1, n·d even.
/// Output is a plain rrb::Graph: GraphTopology, with_scheme() and every
/// broadcast scheme run on it unchanged.
[[nodiscard]] Graph chunked_configuration_model(const ChunkedParams& params);

/// As above, processing the canonical chunks in the given execution order
/// (a permutation of [0, num_canonical_chunks(n))). Output is byte-
/// identical for every order — exposed so tests can pin that.
[[nodiscard]] Graph chunked_configuration_model(
    const ChunkedParams& params, std::span<const NodeId> chunk_order);

/// Random "d-out" overlay graph: every node draws d out-partners (uniform
/// over the other n-1 nodes; repeats allowed, self excluded) from its
/// canonical chunk's Rng(chunk_seed(seed, c)) stream, and the undirected
/// union of all out-links is returned (degree(v) = d + in-degree(v)).
/// This is the generator that genuinely exercises the two-pass CSR build:
/// degrees are irregular, so a count pass over the chunk streams sizes the
/// buckets and a replay pass fills them in place. Requires n >= 2, d >= 1,
/// d < n.
[[nodiscard]] Graph chunked_random_out(const ChunkedParams& params);

/// As above with an explicit canonical-chunk execution order; byte-
/// identical output for every order.
[[nodiscard]] Graph chunked_random_out(const ChunkedParams& params,
                                       std::span<const NodeId> chunk_order);

}  // namespace rrb::bigtopo
