#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rrb/common/types.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/metrics/registry.hpp"

/// \file spec.hpp
/// Declarative experiment campaigns: a CampaignSpec names the axes of an
/// experiment grid (scheme, graph family, n, d, alpha, failure, churn, ...)
/// and expands into a deterministic, ordered list of cells. Each cell's
/// randomness is keyed purely on (campaign_seed, cell_key):
///
///   cell.seed = derive_seed(campaign_seed, hash_string(cell.key))
///   trial i of the cell runs on Rng(cell.seed).fork(i)
///
/// — the campaign extension of the library's (seed, trial) contract. Cell
/// keys are canonical strings built from the axis values alone, so a cell
/// keeps its seed (and therefore its exact results) when the grid around it
/// grows, shrinks or is re-ordered, when cells are sharded across
/// processes, and when an interrupted campaign resumes.

namespace rrb::exp {

/// Graph families a campaign can draw per-trial topologies from.
enum class GraphFamily {
  kRegular,      ///< random_regular_simple(n, d)
  kConfigModel,  ///< configuration_model(n, d) — multigraph, the paper's model
  kGnp,          ///< Erdős–Rényi G(n, p) with p = d/(n-1)
  kHypercube,    ///< hypercube on n = 2^dim nodes (d ignored)
  kComplete,     ///< complete graph K_n (d ignored)
  kChunked,      ///< bigtopo::chunked_configuration_model(n, d) — the compact
                 ///< CSR path for n in the 10^6–10^8 regime
  kProductK5,    ///< cartesian product random_regular_simple(n/5, d-4) × K_5
                 ///< (the E10 product-graph construction)
};

/// How one value of the degree axis is computed from a cell's n. Literal
/// values reproduce the plain `d = 3, 8` axis; the derived rules express
/// the density sweeps of the FHP "density does not matter" prediction
/// (d = log n, 2 log n, √n) without pinning one n.
enum class DegreeRule {
  kLiteral,   ///< the stored value itself
  kLog2N,     ///< ceil(log2 n)         — spec spelling `log2n`
  kTwoLog2N,  ///< 2 * ceil(log2 n)     — spec spelling `2log2n`
  kSqrtN,     ///< floor(sqrt(n))       — spec spelling `sqrtn`
};

/// One entry of a rule-based degree axis: a rule plus its literal value
/// (meaningful only for kLiteral).
struct DegreeSpec {
  DegreeRule rule = DegreeRule::kLiteral;
  NodeId value = 0;

  friend bool operator==(const DegreeSpec&, const DegreeSpec&) = default;
};

/// Stable family name, used in cell keys and spec files.
[[nodiscard]] const char* graph_family_name(GraphFamily family);

/// Inverse of graph_family_name; nullopt if unknown.
[[nodiscard]] std::optional<GraphFamily> parse_graph_family(
    std::string_view name);

/// The declarative description of one experiment campaign. Everything here
/// is cell *identity*: two specs with the same values produce byte-identical
/// artifacts on any machine, thread count, or shard split.
struct CampaignSpec {
  std::string name = "campaign";

  /// Master seed; every cell seed derives from (seed, cell_key).
  std::uint64_t seed = 0xca3b416e;

  /// Independent trials per cell (trial i streams from fork(i)).
  int trials = 5;

  /// Draw a fresh uniform source per trial (true) or broadcast from node 0.
  bool random_source = true;

  /// Safety cap on rounds per run.
  Round max_rounds = 1 << 20;

  GraphFamily graph = GraphFamily::kRegular;

  // ---- Axes. The grid is the cartesian product, expanded outer-to-inner
  // in the order the fields are declared; within an axis, cells follow the
  // listed value order.
  std::vector<BroadcastScheme> schemes{BroadcastScheme::kFourChoice};
  std::vector<bool> quasirandom{false};
  std::vector<NodeId> n_values{1U << 10};
  std::vector<NodeId> d_values{8};
  std::vector<double> alphas{1.5};
  std::vector<double> failures{0.0};
  std::vector<double> churn_rates{0.0};

  /// Channels-per-round override axis (the k-choice ablation, E9): value k
  /// > 0 overrides the scheme's canonical ChannelConfig::num_choices; 0 —
  /// the default — keeps it, adds no key part and changes no fingerprint.
  std::vector<int> choices{0};

  /// Memory-window override axis (the E15 sequentialised comparison): value
  /// m >= 0 overrides the scheme's canonical BroadcastOptions::memory (0 =
  /// memoryless); -1 — the default — keeps the scheme canonical, adds no
  /// key part and changes no fingerprint. Spec key `memory`.
  std::vector<int> memory_values{-1};

  /// Rule-based degree axis (spec line `d = 3, log2n, 2log2n, sqrtn`):
  /// when non-empty it supersedes d_values, resolving each rule against
  /// the cell's n at expansion. Empty (the default) keeps the literal
  /// d_values axis and existing fingerprints.
  std::vector<DegreeSpec> d_rules;

  /// Derive each cell's degree from its n as d = 2·ceil(log2 n) (the E2 /
  /// Theorem 3 large-degree regime) instead of taking the d axis. Spec
  /// syntax: `d = 2log2n`. Default off, so plain specs keep their
  /// fingerprints.
  bool derived_d = false;

  // ---- Overlay parameters. Cells with churn > 0 always run on a
  // DynamicOverlay (`joins = leaves = churn` expected events per round);
  // `overlay = true` forces the overlay path for churn-0 cells too, so a
  // churn sweep's baseline row is measured on the same substrate.
  bool overlay = false;         ///< run every cell on the dynamic overlay
  int churn_switches = 2;       ///< maintenance 2-switches per round
  double churn_headroom = 0.5;  ///< overlay slot capacity = n * (1 + this)

  /// Execution batches for the chunked family (bigtopo::ChunkedParams::
  /// chunks; 0 = one batch per canonical chunk, 1 = one batch run inline).
  /// Batches run concurrently on min(batches, automatic thread count)
  /// workers inside the campaign worker that builds the graph. Scheduling,
  /// never semantics: not part of cell keys, describe() or the
  /// fingerprint — the generated graphs are byte-identical for every value.
  int chunks = 0;

  // ---- Metrics. Registry metrics (rrb/metrics/registry.hpp) collected
  // per trial via the observer pipeline and emitted as extra
  // `<prefix>_*_mean` columns in every cell record (spec line
  // `metrics = tx-histogram, latency`; `metrics = none` clears).
  //
  // Metrics are NOT a grid axis: observers are read-only and draw no
  // randomness, so enabling them changes no cell key, no cell seed and no
  // existing column — records just grow columns. They DO enter the spec
  // fingerprint (a metric-less manifest lacks the columns, so resuming
  // across a metrics change is refused); see also the record-schema
  // version folded into spec_fingerprint(), which guards column changes
  // that are not spec-visible at all.
  std::vector<MetricKind> metrics;
};

/// One expanded grid point.
struct CampaignCell {
  std::size_t index = 0;  ///< position in expansion order, 0-based
  BroadcastScheme scheme = BroadcastScheme::kFourChoice;
  bool quasirandom = false;
  GraphFamily graph = GraphFamily::kRegular;
  NodeId n = 0;
  NodeId d = 0;
  double alpha = 1.5;
  double failure = 0.0;
  double churn = 0.0;
  int choices = 0;         ///< num_choices override; 0 = scheme canonical
  int memory = -1;         ///< memory override; -1 = scheme canonical
  bool overlay = false;    ///< runs on the dynamic overlay (churn > 0 or
                           ///< spec.overlay)
  std::string key;         ///< canonical cell key (see cell_key)
  std::uint64_t seed = 0;  ///< derive_seed(campaign_seed, hash_string(key))
};

/// Canonical cell key: `scheme=<s>;qr=<0|1>;graph=<g>;n=<n>;d=<d>;
/// alpha=<a>;failure=<f>;churn=<c>`, with
/// `;overlay=1;switches=<k>;headroom=<h>` appended for overlay cells,
/// `;choices=<k>` appended when the cell overrides num_choices and
/// `;memory=<m>` when it overrides the memory window — optional
/// parts only appear when non-default, so existing keys (and their seeds)
/// never move when the spec grammar grows.
/// Doubles render via format_double, so the key is platform-independent.
/// Golden-pinned in tests/test_campaign.cpp.
[[nodiscard]] std::string cell_key(const CampaignCell& cell,
                                   const CampaignSpec& spec);

/// The seed for a cell key under `campaign_seed` — the campaign extension
/// of the seeding contract. Golden-pinned in tests/test_campaign.cpp.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t campaign_seed,
                                      std::string_view key);

/// Expand the spec's grid into cells, in deterministic order, with keys and
/// seeds filled in. Throws std::runtime_error on invalid specs (empty axes,
/// trials < 1, churn on a non-regular family, hypercube n not a power of
/// two, ...).
[[nodiscard]] std::vector<CampaignCell> expand_cells(const CampaignSpec& spec);

/// Canonical `key = value` listing of every spec field (the format
/// parse_spec reads). Feeds campaign.json and the fingerprint.
[[nodiscard]] std::string describe(const CampaignSpec& spec);

/// Stable hash of the spec's identity (hash_string over describe()). The
/// campaign manifest records it so a resume against a *different* spec is
/// refused instead of silently mixing incompatible cells.
[[nodiscard]] std::uint64_t spec_fingerprint(const CampaignSpec& spec);

/// Strict unsigned integer: decimal, 0x-hex, or a 2^k power shorthand,
/// surrounding blanks trimmed. Throws std::runtime_error on anything else
/// (a sign, trailing characters, overflow). The spec loader's number rule,
/// shared with the CLIs' numeric flags.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text);

/// Strict locale-independent floating-point number, surrounding blanks
/// trimmed. Throws std::runtime_error on trailing characters.
[[nodiscard]] double parse_double(std::string_view text);

/// Apply one `key = value` setting (also the --set flag of rrb_campaign).
/// List-valued keys take comma-separated values; integers accept 0x-hex
/// and a 2^k power shorthand. Throws std::runtime_error on unknown keys or
/// unparsable values.
void apply_setting(CampaignSpec& spec, std::string_view key,
                   std::string_view value);

/// Parse a spec file: `key = value` lines, '#' comments, blank lines
/// ignored. Throws std::runtime_error with a line number on bad input.
[[nodiscard]] CampaignSpec parse_spec(std::istream& in);

/// Load and parse a spec file from disk; throws std::runtime_error if the
/// file cannot be read.
[[nodiscard]] CampaignSpec load_spec(const std::string& path);

}  // namespace rrb::exp
