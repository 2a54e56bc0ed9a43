#include "rrb/exp/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rrb/common/math.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/journal.hpp"
#include "rrb/exp/report.hpp"
#include "rrb/exp/spec.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/trial.hpp"

/// Campaign subsystem tests: spec parsing/expansion, the cell-key/seed
/// contract (golden-pinned like tests/test_rng.cpp), and the artifact
/// determinism guarantees — byte-identical files for every thread count,
/// across interrupt-and-resume, and across shard splits.

namespace rrb::exp {
namespace {

namespace fs = std::filesystem;

/// The tiny grid most tests run: 2 schemes x 1 n x 1 d x 2 churn = 4 cells
/// (two static, two on the churn overlay), 3 trials each.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.seed = 0x7e57;
  spec.trials = 3;
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kFourChoice};
  spec.n_values = {64};
  spec.d_values = {6};
  spec.churn_rates = {0.0, 2.0};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Fresh artifact directory under the gtest temp root.
std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "rrb_campaign_" + tag;
  fs::remove_all(dir);
  return dir;
}

// ---- Spec parsing ----------------------------------------------------------

TEST(CampaignSpecParse, ParsesKeysListsCommentsAndShorthands) {
  std::istringstream in(
      "# a comment\n"
      "name = demo   # trailing comment\n"
      "seed = 0xbeef\n"
      "trials = 7\n"
      "source = fixed\n"
      "graph = gnp\n"
      "scheme = push, median, four-choice/sequentialised\n"
      "n = 2^10, 2048\n"
      "d = 8\n"
      "\n"
      "alpha = 1.5, 2\n"
      "failure = 0.0, 0.1\n"
      "churn = 0\n");
  const CampaignSpec spec = parse_spec(in);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 0xbeefU);
  EXPECT_EQ(spec.trials, 7);
  EXPECT_FALSE(spec.random_source);
  EXPECT_EQ(spec.graph, GraphFamily::kGnp);
  ASSERT_EQ(spec.schemes.size(), 3U);
  EXPECT_EQ(spec.schemes[0], BroadcastScheme::kPush);
  EXPECT_EQ(spec.schemes[1], BroadcastScheme::kMedianCounter);  // alias
  EXPECT_EQ(spec.schemes[2], BroadcastScheme::kSequentialised);
  EXPECT_EQ(spec.n_values, (std::vector<NodeId>{1024, 2048}));
  EXPECT_EQ(spec.alphas, (std::vector<double>{1.5, 2.0}));
  EXPECT_EQ(spec.failures, (std::vector<double>{0.0, 0.1}));
}

TEST(CampaignSpecParse, RejectsBadInputWithLineNumbers) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_spec(in);
  };
  EXPECT_THROW((void)parse("bogus_key = 1\n"), std::runtime_error);
  EXPECT_THROW((void)parse("scheme = warp-speed\n"), std::runtime_error);
  EXPECT_THROW((void)parse("n = 1\n"), std::runtime_error);   // n >= 2
  EXPECT_THROW((void)parse("trials = 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW((void)parse("n = 2^70\n"), std::runtime_error);
  try {
    (void)parse("trials = 3\nbad = 1\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpecParse, ParseSchemeCoversTheWholeTable) {
  for (const BroadcastScheme scheme : kAllSchemes)
    EXPECT_EQ(parse_scheme(scheme_name(scheme)), scheme);
  EXPECT_FALSE(parse_scheme("warp-speed").has_value());
}

// ---- Expansion, keys, seeds ------------------------------------------------

TEST(CampaignExpand, OrderIsSchemeMajorThenAxes) {
  const CampaignSpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4U);
  EXPECT_EQ(cells[0].scheme, BroadcastScheme::kPush);
  EXPECT_EQ(cells[0].churn, 0.0);
  EXPECT_EQ(cells[1].scheme, BroadcastScheme::kPush);
  EXPECT_EQ(cells[1].churn, 2.0);
  EXPECT_EQ(cells[2].scheme, BroadcastScheme::kFourChoice);
  EXPECT_EQ(cells[3].scheme, BroadcastScheme::kFourChoice);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].overlay, cells[i].churn > 0.0);
  }
}

TEST(CampaignExpand, CellKeysAreCanonicalGoldenStrings) {
  CampaignSpec spec;
  spec.seed = 0x5110ce;
  spec.schemes = {BroadcastScheme::kPush};
  spec.n_values = {256};
  spec.d_values = {8};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_EQ(cells[0].key,
            "scheme=push;qr=0;graph=regular;n=256;d=8;alpha=1.5;"
            "failure=0;churn=0");

  CampaignSpec overlay_spec;
  overlay_spec.seed = 0xed;
  overlay_spec.overlay = true;
  overlay_spec.churn_rates = {0.0, 4.0};
  const auto overlay_cells = expand_cells(overlay_spec);
  ASSERT_EQ(overlay_cells.size(), 2U);
  EXPECT_EQ(overlay_cells[0].key,
            "scheme=four-choice;qr=0;graph=regular;n=1024;d=8;alpha=1.5;"
            "failure=0;churn=0;overlay=1;switches=2;headroom=0.5");
  EXPECT_EQ(overlay_cells[1].key,
            "scheme=four-choice;qr=0;graph=regular;n=1024;d=8;alpha=1.5;"
            "failure=0;churn=4;overlay=1;switches=2;headroom=0.5");
}

// Golden cell seeds, pinned the way tests/test_rng.cpp pins derive_seed:
// recorded campaigns depend on these values never changing.
TEST(CampaignExpand, CellSeedsAreGoldenPinned) {
  EXPECT_EQ(cell_seed(0x5110ce,
                      "scheme=push;qr=0;graph=regular;n=256;d=8;alpha=1.5;"
                      "failure=0;churn=0"),
            0xfd5e63c200d95515ULL);
  EXPECT_EQ(cell_seed(1, "a"), 0x9d8ad65aa99afc63ULL);

  CampaignSpec overlay_spec;
  overlay_spec.seed = 0xed;
  overlay_spec.overlay = true;
  overlay_spec.churn_rates = {0.0, 4.0};
  const auto cells = expand_cells(overlay_spec);
  ASSERT_EQ(cells.size(), 2U);
  EXPECT_EQ(cells[0].seed, 0x9af00df3521e90f1ULL);
  EXPECT_EQ(cells[1].seed, 0xd4b6e5d6737db493ULL);
}

TEST(CampaignExpand, SeedDependsOnlyOnCampaignSeedAndKey) {
  // Growing the grid around a cell must not move its seed.
  CampaignSpec small = tiny_spec();
  CampaignSpec big = tiny_spec();
  big.n_values = {64, 128};
  big.schemes.push_back(BroadcastScheme::kPull);
  const auto small_cells = expand_cells(small);
  const auto big_cells = expand_cells(big);
  for (const CampaignCell& cell : small_cells) {
    bool found = false;
    for (const CampaignCell& other : big_cells)
      if (other.key == cell.key) {
        EXPECT_EQ(other.seed, cell.seed);
        found = true;
      }
    EXPECT_TRUE(found) << cell.key;
  }
}

TEST(CampaignExpand, RejectsInvalidCombinations) {
  CampaignSpec churn_on_gnp = tiny_spec();
  churn_on_gnp.graph = GraphFamily::kGnp;
  EXPECT_THROW((void)expand_cells(churn_on_gnp), std::runtime_error);

  CampaignSpec odd_hypercube;
  odd_hypercube.graph = GraphFamily::kHypercube;
  odd_hypercube.n_values = {24};
  EXPECT_THROW((void)expand_cells(odd_hypercube), std::runtime_error);

  CampaignSpec no_axis = tiny_spec();
  no_axis.schemes.clear();
  EXPECT_THROW((void)expand_cells(no_axis), std::runtime_error);

  // NaN axis values must fail validation, not run as a bogus grid point.
  CampaignSpec nan_failure = tiny_spec();
  nan_failure.failures = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)expand_cells(nan_failure), std::runtime_error);
  CampaignSpec nan_churn = tiny_spec();
  nan_churn.churn_rates = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)expand_cells(nan_churn), std::runtime_error);

  // Quasirandom crossed with the sequentialised scheme's memory window is
  // rejected at expansion, not mid-campaign at engine construction.
  CampaignSpec qr_seq = tiny_spec();
  qr_seq.schemes = {BroadcastScheme::kSequentialised};
  qr_seq.quasirandom = {false, true};
  EXPECT_THROW((void)expand_cells(qr_seq), std::runtime_error);
}

TEST(CampaignExpand, ChannelOverridesFailAtLoadWithTheEnginesCheck) {
  // choices = 65 overflows the engines' 64-entry choice buffers. The spec
  // must fail when its cells expand — before a runner writes a single
  // artifact — with the engines' own message, not when the cell runs.
  const auto spec_with_choices = [](int choices) {
    std::istringstream in("name = choices\n"
                          "scheme = push\n"
                          "n = 128\n"
                          "d = 8\n"
                          "trials = 1\n"
                          "choices = " +
                          std::to_string(choices) + "\n");
    return parse_spec(in);
  };
  const CampaignSpec too_many = spec_with_choices(65);
  try {
    (void)expand_cells(too_many);
    FAIL() << "choices = 65 expanded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("choices capped at 64"),
              std::string::npos)
        << e.what();
  }
  CampaignConfig config;
  config.out_dir = temp_dir("choices65");
  EXPECT_THROW((void)CampaignRunner(too_many, config), std::runtime_error);
  EXPECT_FALSE(fs::exists(config.out_dir + "/manifest.jsonl"));

  const CampaignSpec at_cap = spec_with_choices(64);
  const auto cells = expand_cells(at_cap);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_EQ(cells[0].choices, 64);
  RunnerConfig one;
  one.threads = 1;
  EXPECT_EQ(
      CampaignRunner::run_cell(at_cap, cells[0], one).find_number(
          "completion_rate"),
      1.0);
}

TEST(CampaignExpand, FamiliesThatDeriveDegreeNormaliseTheDAxis) {
  // hypercube/complete ignore d: a multi-valued d axis would duplicate
  // identical experiments under different seeds, so it is rejected, and
  // the single allowed value is normalised to the derived degree so cell
  // keys are honest about the topology.
  CampaignSpec spec;
  spec.graph = GraphFamily::kHypercube;
  spec.n_values = {256};
  spec.d_values = {8, 12};
  EXPECT_THROW((void)expand_cells(spec), std::runtime_error);

  spec.d_values = {3};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_EQ(cells[0].d, 8U);  // dim of the 256-node hypercube

  CampaignSpec complete_spec;
  complete_spec.graph = GraphFamily::kComplete;
  complete_spec.n_values = {32};
  const auto complete_cells = expand_cells(complete_spec);
  ASSERT_EQ(complete_cells.size(), 1U);
  EXPECT_EQ(complete_cells[0].d, 31U);
}

// ---- bigtopo-era axes: chunked family, degree rules, memory axis -----------

TEST(CampaignExpand, ChunkedAndProductFamiliesRoundTrip) {
  EXPECT_EQ(parse_graph_family("chunked"), GraphFamily::kChunked);
  EXPECT_EQ(parse_graph_family("regular-x-k5"), GraphFamily::kProductK5);
  EXPECT_STREQ(graph_family_name(GraphFamily::kChunked), "chunked");
  EXPECT_STREQ(graph_family_name(GraphFamily::kProductK5), "regular-x-k5");

  std::istringstream in(
      "name = big\n"
      "graph = chunked\n"
      "scheme = push\n"
      "n = 2^20\n"
      "d = 3, log2n, sqrtn\n"
      "chunks = 7\n");
  const CampaignSpec spec = parse_spec(in);
  EXPECT_EQ(spec.graph, GraphFamily::kChunked);
  EXPECT_EQ(spec.chunks, 7);
  ASSERT_EQ(spec.d_rules.size(), 3U);
  EXPECT_EQ(spec.d_rules[0], (DegreeSpec{DegreeRule::kLiteral, 3}));
  EXPECT_EQ(spec.d_rules[1], (DegreeSpec{DegreeRule::kLog2N, 0}));
  EXPECT_EQ(spec.d_rules[2], (DegreeSpec{DegreeRule::kSqrtN, 0}));

  // describe() spells the rules back, so the round-trip is byte-stable —
  // but deliberately omits `chunks` (scheduling, never semantics).
  const std::string described = describe(spec);
  EXPECT_NE(described.find("d = 3, log2n, sqrtn"), std::string::npos);
  EXPECT_EQ(described.find("chunks"), std::string::npos);
  std::istringstream again(described);
  EXPECT_EQ(spec_fingerprint(parse_spec(again)), spec_fingerprint(spec));
}

TEST(CampaignExpand, ChunksNeverMoveTheFingerprintOrKeys) {
  CampaignSpec a = tiny_spec();
  CampaignSpec b = tiny_spec();
  b.chunks = 64;
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
  const auto cells_a = expand_cells(a);
  const auto cells_b = expand_cells(b);
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (std::size_t i = 0; i < cells_a.size(); ++i) {
    EXPECT_EQ(cells_a[i].key, cells_b[i].key);
    EXPECT_EQ(cells_a[i].seed, cells_b[i].seed);
  }
}

TEST(CampaignExpand, DegreeRulesResolvePerN) {
  CampaignSpec spec;
  spec.graph = GraphFamily::kChunked;
  spec.schemes = {BroadcastScheme::kPush};
  spec.n_values = {1 << 16};
  spec.d_rules = {{DegreeRule::kLiteral, 3},
                  {DegreeRule::kLog2N, 0},
                  {DegreeRule::kTwoLog2N, 0},
                  {DegreeRule::kSqrtN, 0}};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4U);
  EXPECT_EQ(cells[0].d, 3U);
  EXPECT_EQ(cells[1].d, 16U);   // ceil(log2 2^16)
  EXPECT_EQ(cells[2].d, 32U);
  EXPECT_EQ(cells[3].d, 256U);  // floor(sqrt 2^16)
  // The key carries the resolved degree, not the rule spelling.
  EXPECT_NE(cells[3].key.find(";n=65536;d=256;"), std::string::npos)
      << cells[3].key;

  // Two rules colliding at some n would put two cells under one key.
  CampaignSpec dup = spec;
  dup.n_values = {16};  // log2n and sqrtn both resolve to 4
  dup.d_rules = {{DegreeRule::kLog2N, 0}, {DegreeRule::kSqrtN, 0}};
  EXPECT_THROW((void)expand_cells(dup), std::runtime_error);
}

TEST(CampaignExpand, MemoryAxisExtendsKeysOnlyWhenPresent) {
  CampaignSpec spec = tiny_spec();
  spec.churn_rates = {0.0};
  spec.schemes = {BroadcastScheme::kSequentialised};
  spec.memory_values = {3, 0};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 2U);
  EXPECT_NE(cells[0].key.find(";memory=3"), std::string::npos)
      << cells[0].key;
  EXPECT_NE(cells[1].key.find(";memory=0"), std::string::npos)
      << cells[1].key;
  EXPECT_EQ(cells[0].memory, 3);
  EXPECT_EQ(cells[1].memory, 0);

  // The default axis {-1} keeps pre-memory-axis keys and describe() bytes,
  // so recorded campaigns keep their fingerprints.
  const auto plain = expand_cells(tiny_spec());
  for (const CampaignCell& cell : plain)
    EXPECT_EQ(cell.key.find("memory"), std::string::npos) << cell.key;
  EXPECT_EQ(describe(tiny_spec()).find("memory"), std::string::npos);

  // A non-default axis describes as spelled tokens and parses back.
  CampaignSpec mixed = tiny_spec();
  mixed.memory_values = {-1, 3};
  const std::string described = describe(mixed);
  EXPECT_NE(described.find("memory = default, 3"), std::string::npos)
      << described;
  std::istringstream in(described);
  EXPECT_EQ(parse_spec(in).memory_values, (std::vector<int>{-1, 3}));
}

TEST(CampaignExpand, NewFamiliesValidateTheirConstraints) {
  CampaignSpec odd_chunked;
  odd_chunked.graph = GraphFamily::kChunked;
  odd_chunked.n_values = {15};
  odd_chunked.d_values = {3};  // n*d odd: no stub pairing exists
  EXPECT_THROW((void)expand_cells(odd_chunked), std::runtime_error);

  CampaignSpec not_div5;
  not_div5.graph = GraphFamily::kProductK5;
  not_div5.n_values = {64};
  not_div5.d_values = {10};
  EXPECT_THROW((void)expand_cells(not_div5), std::runtime_error);

  CampaignSpec small_d;
  small_d.graph = GraphFamily::kProductK5;
  small_d.n_values = {40};
  small_d.d_values = {4};  // K_5 fibre alone contributes degree 4
  EXPECT_THROW((void)expand_cells(small_d), std::runtime_error);

  CampaignSpec ok;
  ok.graph = GraphFamily::kProductK5;
  ok.n_values = {40960};
  ok.d_values = {10};
  EXPECT_EQ(expand_cells(ok).size(), 1U);
}

// ---- run_cell: the execution paths are the library's own -------------------

TEST(CampaignRunCell, StaticCellMatchesDirectRunTrials) {
  // Static cells dispatch each scheme statically on every trial's own
  // graph; the reference is the type-erased adapter (make_scheme per trial
  // graph) through run_trials. On gnp the min and mean degree vary per
  // trial, so a protocol keyed on the cell's nominal degree would diverge
  // for the degree-keyed schemes (throttled, four-choice, fixed horizon).
  for (const GraphFamily family : {GraphFamily::kRegular, GraphFamily::kGnp}) {
    CampaignSpec spec;
    spec.seed = 0x57a71c;
    spec.trials = 3;
    spec.max_rounds = 300;  // push/pull never finish past an isolated node
    spec.graph = family;
    spec.schemes.assign(kAllSchemes.begin(), kAllSchemes.end());
    spec.n_values = {128};
    spec.d_values = {6};
    for (const CampaignCell& cell : expand_cells(spec)) {
      SCOPED_TRACE(cell.key);
      const JsonObject record = CampaignRunner::run_cell(spec, cell, {});

      BroadcastOptions options;
      options.scheme = cell.scheme;
      options.n_estimate = cell.n;
      options.alpha = cell.alpha;
      TrialConfig config;
      config.trials = spec.trials;
      config.seed = cell.seed;
      config.limits.max_rounds = spec.max_rounds;
      config.channel = with_scheme(
          SchemeShape{cell.n, cell.d, 0.0}, options,
          [](auto, const ChannelConfig& channel) { return channel; });
      const NodeId n = cell.n;
      const NodeId d = cell.d;
      const TrialOutcome direct = run_trials(
          [family, n, d](Rng& rng) {
            return family == GraphFamily::kRegular
                       ? random_regular_simple(n, d, rng)
                       : gnp(n, static_cast<double>(d) / (n - 1), rng);
          },
          [&options](const Graph& graph) {
            return make_scheme(graph, options).protocol;
          },
          config);

      const std::pair<const char*, double> columns[] = {
          {"rounds_mean", direct.rounds.mean},
          {"rounds_min", direct.rounds.min},
          {"rounds_max", direct.rounds.max},
          {"completion_mean", direct.completion_round.mean},
          {"completion_rate", direct.completion_rate},
          {"coverage_mean", direct.coverage.mean},
          {"tx_per_node_mean", direct.tx_per_node.mean},
          {"tx_per_node_max", direct.tx_per_node.max},
          {"total_tx_mean", direct.total_tx.mean},
          {"push_tx_mean", direct.push_tx.mean},
          {"pull_tx_mean", direct.pull_tx.mean},
      };
      for (const auto& [column, expected] : columns)
        EXPECT_EQ(record.find_number(column), expected) << column;
    }
  }
}

TEST(CampaignRunCell, RecordIsIdenticalForAnyTrialRunnerConfig) {
  const CampaignSpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  for (const CampaignCell& cell : cells) {  // covers static + churn paths
    RunnerConfig one;
    one.threads = 1;
    RunnerConfig eight;
    eight.threads = 8;
    RunnerConfig two;
    two.threads = 2;
    const std::string baseline =
        CampaignRunner::run_cell(spec, cell, one).to_line();
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, eight).to_line(), baseline)
        << cell.key;
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, two).to_line(), baseline)
        << cell.key;
  }
}

// ---- Artifact determinism --------------------------------------------------

struct ArtifactBytes {
  std::string results_json;
  std::string results_csv;
  std::string meta;
  std::string manifest;
};

ArtifactBytes run_to_dir(const CampaignSpec& spec, const std::string& dir,
                         int threads, const CellProgress& progress = {}) {
  CampaignConfig config;
  config.runner.threads = threads;
  config.out_dir = dir;
  CampaignRunner runner(spec, config);
  const CampaignOutcome outcome = runner.run(progress);
  ArtifactBytes bytes;
  bytes.results_json = read_file(outcome.results_json_path);
  bytes.results_csv = read_file(outcome.results_csv_path);
  bytes.meta = read_file(outcome.meta_path);
  bytes.manifest = read_file(outcome.manifest_path);
  return bytes;
}

/// Rewrite dir's manifest as `manifest` minus every other record line
/// (the header stays), so a resume reuses cells 0, 2, ... and recomputes
/// the rest.
void halve_manifest(const std::string& dir, const std::string& manifest) {
  std::istringstream in(manifest);
  std::ofstream rewrite(dir + "/manifest.jsonl", std::ios::trunc);
  std::string line;
  int record_index = 0;
  while (std::getline(in, line)) {
    const bool header = line.find("\"fingerprint\"") != std::string::npos;
    if (header || record_index++ % 2 == 0) rewrite << line << "\n";
  }
}

TEST(CampaignDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  // Every schedule of the one (cell, trial) queue — one worker, several,
  // an odd count, and more workers than a cell has trials — commits cells
  // in cell order, so even the manifest's line order is
  // schedule-independent.
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes t1 = run_to_dir(spec, temp_dir("t1"), 1);
  const std::vector<std::pair<std::string, ArtifactBytes>> schedules = {
      {"t2", run_to_dir(spec, temp_dir("t2"), 2)},
      {"t8", run_to_dir(spec, temp_dir("t8"), 8)},
      {"t3", run_to_dir(spec, temp_dir("t3"), 3)},
  };
  for (const auto& [name, bytes] : schedules) {
    SCOPED_TRACE(name);
    EXPECT_EQ(bytes.results_json, t1.results_json);
    EXPECT_EQ(bytes.results_csv, t1.results_csv);
    EXPECT_EQ(bytes.meta, t1.meta);
    EXPECT_EQ(bytes.manifest, t1.manifest);
  }
}

TEST(CampaignDeterminism, InterruptedRunResumesBitIdentically) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes full = run_to_dir(spec, temp_dir("full"), 2);

  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Simulate an interrupt: abort from the progress callback after two
    // freshly computed cells (their journal lines are already flushed).
    const std::string dir = temp_dir("interrupted" + std::to_string(threads));
    int computed = 0;
    EXPECT_THROW(
        (void)run_to_dir(spec, dir, threads,
                         [&computed](const CellResult& cell) {
                           if (!cell.reused && ++computed == 2)
                             throw std::runtime_error("simulated interrupt");
                         }),
        std::runtime_error);
    ASSERT_TRUE(fs::exists(dir + "/manifest.jsonl"));
    EXPECT_FALSE(fs::exists(dir + "/results.jsonl"));

    // Resume: the two journaled cells are reused, the rest recomputed.
    CampaignConfig config;
    config.runner.threads = threads;
    config.out_dir = dir;
    CampaignRunner runner(spec, config);
    const CampaignOutcome outcome = runner.run();
    EXPECT_EQ(outcome.reused, 2U);
    EXPECT_EQ(outcome.computed, 2U);
    EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
    EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
    EXPECT_EQ(read_file(outcome.meta_path), full.meta);
    EXPECT_EQ(read_file(outcome.manifest_path), full.manifest);
  }
}

TEST(CampaignDeterminism, ProgressSeesCellsInCellOrder) {
  // At threads 8 the queue overlaps all four cells, yet progress arrives
  // strictly in cell order — on a fresh run, and on a resume where the
  // reused cells (every other one) take their place between computed ones.
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("progress_order");
  std::vector<std::size_t> seen;
  const auto record_order = [&seen](const CellResult& cell) {
    seen.push_back(cell.cell.index);
  };
  const ArtifactBytes full = run_to_dir(spec, dir, 8, record_order);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));

  halve_manifest(dir, full.manifest);

  seen.clear();
  std::vector<bool> reused;
  CampaignConfig config;
  config.runner.threads = 8;
  config.out_dir = dir;
  const CampaignOutcome outcome =
      CampaignRunner(spec, config).run([&](const CellResult& cell) {
        seen.push_back(cell.cell.index);
        reused.push_back(cell.reused);
      });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(reused, (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
}

TEST(CampaignDeterminism, RunRecordsEqualRunCellAtOneThread) {
  // The queue and run_cell are one executor; over static and churn cells,
  // with and without selected metrics, run()'s records at threads 8 equal
  // each cell computed alone at threads 1.
  CampaignSpec with_metrics = tiny_spec();
  with_metrics.metrics = {MetricKind::kTxHistogram,
                          MetricKind::kInformedLatency};
  for (const CampaignSpec& spec : {tiny_spec(), with_metrics}) {
    CampaignConfig config;
    config.runner.threads = 8;
    const CampaignOutcome outcome = CampaignRunner(spec, config).run();
    ASSERT_EQ(outcome.cells.size(), 4U);
    RunnerConfig one;
    one.threads = 1;
    for (const CellResult& cell : outcome.cells)
      EXPECT_EQ(cell.record.to_line(),
                CampaignRunner::run_cell(spec, cell.cell, one).to_line())
          << cell.cell.key;
  }
}

TEST(CampaignDeterminism, DeletingManifestLinesReproducesTheExactFiles) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("halved");
  const ArtifactBytes full = run_to_dir(spec, dir, 2);

  halve_manifest(dir, full.manifest);

  CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.reused, 2U);
  EXPECT_EQ(outcome.computed, 2U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
  EXPECT_EQ(sorted_lines(read_file(outcome.manifest_path)),
            sorted_lines(full.manifest));
}

TEST(CampaignDeterminism, ShardManifestsMergeWithoutRecomputation) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes full = run_to_dir(spec, temp_dir("unsharded"), 2);

  std::string merged_manifest;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string dir = temp_dir("shard" + std::to_string(shard));
    CampaignConfig config;
    config.runner.threads = 2;
    config.shard_index = shard;
    config.shard_count = 2;
    config.out_dir = dir;
    const CampaignOutcome outcome = CampaignRunner(spec, config).run();
    EXPECT_EQ(outcome.cells.size(), 2U);
    merged_manifest += read_file(outcome.manifest_path);
  }

  const std::string merged_dir = temp_dir("merged");
  fs::create_directories(merged_dir);
  std::ofstream(merged_dir + "/manifest.jsonl") << merged_manifest;
  CampaignConfig config;
  config.out_dir = merged_dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.computed, 0U);
  EXPECT_EQ(outcome.reused, 4U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
}

TEST(CampaignDeterminism, ShardRunOverFullDirectoryKeepsAllResults) {
  // Re-running a single shard in a directory that already holds the whole
  // campaign must not truncate the final artifacts to the shard subset:
  // the rewrite covers every cell with a journal record available.
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("shard_over_full");
  const ArtifactBytes full = run_to_dir(spec, dir, 2);

  CampaignConfig config;
  config.shard_index = 0;
  config.shard_count = 2;
  config.out_dir = dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.cells.size(), 2U);
  EXPECT_EQ(outcome.computed, 0U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
  EXPECT_EQ(read_file(outcome.meta_path), full.meta);
}

TEST(CampaignDeterminism, RefusesToResumeAcrossSpecChanges) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("fingerprint");
  (void)run_to_dir(spec, dir, 1);

  CampaignSpec changed = spec;
  changed.trials = 4;  // trials change the records, so resume must refuse
  CampaignConfig config;
  config.out_dir = dir;
  EXPECT_THROW((void)CampaignRunner(changed, config).run(),
               std::runtime_error);
}

TEST(CampaignDeterminism, RefusesHeaderlessManifestWithRecords) {
  // Records that cannot be attributed to a spec (no fingerprint header)
  // must not be reused — a header-stripped manifest could belong to a
  // spec whose differences (e.g. trials) the cell key does not encode.
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("headerless");
  const ArtifactBytes full = run_to_dir(spec, dir, 1);

  std::istringstream manifest(full.manifest);
  std::ofstream rewrite(dir + "/manifest.jsonl", std::ios::trunc);
  std::string line;
  while (std::getline(manifest, line))
    if (line.find("\"fingerprint\"") == std::string::npos)
      rewrite << line << "\n";
  rewrite.close();

  CampaignConfig config;
  config.out_dir = dir;
  EXPECT_THROW((void)CampaignRunner(spec, config).run(),
               std::runtime_error);
}

// ---- Metrics axis ----------------------------------------------------------

TEST(CampaignMetrics, SpecParsesValidatesAndFingerprints) {
  CampaignSpec spec = tiny_spec();
  EXPECT_TRUE(spec.metrics.empty());
  const std::uint64_t plain_fingerprint = spec_fingerprint(spec);
  // No metrics line when empty: pre-metrics campaign fingerprints survive.
  EXPECT_EQ(describe(spec).find("metrics"), std::string::npos);

  apply_setting(spec, "metrics", "tx-histogram, latency");
  ASSERT_EQ(spec.metrics.size(), 2U);
  EXPECT_EQ(spec.metrics[0], MetricKind::kTxHistogram);
  EXPECT_EQ(spec.metrics[1], MetricKind::kInformedLatency);
  EXPECT_NE(describe(spec).find("metrics = tx-histogram, latency"),
            std::string::npos);
  // Metric selection changes the record schema, so it must change the
  // fingerprint (resuming a metric-less manifest would emit mixed rows).
  EXPECT_NE(spec_fingerprint(spec), plain_fingerprint);

  apply_setting(spec, "metrics", "none");
  EXPECT_TRUE(spec.metrics.empty());
  EXPECT_EQ(spec_fingerprint(spec), plain_fingerprint);

  EXPECT_THROW(apply_setting(spec, "metrics", "warp-speed"),
               std::runtime_error);
  EXPECT_THROW(apply_setting(spec, "metrics", "latency, latency"),
               std::runtime_error);
}

TEST(CampaignMetrics, ColumnsAppendWithoutChangingBaseValuesOrKeys) {
  // Observers are read-only: switching metrics on must keep every base
  // column byte-identical and only append digest columns — on the static
  // run_trials path and the churn overlay path alike.
  const CampaignSpec plain = tiny_spec();
  CampaignSpec with_metrics = tiny_spec();
  with_metrics.metrics = {MetricKind::kTxHistogram,
                          MetricKind::kInformedLatency};

  const auto plain_cells = expand_cells(plain);
  const auto metric_cells = expand_cells(with_metrics);
  ASSERT_EQ(plain_cells.size(), metric_cells.size());
  for (std::size_t i = 0; i < plain_cells.size(); ++i) {
    EXPECT_EQ(metric_cells[i].key, plain_cells[i].key);
    EXPECT_EQ(metric_cells[i].seed, plain_cells[i].seed);

    const JsonObject base =
        CampaignRunner::run_cell(plain, plain_cells[i], {});
    const JsonObject extended =
        CampaignRunner::run_cell(with_metrics, metric_cells[i], {});
    SCOPED_TRACE(plain_cells[i].key);
    // Every base field survives, in order, with identical rendered bytes.
    ASSERT_GE(extended.fields().size(), base.fields().size());
    for (std::size_t f = 0; f < base.fields().size(); ++f) {
      EXPECT_EQ(extended.fields()[f].key, base.fields()[f].key);
      EXPECT_EQ(extended.fields()[f].json, base.fields()[f].json);
    }
    // And the digest columns arrive for both metrics.
    EXPECT_TRUE(extended.find_number("tx_node_p90_mean").has_value());
    EXPECT_TRUE(extended.find_number("latency_p90_mean").has_value());
    EXPECT_FALSE(base.find_number("tx_node_p90_mean").has_value());
  }
}

TEST(CampaignMetrics, MetricColumnsAreDeterministicAcrossRunnerConfigs) {
  CampaignSpec spec = tiny_spec();
  spec.metrics = {MetricKind::kTxHistogram, MetricKind::kInformedLatency};
  const auto cells = expand_cells(spec);
  for (const CampaignCell& cell : cells) {  // covers static + churn paths
    RunnerConfig one;
    one.threads = 1;
    RunnerConfig eight;
    eight.threads = 8;
    RunnerConfig two;
    two.threads = 2;
    const std::string baseline =
        CampaignRunner::run_cell(spec, cell, one).to_line();
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, eight).to_line(), baseline)
        << cell.key;
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, two).to_line(), baseline)
        << cell.key;
  }
}

// ---- Timing side channel ---------------------------------------------------

TEST(CampaignTiming, SideChannelRecordsComputedCellsOnly) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("timing");
  CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = dir;
  const CampaignOutcome first = CampaignRunner(spec, config).run();
  ASSERT_FALSE(first.timing_path.empty());

  const auto count_lines = [](const std::string& text) {
    std::size_t lines = 0;
    for (const char c : text)
      if (c == '\n') ++lines;
    return lines;
  };
  const std::string after_first = read_file(first.timing_path);
  EXPECT_EQ(count_lines(after_first), 4U);  // one per computed cell
  // Each line parses and names a cell of this campaign, with a wall time.
  std::istringstream lines(after_first);
  std::string line;
  while (std::getline(lines, line)) {
    const auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE(parsed->find_plain("key").has_value());
    EXPECT_TRUE(parsed->find_number("wall_ms").has_value());
    EXPECT_TRUE(parsed->find_number("trials_per_s").has_value());
  }

  // A resume computes nothing, so the side channel grows by nothing — and
  // the deterministic artifacts ignore it entirely.
  const CampaignOutcome resumed = CampaignRunner(spec, config).run();
  EXPECT_EQ(resumed.computed, 0U);
  EXPECT_EQ(count_lines(read_file(resumed.timing_path)), 4U);
}

TEST(CampaignDeterminism, InMemoryRunMatchesPersistedRecords) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes persisted = run_to_dir(spec, temp_dir("disk"), 2);

  CampaignRunner runner(spec, {});  // out_dir empty: no files touched
  const CampaignOutcome outcome = runner.run();
  EXPECT_TRUE(outcome.manifest_path.empty());
  std::string lines;
  for (const CellResult& cell : outcome.cells)
    lines += cell.record.to_line() + "\n";
  EXPECT_EQ(lines, persisted.results_json);
}


// ---- Report lines ------------------------------------------------------------

/// A record carrying the fields the report tests read.
JsonObject report_record() {
  JsonObject record;
  record.set("key", "k").set("n", std::uint64_t{1024}).set("d", 8)
      .set("a", 6.0).set("b", 3.0);
  return record;
}

double report_value(const std::string& text) {
  const std::optional<double> value =
      parse_report(text).front().evaluate(report_record());
  EXPECT_TRUE(value.has_value()) << text;
  return value.value_or(-1.0);
}

TEST(CampaignReport, OperatorsFollowPrecedenceAndAssociativity) {
  EXPECT_EQ(report_value("a + b"), 9.0);
  EXPECT_EQ(report_value("a - b"), 3.0);
  EXPECT_EQ(report_value("a * b"), 18.0);
  EXPECT_EQ(report_value("a / b"), 2.0);
  EXPECT_EQ(report_value("-a"), -6.0);
  EXPECT_EQ(report_value("- -a"), 6.0);
  EXPECT_EQ(report_value("a + b * 2"), 12.0);
  EXPECT_EQ(report_value("(a + b) * 2"), 18.0);
  EXPECT_EQ(report_value("a - b - 1"), 2.0);
  EXPECT_EQ(report_value("a / b / 2"), 1.0);
  EXPECT_EQ(report_value("1.5e1 + .5"), 15.5);
  EXPECT_EQ(report_value("(1 - a / 12) * n"), 512.0);
}

TEST(CampaignReport, FunctionsAreLog2LnAndTheFpPushConstant) {
  EXPECT_EQ(report_value("log2(n)"), 10.0);
  EXPECT_EQ(report_value("log2(log2(n))"), std::log2(10.0));
  EXPECT_EQ(report_value("ln(n)"), std::log(1024.0));
  EXPECT_EQ(report_value("cd(d)"), push_constant_cd(8));
  EXPECT_EQ(report_value("cd(2 + 1)"), push_constant_cd(3));
  // Outside push_constant_cd's domain (integral d >= 3) the value is NaN.
  EXPECT_TRUE(std::isnan(report_value("cd(2)")));
  EXPECT_TRUE(std::isnan(report_value("cd(a / 4)")));
  EXPECT_EQ(parse_report("n / ln(n) / cd(d) + log2(n)").front().fields(),
            (std::vector<std::string>{"n", "d"}));
}

TEST(CampaignReport, SyntaxErrorsAndUnknownFunctionsFailAtLoad) {
  auto load = [](const std::string& report) {
    std::istringstream in("trials = 2\nreport = " + report + "\n");
    return parse_spec(in);
  };
  for (const std::string bad :
       {"n +", "(n", "n)", "n n", "2x", "1e", "", "n,", ", n", "n * * d",
        "n = 2", "log2 n", "cd()", "n, n"}) {
    try {
      (void)load(bad);
      ADD_FAILURE() << "'" << bad << "' parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  try {
    (void)load("n / sqrt(n)");
    FAIL() << "an unknown function parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown function 'sqrt'"),
              std::string::npos)
        << e.what();
  }
  // Nesting is capped, so no spec line can exhaust the parser's stack.
  EXPECT_THROW((void)load(std::string(100000, '(') + "n"), std::runtime_error);
  EXPECT_EQ(report_value(std::string(100000, '-') + "a"), 6.0);

  const CampaignSpec spec = load(" n ,cd(d)/ 2 , log2(n)");
  ASSERT_EQ(spec.report.size(), 3U);
  EXPECT_EQ(spec.report[0].text(), "n");
  EXPECT_EQ(spec.report[1].text(), "cd(d)/ 2");
  EXPECT_EQ(spec.report[2].text(), "log2(n)");
}

TEST(CampaignReport, AFieldNoRecordCarriesFailsNamingIt) {
  JsonObject with_tx = report_record();
  with_tx.set("tx", 4.0);
  const JsonObject without_tx = report_record();
  const std::vector<const JsonObject*> records{&with_tx, &without_tx};

  // Carried by some records: the others get no value, not an error.
  const auto rows = evaluate_report(parse_report("tx / a, n"), records);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0][0].value_or(-1.0), 4.0 / 6.0);
  EXPECT_FALSE(rows[1][0].has_value());
  EXPECT_EQ(rows[1][1].value_or(-1.0), 1024.0);

  // Carried by none (or only as a string): an error naming the field.
  for (const std::string field : {"tx_per_nod_mean", "key"}) {
    try {
      (void)evaluate_report(parse_report("n, a * " + field), records);
      FAIL() << field << " evaluated";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(evaluate_report(parse_report("nope"), {}).empty());
}

TEST(CampaignReport, NeverMovesDescribeTheFingerprintOrCells) {
  std::istringstream plain_in("name = r\nn = 2^8\nd = 3, log2n\n");
  std::istringstream report_in(
      "name = r\nn = 2^8\nd = 3, log2n\n"
      "report = completion_mean / ln(n) / cd(d), (1 - coverage_mean) * n\n");
  const CampaignSpec plain = parse_spec(plain_in);
  CampaignSpec with_report = parse_spec(report_in);
  ASSERT_EQ(with_report.report.size(), 2U);
  EXPECT_EQ(describe(with_report), describe(plain));
  EXPECT_EQ(spec_fingerprint(with_report), spec_fingerprint(plain));
  apply_setting(with_report, "report", "n, d");
  EXPECT_EQ(spec_fingerprint(with_report), spec_fingerprint(plain));
  const auto a = expand_cells(plain);
  const auto b = expand_cells(with_report);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(CampaignReport, ValuesPrintInOneFormat) {
  EXPECT_EQ(format_report_value(23.4), "23.4");
  EXPECT_EQ(format_report_value(1.0), "1");
  EXPECT_EQ(format_report_value(655360.0), "655360");
  EXPECT_EQ(format_report_value(10000000.0), "10000000");
  EXPECT_EQ(format_report_value(0.999987792968), "0.99998779");
  EXPECT_EQ(format_report_value(2.0 / 3.0), "0.66666667");
}

TEST(CampaignReport, EveryCommittedSpecLoadsAndExpands) {
  std::size_t specs = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(RRB_CAMPAIGN_DIR)) {
    if (entry.path().extension() != ".campaign") continue;
    ++specs;
    SCOPED_TRACE(entry.path().string());
    CampaignSpec spec;
    ASSERT_NO_THROW(spec = load_spec(entry.path().string()));
    EXPECT_EQ(spec.name, entry.path().stem().string());
    EXPECT_FALSE(expand_cells(spec).empty());
  }
  EXPECT_GE(specs, 16U);
}

// ---- Journal merge -----------------------------------------------------------

TEST(CampaignJournalMerge, ValidatesEverySourceBeforeWriting) {
  const CampaignSpec spec = tiny_spec();
  const std::string fingerprint = [&] {
    std::ostringstream os;
    os << "0x" << std::hex << spec_fingerprint(spec);
    return os.str();
  }();
  std::vector<std::string> shards;
  for (int shard = 0; shard < 2; ++shard) {
    CampaignConfig config;
    config.shard_index = shard;
    config.shard_count = 2;
    config.out_dir = temp_dir("merge_s" + std::to_string(shard));
    shards.push_back(CampaignRunner(spec, config).run().manifest_path);
  }
  CampaignSpec other = spec;
  other.trials = 4;
  CampaignConfig other_config;
  other_config.out_dir = temp_dir("merge_other");
  const std::string foreign =
      CampaignRunner(other, other_config).run().manifest_path;

  // A foreign source anywhere in the list: refused, target never created.
  const std::string target = temp_dir("merge_target") + "/manifest.jsonl";
  EXPECT_THROW((void)merge_journals({shards[0], foreign, shards[1]}, target,
                                    spec.name, fingerprint, 4),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target));

  // Overlapping sources merge each cell once; the run then reuses all.
  EXPECT_EQ(merge_journals({shards[0], shards[1], shards[0]}, target,
                           spec.name, fingerprint, 4, /*require_header=*/true),
            4U);
  EXPECT_EQ(load_journal(target, fingerprint).records.size(), 4U);
  CampaignConfig config;
  config.out_dir = fs::path(target).parent_path().string();
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.computed, 0U);
  EXPECT_EQ(outcome.reused, 4U);

  // Headerless-only sources are refused when a header is required.
  const std::string empty = temp_dir("merge_empty") + ".jsonl";
  std::ofstream(empty).close();
  EXPECT_THROW((void)merge_journals({empty}, temp_dir("merge_t2") + "/m.jsonl",
                                    spec.name, fingerprint, 4, true),
               std::runtime_error);
}

}  // namespace
}  // namespace rrb::exp
