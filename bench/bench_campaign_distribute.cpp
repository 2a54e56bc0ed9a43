/// Campaign distribute micro-benchmark: wall-clock cells/sec for one
/// moderate grid executed three ways — in-process `CampaignRunner`
/// (the pre-`--distribute` baseline), and the process-level executor at
/// K = 1 and K = usable cores (the automatic thread count). The artifacts
/// are byte-identical across all modes by construction (tests/test_distribute.cpp and the
/// smoke.rrb_campaign.dist_* fixtures pin that; this harness re-checks
/// results.jsonl as a sanity gate), so the numbers measure pure
/// scheduling: claim-file overhead, fork/exec cost, journal merge, and —
/// on machines with more than one core — process-level scaling.
/// Feeds bench/results/BENCH_campaign_distribute_{before,after}.json.
///
/// The worker binary is rrb_campaign itself (workers re-exec it in the
/// hidden --worker mode); its path is baked in at configure time.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "rrb/common/runner_config.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/exp/distribute.hpp"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace rrb;
using namespace rrb::bench;

namespace {

/// 2 schemes x 5 n = 10 cells, heavy enough that a cell costs whole
/// milliseconds (so claim/fork overhead is measured against real work,
/// not against an empty grid).
exp::CampaignSpec bench_spec() {
  exp::CampaignSpec spec;
  spec.name = "bench_distribute";
  spec.seed = 0xbd157;
  spec.trials = 16;
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kFourChoice};
  spec.n_values = {256, 512, 1024, 2048, 4096};
  spec.d_values = {8};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("rrb_bench_distribute_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

struct ModeTiming {
  double wall_ms = 0.0;
  std::size_t cells = 0;
};

ModeTiming time_single(const exp::CampaignSpec& spec, const std::string& dir) {
  exp::CampaignConfig config;
  config.out_dir = dir;
  const auto start = Clock::now();
  exp::CampaignRunner runner(spec, config);
  const exp::CampaignOutcome out = runner.run();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return {ms, out.cells.size()};
}

ModeTiming time_distribute(const exp::CampaignSpec& spec,
                           const std::string& dir, int workers) {
  exp::DistributeConfig config;
  config.workers = workers;
  config.out_dir = dir;
  config.quiet = true;
  const auto start = Clock::now();
  const exp::DistributeReport report =
      exp::distribute_campaign(spec, config, RRB_CAMPAIGN_EXE);
  // The driver leaves artifact emission to the ordinary runner (the
  // rrb_campaign CLI falls through to it); include it in the timed
  // region so all modes pay for the same artifact set.
  exp::CampaignConfig finish;
  finish.out_dir = dir;
  exp::CampaignRunner runner(spec, finish);
  runner.run();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return {ms, report.cells};
}

void add_row(BenchReport& report, const std::string& name, const ModeTiming& t,
             int workers) {
  const double cells_per_sec =
      static_cast<double>(t.cells) / (t.wall_ms / 1000.0);
  std::printf("  %-18s %2d worker(s)  %4zu cells  %8.1f ms  %7.1f cells/s\n",
              name.c_str(), workers, t.cells, t.wall_ms, cells_per_sec);
  report.row()
      .set("name", name)
      .set("workers", workers)
      .set("cells", t.cells)
      .set("wall_ms", t.wall_ms)
      .set("cells_per_sec", cells_per_sec);
}

}  // namespace

int main() {
  const exp::CampaignSpec spec = bench_spec();
  // The automatic thread count: $RRB_THREADS, else the CPUs this process
  // may run on (its affinity mask), so taskset or a cpuset caps K.
  const int k_wide = resolve_threads(RunnerConfig{});

  std::printf("campaign distribute bench: %zu-cell grid, %d trials/cell, "
              "%d usable core(s)\n",
              exp::expand_cells(spec).size(), spec.trials, k_wide);

  BenchReport report("campaign_distribute");
  report.set("trials_per_cell", spec.trials).set("hw_cores", k_wide);

  const std::string single_dir = fresh_dir("single");
  const std::string k1_dir = fresh_dir("k1");
  const std::string kw_dir = fresh_dir("kwide");

  add_row(report, "single-process", time_single(spec, single_dir), 1);
  add_row(report, "distribute", time_distribute(spec, k1_dir, 1), 1);
  add_row(report, "distribute", time_distribute(spec, kw_dir, k_wide), k_wide);

  // Sanity: distribution never changes the recorded numbers.
  const std::string reference = read_file(single_dir + "/results.jsonl");
  for (const std::string& dir : {k1_dir, kw_dir}) {
    if (read_file(dir + "/results.jsonl") != reference)
      throw std::runtime_error(dir + ": results differ from single-process");
  }
  std::printf("  results.jsonl byte-identical across all modes\n");

  report.write();
  return 0;
}
