// bench_alerts — the alert pipeline's clean-path overhead gate.
//
// The pipeline's contract is to be ~free when nothing is wrong: shard
// workers only advance a cursor over the verifier's (empty) alert list,
// and the round-boundary drain folds nothing. This benchmark runs the
// SAME alert-free fleet campaign twice — pipeline detached vs attached
// (with telemetry) — and reports the relative overhead of the attached
// run. Self-relative on one host in one process, so no baseline file is
// needed.
//
//   bench_alerts [--check] [--tolerance 0.25]
//
// With --check the process exits non-zero when the attached run is more
// than `tolerance` slower than the detached run (the CI perf-smoke
// stage). Each run appraises ~300k IMA entries (kAgents x kBinaries).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/alert_pipeline/pipeline.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace cia;
using namespace cia::experiments;

constexpr std::size_t kAgents = 96;
constexpr std::size_t kBinaries = 3200;
constexpr std::size_t kReps = 3;

struct RunResult {
  double seconds = 0;
  std::size_t entries = 0;
};

/// One full alert-free campaign: every binary on every machine gets
/// measured and appraised exactly once across the rounds. Returns the
/// time spent driving the pool (workload execution excluded — it is
/// identical in both configurations and involves no verifier code).
RunResult run_campaign(std::size_t agents, std::size_t binaries,
                       bool with_pipeline) {
  PoolFleetOptions options;
  options.agents = agents;
  options.shards = 8;
  options.seed = 7;
  options.binaries_per_machine = binaries;
  options.execs_per_round = 64;
  options.verifier.continue_on_failure = true;
  PoolFleet fleet(options);
  if (!fleet.init_status().ok()) {
    std::fprintf(stderr, "fleet init failed: %s\n",
                 fleet.init_status().error().message.c_str());
    std::exit(2);
  }
  if (!fleet.push_fleet_policy().ok()) std::exit(2);

  telemetry::MetricsRegistry metrics;
  keylime::alert_pipeline::AlertPipeline pipeline;
  if (with_pipeline) {
    pipeline.use_telemetry(&metrics);
    fleet.pool().use_alert_pipeline(&pipeline);
  }

  const std::size_t rounds =
      (binaries + options.execs_per_round - 1) / options.execs_per_round;
  double driving = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    fleet.run_workload_round(round);
    const auto start = std::chrono::steady_clock::now();
    fleet.pool().run_round();
    driving += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }

  // The gate only means something if the campaign really was clean.
  if (!fleet.pool().alerts().empty() ||
      (with_pipeline && !pipeline.emitted().empty())) {
    std::fprintf(stderr, "campaign was not alert-free; bench invalid\n");
    std::exit(2);
  }
  RunResult result;
  result.seconds = driving;
  result.entries = agents * binaries;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  bool check_mode = false;
  double tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_mode = true;
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_alerts [--check] [--tolerance 0.25]\n");
      return 2;
    }
  }

  std::printf("Alert-pipeline clean-path overhead: %zu agents x %zu entries"
              " (%zu reps, best)\n",
              kAgents, kBinaries, kReps);

  double off = 1e100;
  double on = 1e100;
  std::size_t entries = 0;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const RunResult detached = run_campaign(kAgents, kBinaries, false);
    const RunResult attached = run_campaign(kAgents, kBinaries, true);
    off = std::min(off, detached.seconds);
    on = std::min(on, attached.seconds);
    entries = detached.entries;
  }

  const double overhead = (on - off) / off;
  std::printf("  pipeline off : %8.3f s  (%.0f entries/s)\n", off,
              static_cast<double>(entries) / off);
  std::printf("  pipeline on  : %8.3f s  (%.0f entries/s)\n", on,
              static_cast<double>(entries) / on);
  std::printf("  overhead     : %+7.2f%%  (tolerance %.0f%%)\n",
              overhead * 100.0, tolerance * 100.0);

  if (check_mode && overhead > tolerance) {
    std::fprintf(stderr,
                 "FAIL: clean-path overhead %.2f%% exceeds %.2f%%\n",
                 overhead * 100.0, tolerance * 100.0);
    return 1;
  }
  return 0;
}
