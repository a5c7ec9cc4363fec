// cia_scenario — run schema-validated scenario files deterministically.
// This is the one campaign runner: chaos scripts, churn, alert storms,
// staged rollouts, pool fleets and the Table II attack matrix all run
// from a file (docs/SCENARIOS.md).
//
//   cia_scenario run FILE [--seed S] [--self-check] [--telemetry PREFIX]
//                [--report FILE|-]
//       Validate FILE, execute it (same file + same seed => byte-identical
//       run), print every invariant verdict, and exit nonzero if any
//       fails. --seed overrides the file's seed (decimal digits, at most
//       2^53, like the file's own field). --self-check also runs the
//       expensive cross-run invariants (repartition/resize reruns for
//       storms, the no-resize baseline for churn, a different-shard-count
//       rerun for fleet). --telemetry writes the run's metrics as
//       PREFIX.prom (Prometheus text) and PREFIX.json (canonical
//       snapshot, the input of `cia_metrics diff`), plus PREFIX.trace.json
//       (Chrome trace_event spans) for chaos kinds and
//       PREFIX.incidents.json (canonical incident snapshot, the input of
//       `cia_metrics incidents`) for storm kinds. --report writes the
//       canonical report JSON ("-" = stdout).
//
//   cia_scenario validate FILE...
//       Parse + schema-check each file without running it. Prints the
//       path-qualified error for every rejection.
//
//   cia_scenario list [DIR]
//       List the scenario files in DIR (default: the checked-in
//       scenarios/ directory, or $CIA_SCENARIO_DIR).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/sim_clock.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace cia;

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// A --seed value as the file's `seed` field accepts it: decimal digits
/// only, at most 2^53. Empty when the text is anything else.
std::optional<std::uint64_t> parse_seed(const char* text) {
  if (*text == '\0') return std::nullopt;
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(*p - '0');
    if (value > static_cast<std::uint64_t>(scenario::kMaxExactInt)) {
      return std::nullopt;
    }
  }
  return value;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cia_scenario run FILE [--seed S] "
                 "[--self-check] [--telemetry PREFIX] [--report FILE|-]\n");
    return 2;
  }
  const std::string path = argv[2];
  scenario::RunOptions options;
  std::string telemetry_prefix;
  std::string report_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* text = next();
      options.seed = parse_seed(text);
      if (!options.seed) {
        std::fprintf(stderr,
                     "bad value for --seed: \"%s\" (decimal digits, at "
                     "most 2^53)\n",
                     text);
        return 2;
      }
    } else if (arg == "--self-check") {
      options.self_check = true;
    } else if (arg == "--telemetry") {
      telemetry_prefix = next();
    } else if (arg == "--report") {
      report_path = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  auto loaded = scenario::load_file(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
    return 2;
  }
  telemetry::MetricsRegistry metrics;
  SimClock trace_clock;  // placeholder; the chaos rig rebinds the tracer
  telemetry::Tracer tracer(&trace_clock);
  if (!telemetry_prefix.empty()) {
    options.metrics = &metrics;
    options.tracer = &tracer;
  }

  auto run = scenario::run_scenario(loaded.value(), options);
  if (!run.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 run.error().message.c_str());
    return 1;
  }
  const scenario::ScenarioOutcome& outcome = run.value();
  std::printf("scenario: %s (kind %s, seed %llu)\n", outcome.name.c_str(),
              scenario::kind_name(outcome.kind),
              static_cast<unsigned long long>(outcome.seed));
  for (const scenario::SelfCheck& check : outcome.checks) {
    std::printf("  %-36s %s  %s\n", check.name.c_str(),
                check.ok ? "ok  " : "FAIL", check.detail.c_str());
  }
  std::printf("checks: %s\n", outcome.ok() ? "ok" : "FAILED");

  if (!report_path.empty()) {
    const std::string text = outcome.report.pretty() + "\n";
    if (report_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else if (!write_file(report_path, text)) {
      return 1;
    }
  }
  if (!telemetry_prefix.empty()) {
    const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
    if (!write_file(telemetry_prefix + ".prom",
                    telemetry::to_prometheus(snapshot)) ||
        !write_file(telemetry_prefix + ".json",
                    telemetry::to_json(snapshot).dump() + "\n")) {
      return 1;
    }
    if (outcome.kind == scenario::Kind::kChaos &&
        !write_file(telemetry_prefix + ".trace.json",
                    tracer.chrome_trace().dump() + "\n")) {
      return 1;
    }
    if (outcome.kind == scenario::Kind::kStorm &&
        !write_file(telemetry_prefix + ".incidents.json",
                    outcome.incident_stream + "\n")) {
      return 1;
    }
  }
  return outcome.ok() ? 0 : 1;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cia_scenario validate FILE...\n");
    return 2;
  }
  int bad = 0;
  for (int i = 2; i < argc; ++i) {
    auto loaded = scenario::load_file(argv[i]);
    if (loaded.ok()) {
      std::printf("%s: ok (%s, kind %s)\n", argv[i],
                  loaded.value().name.c_str(),
                  scenario::kind_name(loaded.value().kind));
    } else {
      std::printf("%s\n", loaded.error().message.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int cmd_list(int argc, char** argv) {
  const std::string dir =
      argc > 2 ? argv[2] : scenario::default_scenario_dir();
  const std::vector<std::string> files = scenario::list_scenario_files(dir);
  if (files.empty()) {
    std::fprintf(stderr, "no scenario files in %s\n", dir.c_str());
    return 1;
  }
  for (const std::string& file : files) {
    auto loaded = scenario::load_file(file);
    if (loaded.ok()) {
      std::printf("%-40s %-8s %s\n", file.c_str(),
                  scenario::kind_name(loaded.value().kind),
                  loaded.value().name.c_str());
    } else {
      std::printf("%-40s INVALID: %s\n", file.c_str(),
                  loaded.error().message.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "validate") return cmd_validate(argc, argv);
  if (cmd == "list") return cmd_list(argc, argv);
  std::fprintf(stderr,
               "usage: cia_scenario <run|validate|list> ...\n"
               "  run FILE [--seed S] [--self-check] [--telemetry PREFIX]"
               " [--report FILE|-]\n"
               "  validate FILE...\n"
               "  list [DIR]\n");
  return 2;
}
