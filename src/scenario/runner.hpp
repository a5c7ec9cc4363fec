// Deterministic scenario execution — the one way to run a campaign.
//
// The runner lowers a validated Scenario onto the option structs of the
// library entry points (experiments::StormOptions, ChurnCampaignOptions,
// ChaosOptions, PoolFleetOptions, FnExperimentOptions) and calls them,
// so a scenario file and a direct library call with the lowered options
// produce the same run byte for byte — the contract the differential
// suite in tests/scenario_test.cpp pins.
//
// Each kind carries invariant self-checks: the storm contracts
// (incident count == root causes, widest incident == fleet, lossless
// dedup accounting, stream stable across repartition + mid-storm
// resize), the churn no-resize chain-digest diff, the chaos resilience
// predicate (no transport false positives, liveness, audit chain,
// detection, checkpoint round trip), the Table II expectations, and a
// partition-invariance digest diff for plain fleet runs. Cheap checks
// always run; the expensive ones (full campaign reruns) only under
// RunOptions::self_check.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "experiments/chaos_experiment.hpp"
#include "experiments/fn_experiment.hpp"
#include "experiments/pool_experiment.hpp"
#include "netsim/network.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cia::scenario {

/// One invariant verdict. `ok == false` fails the run.
struct SelfCheck {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunOptions {
  /// Also run the expensive cross-run invariants (repartition reruns,
  /// no-resize churn baseline).
  bool self_check = false;
  /// Override the file's seed (the differential axis: same file,
  /// different seed → different but still deterministic run).
  std::optional<std::uint64_t> seed;
  /// When set, the run's components export telemetry here, and the
  /// log->counter bridge (telemetry::attach_log_counter) counts the
  /// primary run's warn/error lines into cia_log_events_total. Self-check
  /// reruns export nothing.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// kind=chaos: when set, the rig's components emit span trees here
  /// (the rig rebinds it to its own clock). Other kinds ignore it.
  telemetry::Tracer* tracer = nullptr;
};

struct ScenarioOutcome {
  std::string name;
  Kind kind = Kind::kChaos;
  std::uint64_t seed = 0;
  /// The standard report as a canonical JSON document (sorted keys;
  /// dump() is the byte-comparable form).
  json::Value report;
  /// kind=storm: the canonical incident snapshot JSON — byte-identical
  /// to run_alert_storm's stream for the lowered options.
  std::string incident_stream;
  /// kind=churn/fleet: partition-independent per-agent audit sub-chain
  /// digests (experiments::per_agent_chain_digests).
  std::map<std::string, std::string> chain_digests;
  std::vector<SelfCheck> checks;

  bool ok() const {
    for (const SelfCheck& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

// Lowerings (exposed so the differential tests can call the library
// entry points with provably identical options).

/// storm/churn/fleet: the PoolFleetOptions a scenario's fleet section
/// describes.
experiments::PoolFleetOptions lower_fleet(const Scenario& sc);

/// kind=storm → run_alert_storm options.
experiments::StormOptions lower_storm(const Scenario& sc);

/// churn/fleet: the link faults $.faults describes (storm lowers its
/// drop rate into StormOptions instead).
netsim::FaultProfile lower_faults(const Scenario& sc);

/// kind=churn → run_churn_campaign options (campaign seed derives as
/// scenario seed ^ 0xc4).
experiments::ChurnCampaignOptions lower_churn(const Scenario& sc);

/// kind=chaos → run_chaos_experiment options (base_package_count from
/// $.chaos.base_packages).
experiments::ChaosOptions lower_chaos(const Scenario& sc);

/// kind=attacks → run_fn_experiment options.
experiments::FnExperimentOptions lower_attacks(const Scenario& sc);

// Canonical report documents (shared by the runner and the differential
// tests — one serialization, one comparison surface).
json::Value storm_report_json(const experiments::StormReport& report);
json::Value churn_report_json(const experiments::ChurnReport& report);
json::Value chaos_report_json(const experiments::ChaosReport& report);
json::Value attacks_report_json(
    const std::vector<experiments::AttackReport>& reports);

/// Execute one validated scenario. Errors are setup failures (fleet
/// init, policy push); invariant failures land in `checks` instead so
/// the caller can print every verdict.
Result<ScenarioOutcome> run_scenario(const Scenario& sc,
                                     const RunOptions& options);

}  // namespace cia::scenario
