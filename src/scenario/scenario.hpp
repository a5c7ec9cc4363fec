// The scenario DSL: declarative, schema-validated campaign files.
//
// A scenario file is a JSON document describing one complete campaign by
// composing the primitives the experiment libraries already provide —
// fleet topology (agents/shards/image), workload cadence, per-link fault
// profiles, mid-run ring resizes, policy-update storms, enrollment
// churn, the scripted chaos fault schedules, and the P1–P5 adaptive
// attack matrix. The runner (runner.hpp) lowers a validated Scenario
// onto the option structs of the experiment libraries' entry points, so
// a (file, seed) pair replays byte-for-byte — the differential suite in
// tests/scenario_test.cpp pins scenario runs against direct calls of
// those entry points.
//
// Validation is strict and total: unknown fields anywhere are errors,
// every numeric field is range-checked, and cross-references (resize
// rounds vs campaign length, corrupted paths vs image size, chaos script
// names vs the registered scripts) are verified. Every rejection names
// the offending location as a `$.section.field` path so a bad file is a
// one-line fix, never silent defaulting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"

namespace cia::scenario {

/// Which campaign driver executes the scenario.
enum class Kind { kChaos, kChurn, kStorm, kFleet, kAttacks };

const char* kind_name(Kind kind);

/// Shared fleet topology for the pool-backed kinds (storm/churn/fleet):
/// mirrors experiments::PoolFleetOptions field for field.
struct FleetSection {
  std::int64_t agents = 64;
  std::int64_t shards = 4;
  std::int64_t binaries_per_machine = 24;
  std::int64_t execs_per_round = 4;
  bool retrying_transport = true;
};

/// Fleet-wide per-link fault profile (netsim::FaultProfile subset the
/// pool replays onto every shard network).
struct FaultSection {
  double drop_rate = 0;
  double timeout_rate = 0;
  double duplicate_rate = 0;
  std::int64_t timeout_latency = 20;

  bool any() const {
    return drop_rate > 0 || timeout_rate > 0 || duplicate_rate > 0;
  }
};

/// One scheduled mid-campaign ring resize: before round `round`, resize
/// the pool to `shards` active shards.
struct ResizeEvent {
  std::int64_t round = 0;
  std::int64_t shards = 0;
};

/// Alert-pipeline knobs (alert_pipeline::AlertPipeline::Config).
struct PipelineSection {
  std::int64_t cooldown = 5 * kMinute;
  std::int64_t quiet_close = 15 * kMinute;
  std::int64_t staleness_after = 3;
  std::int64_t sample_agents = 5;
};

/// kind=storm: warmup rounds, then a corrupted bulk policy push (the bad
/// revision rewrites `bad_paths` fleet digests) drives an alert storm.
struct StormSection {
  std::int64_t warmup_rounds = 2;
  std::int64_t storm_rounds = 8;
  std::int64_t round_period = 60;
  std::int64_t bad_paths = 2;
  PipelineSection pipeline;
};

/// Optional staged-rollout section (policy_store::RolloutConfig). On
/// kind=storm the bad revision is NOT bulk-pushed: it stages onto the
/// deterministic canary slice, bakes under the alert budget, and
/// auto-rolls back — the runner then proves no non-canary agent ever
/// appraised against it. On kind=fleet a benign delta revision stages,
/// bakes clean, and auto-promotes fleet-wide.
struct PolicyRolloutSection {
  double canary_fraction = 0.25;
  std::int64_t bake_rounds = 3;
  std::int64_t alert_budget = 0;
  std::uint64_t seed = 7;
};

/// kind=churn: per-round join/leave/reboot budgets drawn from the
/// campaign RNG (experiments::ChurnCampaignOptions). The campaign seed
/// derives as scenario seed ^ 0xc4, matching the legacy harness.
struct ChurnSection {
  std::int64_t rounds = 12;
  std::int64_t round_period = 2 * kMinute;
  std::int64_t max_joins_per_round = 1;
  std::int64_t max_leaves_per_round = 1;
  std::int64_t max_reboots_per_round = 1;
};

/// kind=chaos: one of the named scripted fault campaigns
/// (experiments::chaos_scenarios()) against a single-verifier fleet.
struct ChaosSection {
  std::string script = "wan-loss";
  std::int64_t nodes = 6;
  std::int64_t days = 5;
  bool retrying_transport = true;
  std::int64_t base_packages = 200;
  std::int64_t provision_extra = 30;
};

/// kind=fleet: a plain sharded-pool run, one workload + attestation
/// round per entry in [0, rounds).
struct FleetRunSection {
  std::int64_t rounds = 7;
};

/// kind=attacks: the eight-sample Table II matrix
/// (basic/adaptive/mitigated) from src/attacks.
struct AttacksSection {
  std::int64_t archive_packages = 1500;
};

/// The largest integer a JSON number holds exactly (2^53): the upper
/// bound of `seed` and of every other unbounded integer field.
constexpr std::int64_t kMaxExactInt = 9007199254740992;

struct Scenario {
  std::int64_t version = 1;
  std::string name;
  Kind kind = Kind::kChaos;
  std::uint64_t seed = 42;

  FleetSection fleet;        // storm / churn / fleet
  FaultSection faults;       // storm / churn / fleet
  std::vector<ResizeEvent> resize_at;  // storm (at most one) / churn
  StormSection storm;        // kind=storm
  std::optional<PolicyRolloutSection> policy_rollout;  // storm / fleet
  ChurnSection churn;        // kind=churn
  ChaosSection chaos;        // kind=chaos
  FleetRunSection fleet_run; // kind=fleet
  AttacksSection attacks;    // kind=attacks

  /// Strict decode + full validation of one scenario document. Errors
  /// name the offending `$.path`.
  static Result<Scenario> from_json(const json::Value& doc);

  /// json::parse + from_json.
  static Result<Scenario> parse(const std::string& text);

  /// Canonical normal form: every field of every section the kind uses,
  /// fully defaulted, sorted keys. from_json(to_json()) is the identity
  /// on validated scenarios (the fuzz target's fixed-point contract).
  json::Value to_json() const;
};

/// Read + parse a scenario file from disk.
Result<Scenario> load_file(const std::string& path);

/// The checked-in scenario directory: $CIA_SCENARIO_DIR when set, else
/// the compiled-in source-tree scenarios/ path.
std::string default_scenario_dir();

/// Full paths (sorted) of the *.json files directly inside `dir`.
std::vector<std::string> list_scenario_files(const std::string& dir);

}  // namespace cia::scenario
