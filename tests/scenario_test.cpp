// The scenario differential suite: proof that the DSL retired the
// hand-coded harnesses without changing a single byte of their output.
//
// Three layers:
//  - Differential pins: a scenario-file run must reproduce the legacy
//    entry points (run_alert_storm, run_churn_campaign,
//    run_chaos_experiment) byte for byte — same incident stream, same
//    per-agent audit-chain digests, same canonical report — both via
//    the published lowerings and via hand-built option structs that
//    bypass them.
//  - Schema rejections: every malformed fixture fails with the exact
//    path-qualified message (never silent defaulting), pinned as a
//    table so a reworded rejection is a reviewed diff.
//  - Generator property: every testkit::gen_scenario document validates
//    and hits the to_json/parse fixed point; failures are shrunk to a
//    minimal reproducer before being reported.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "experiments/chaos_experiment.hpp"
#include "experiments/pool_experiment.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/export.hpp"
#include "testkit/generators.hpp"
#include "testkit/shrink.hpp"

namespace cia::scenario {
namespace {

// A storm small enough for a test but big enough to manufacture every
// root-cause class (bad digests + staleness + transport).
constexpr char kSmallStorm[] = R"({
  "version": 1,
  "name": "diff-storm",
  "kind": "storm",
  "seed": 42,
  "fleet": {"agents": 40, "shards": 3, "binaries_per_machine": 12},
  "faults": {"drop_rate": 0.1},
  "storm": {"warmup_rounds": 1, "storm_rounds": 4, "round_period": 60,
            "bad_paths": 2}
})";

constexpr char kSmallChurn[] = R"({
  "version": 1,
  "name": "diff-churn",
  "kind": "churn",
  "seed": 42,
  "fleet": {"agents": 16, "shards": 3},
  "resize_at": [{"round": 2, "shards": 5}],
  "churn": {"rounds": 6, "round_period": 120}
})";

// A staged-rollout storm: the bad revision goes to a canary slice
// instead of a fleet-wide bulk push, bakes under a zero alert budget,
// and must roll back without ever touching a non-canary agent.
constexpr char kSmallRolloutStorm[] = R"({
  "version": 1,
  "name": "diff-rollout-storm",
  "kind": "storm",
  "seed": 99,
  "fleet": {"agents": 30, "shards": 3, "binaries_per_machine": 12},
  "storm": {"warmup_rounds": 1, "storm_rounds": 4, "round_period": 60,
            "bad_paths": 2},
  "policy_rollout": {"canary_fraction": 0.3, "bake_rounds": 3,
                     "alert_budget": 0, "seed": 7}
})";

// A benign delta revision staged on a fleet run: bakes clean and must
// promote fleet-wide through the zero-build reuse path.
constexpr char kSmallRolloutFleet[] = R"({
  "version": 1,
  "name": "diff-rollout-fleet",
  "kind": "fleet",
  "seed": 77,
  "fleet": {"agents": 20, "shards": 3, "binaries_per_machine": 12},
  "fleet_run": {"rounds": 5},
  "policy_rollout": {"canary_fraction": 0.25, "bake_rounds": 2,
                     "alert_budget": 0, "seed": 11}
})";

Scenario must_parse(const std::string& text) {
  auto parsed = Scenario::parse(text);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  return parsed.ok() ? parsed.value() : Scenario{};
}

ScenarioOutcome must_run(const Scenario& sc, bool self_check = false) {
  RunOptions options;
  options.self_check = self_check;
  auto run = run_scenario(sc, options);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().message);
  return run.ok() ? run.value() : ScenarioOutcome{};
}

// ------------------------------------------------- differential pins

TEST(ScenarioDifferentialTest, StormFileReplaysLegacyHarnessByteForByte) {
  const Scenario sc = must_parse(kSmallStorm);
  const ScenarioOutcome outcome = must_run(sc);

  // Through the published lowering.
  const experiments::StormReport legacy =
      experiments::run_alert_storm(lower_storm(sc));
  ASSERT_TRUE(legacy.status.ok()) << legacy.status.error().message;
  EXPECT_EQ(outcome.incident_stream, legacy.incident_stream);
  EXPECT_EQ(outcome.report.dump(), storm_report_json(legacy).dump());

  // And through options built by hand, proving the lowering itself maps
  // the file onto what a cia_sim --storm invocation used to construct.
  experiments::StormOptions manual;
  manual.seed = 42;
  manual.agents = 40;
  manual.shards = 3;
  manual.binaries_per_machine = 12;
  manual.warmup_rounds = 1;
  manual.storm_rounds = 4;
  manual.round_period = 60;
  manual.bad_paths = 2;
  manual.drop_rate = 0.1;
  const experiments::StormReport by_hand = experiments::run_alert_storm(manual);
  ASSERT_TRUE(by_hand.status.ok());
  EXPECT_EQ(outcome.incident_stream, by_hand.incident_stream);
}

TEST(ScenarioDifferentialTest, ChurnFileReplaysLegacyCampaignChains) {
  const Scenario sc = must_parse(kSmallChurn);
  const ScenarioOutcome outcome = must_run(sc);

  // The legacy path: a PoolFleet plus run_churn_campaign, exactly as
  // cia_sim --churn hand-assembled it (campaign seed = scenario ^ 0xc4).
  experiments::PoolFleet fleet(lower_fleet(sc));
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  experiments::ChurnCampaignOptions campaign;
  campaign.seed = 42 ^ 0xc4u;
  campaign.rounds = 6;
  campaign.round_period = 120;
  campaign.resize_at = {{2, 5}};
  const experiments::ChurnReport legacy =
      experiments::run_churn_campaign(fleet, campaign);
  ASSERT_TRUE(legacy.status.ok());

  const std::map<std::string, std::string> legacy_digests =
      experiments::per_agent_chain_digests(fleet.pool());
  EXPECT_EQ(outcome.chain_digests, legacy_digests);
  EXPECT_FALSE(legacy_digests.empty());

  // The lowering agrees with the hand-built campaign options.
  const experiments::ChurnCampaignOptions lowered = lower_churn(sc);
  EXPECT_EQ(lowered.seed, campaign.seed);
  EXPECT_EQ(lowered.rounds, campaign.rounds);
  EXPECT_EQ(lowered.round_period, campaign.round_period);
  EXPECT_EQ(lowered.resize_at, campaign.resize_at);
}

TEST(ScenarioDifferentialTest, ChaosFilesReplayLegacyReports) {
  for (const char* script : {"wan-loss", "flaky-window"}) {
    Scenario sc;
    sc.name = script;
    sc.kind = Kind::kChaos;
    sc.seed = 42;
    sc.chaos.script = script;
    sc.chaos.days = 3;
    const ScenarioOutcome outcome = must_run(sc);

    const experiments::ChaosReport legacy =
        experiments::run_chaos_experiment(lower_chaos(sc));
    ASSERT_TRUE(legacy.valid) << script;
    EXPECT_EQ(outcome.report.dump(), chaos_report_json(legacy).dump())
        << script;
    EXPECT_TRUE(outcome.ok()) << script;
  }
}

// One run with telemetry attached: its outcome, and its snapshot minus
// the wall-clock `*_us` series (the part the determinism contract
// covers).
std::pair<ScenarioOutcome, telemetry::MetricsSnapshot> run_with_telemetry(
    const Scenario& sc) {
  telemetry::MetricsRegistry registry;
  RunOptions options;
  options.metrics = &registry;
  auto run = run_scenario(sc, options);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().message);
  telemetry::MetricsSnapshot snapshot = registry.snapshot();
  std::erase_if(snapshot.points, telemetry::is_wall_clock);
  return {run.ok() ? run.value() : ScenarioOutcome{}, std::move(snapshot)};
}

TEST(ScenarioDifferentialTest, SameFileAndSeedIsDeterministic) {
  // Three shard workers race through every round; the report, the
  // incident stream and the telemetry snapshot must not depend on which
  // one finishes last.
  const Scenario sc = must_parse(kSmallStorm);
  const auto [a, a_metrics] = run_with_telemetry(sc);
  const std::string a_json = telemetry::to_json(a_metrics).dump();
  // The fleet health split covers all 40 agents across the three shards;
  // the 10 % drops leave two of them in backoff when the storm ends.
  const auto* healthy = a_metrics.find("cia_scheduler_healthy_agents");
  const auto* backing_off = a_metrics.find("cia_scheduler_backing_off_agents");
  ASSERT_NE(healthy, nullptr);
  ASSERT_NE(backing_off, nullptr);
  EXPECT_EQ(healthy->value + backing_off->value, 40.0);
  EXPECT_EQ(backing_off->value, 2.0);
  for (int run = 1; run < 6; ++run) {
    const auto [b, b_metrics] = run_with_telemetry(sc);
    EXPECT_EQ(a.report.dump(), b.report.dump()) << "run " << run;
    EXPECT_EQ(a.incident_stream, b.incident_stream) << "run " << run;
    EXPECT_EQ(a_json, telemetry::to_json(b_metrics).dump())
        << "run " << run << ":\n"
        << telemetry::diff_snapshots(a_metrics, b_metrics);
  }

  // A seed override reroutes through the same deterministic path: two
  // reseeded runs agree with each other byte for byte. (The stream is
  // not required to differ from seed 42 — fleet image content is a pure
  // function of the path, so small storms can coincide across seeds.)
  RunOptions reseeded;
  reseeded.seed = 7;
  auto c = run_scenario(sc, reseeded);
  auto d = run_scenario(sc, reseeded);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_EQ(c.value().seed, 7u);
  EXPECT_EQ(c.value().incident_stream, d.value().incident_stream);
  EXPECT_EQ(c.value().report.dump(), d.value().report.dump());
}

TEST(ScenarioDifferentialTest, StormSelfChecksHoldOnTheSmallStorm) {
  const Scenario sc = must_parse(kSmallStorm);
  const ScenarioOutcome outcome = must_run(sc, /*self_check=*/true);
  ASSERT_EQ(outcome.checks.size(), 5u);
  for (const SelfCheck& check : outcome.checks) {
    EXPECT_TRUE(check.ok) << check.name << ": " << check.detail;
  }
}

// --------------------------------------------------- rollout scenarios

TEST(ScenarioRolloutTest, StormRolloutRollsBackAndContainsTheBadRevision) {
  const Scenario sc = must_parse(kSmallRolloutStorm);
  const ScenarioOutcome outcome = must_run(sc, /*self_check=*/true);

  // 4 rollout contracts + partition/resize invariance.
  ASSERT_EQ(outcome.checks.size(), 6u);
  for (const SelfCheck& check : outcome.checks) {
    EXPECT_TRUE(check.ok) << check.name << ": " << check.detail;
  }
  const json::Value* state = outcome.report.find("rollout_state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->as_string(), "rolled_back");
  const json::Value* escaped = outcome.report.find("non_canary_bad_appraisals");
  ASSERT_NE(escaped, nullptr);
  EXPECT_EQ(escaped->as_int(), 0);
}

TEST(ScenarioRolloutTest, FleetRolloutPromotesTheStagedRevision) {
  const Scenario sc = must_parse(kSmallRolloutFleet);
  const ScenarioOutcome outcome = must_run(sc, /*self_check=*/true);

  ASSERT_EQ(outcome.checks.size(), 4u);
  for (const SelfCheck& check : outcome.checks) {
    EXPECT_TRUE(check.ok) << check.name << ": " << check.detail;
  }
  const json::Value* state = outcome.report.find("rollout_state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->as_string(), "promoted");
}

TEST(ScenarioRolloutTest, RolloutRunsAreDeterministic) {
  const Scenario sc = must_parse(kSmallRolloutStorm);
  const ScenarioOutcome a = must_run(sc);
  const ScenarioOutcome b = must_run(sc);
  EXPECT_EQ(a.report.dump(), b.report.dump());
  EXPECT_EQ(a.incident_stream, b.incident_stream);
}

// A legacy storm (no rollout section) must not grow rollout report keys:
// its canonical report stays byte-compatible with pre-rollout builds.
TEST(ScenarioRolloutTest, LegacyStormReportCarriesNoRolloutKeys) {
  const Scenario sc = must_parse(kSmallStorm);
  const ScenarioOutcome outcome = must_run(sc);
  EXPECT_EQ(outcome.report.find("rollout_state"), nullptr);
  EXPECT_EQ(outcome.report.find("canary_agents"), nullptr);
}

// ------------------------------------------------ checked-in scenarios

TEST(ScenarioFilesTest, EveryCheckedInScenarioValidates) {
  const std::string dir = default_scenario_dir();
  const std::vector<std::string> files = list_scenario_files(dir);
  EXPECT_GE(files.size(), 11u) << "scenario directory went missing: " << dir;
  for (const std::string& file : files) {
    auto loaded = load_file(file);
    EXPECT_TRUE(loaded.ok())
        << file << ": " << (loaded.ok() ? "" : loaded.error().message);
    if (!loaded.ok()) continue;
    // Checked-in files must already be in canonical field order-agnostic
    // form: re-serializing and re-validating must agree.
    const std::string canonical = loaded.value().to_json().dump();
    auto re = Scenario::parse(canonical);
    ASSERT_TRUE(re.ok()) << file;
    EXPECT_EQ(re.value().to_json().dump(), canonical) << file;
  }
}

// --------------------------------------------------- schema rejections

TEST(ScenarioSchemaTest, EveryInvalidFixtureFailsWithThePinnedMessage) {
  struct Fixture {
    const char* label;
    const char* text;
    const char* message;
  };
  static const Fixture kFixtures[] = {
      {"missing version",
       R"({"name":"x","kind":"attacks","attacks":{}})",
       "$.version: required field is missing"},
      {"future version",
       R"({"version":2,"name":"x","kind":"attacks","attacks":{}})",
       "$.version: unsupported scenario version 2 (this build reads "
       "version 1)"},
      {"bad name charset",
       R"({"version":1,"name":"No Spaces!","kind":"attacks","attacks":{}})",
       "$.name: must be 1-80 characters of [a-z0-9._-]"},
      {"unknown kind",
       R"({"version":1,"name":"x","kind":"stress","attacks":{}})",
       "$.kind: unknown kind \"stress\" (expected chaos, churn, storm, "
       "fleet, or attacks)"},
      {"unknown top-level field",
       R"({"version":1,"name":"x","kind":"attacks","attacks":{},"sharts":4})",
       "$: unknown field \"sharts\""},
      {"unknown nested field",
       R"({"version":1,"name":"x","kind":"chaos",
           "chaos":{"script":"wan-loss","dayz":3}})",
       "$.chaos: unknown field \"dayz\""},
      {"non-integer where integer expected",
       R"({"version":1,"name":"x","kind":"chaos",
           "chaos":{"script":"wan-loss","days":3.5}})",
       "$.chaos.days: must be an integer"},
      {"out-of-range integer",
       R"({"version":1,"name":"x","kind":"chaos",
           "chaos":{"script":"wan-loss","days":1}})",
       "$.chaos.days: must be between 2 and 366"},
      {"unknown chaos script",
       R"({"version":1,"name":"x","kind":"chaos",
           "chaos":{"script":"meteor-strike"}})",
       "$.chaos.script: unknown chaos script \"meteor-strike\" (one of: "
       "wan-loss, agent-crash-loop, verifier-restart, registrar-outage, "
       "mirror-partition, flaky-window)"},
      {"section not valid for kind",
       R"({"version":1,"name":"x","kind":"attacks","attacks":{},
           "storm":{"storm_rounds":2}})",
       "$.storm: not valid for kind \"attacks\""},
      {"missing required kind section",
       R"({"version":1,"name":"x","kind":"storm"})",
       "$.storm: required for kind \"storm\""},
      {"storm with explicit retrying transport",
       R"({"version":1,"name":"x","kind":"storm",
           "fleet":{"retrying_transport":true},"storm":{"storm_rounds":2}})",
       "$.fleet.retrying_transport: kind \"storm\" requires false (retry "
       "backoff shifts shard clocks by co-residency, breaking "
       "incident-stream partition invariance)"},
      {"storm with timeout faults",
       R"({"version":1,"name":"x","kind":"storm",
           "faults":{"timeout_rate":0.1},"storm":{"storm_rounds":2}})",
       "$.faults.timeout_rate: kind \"storm\" allows drop faults only "
       "(time-free chaos keeps alert timestamps partition-invariant)"},
      {"storm bad_paths over image size",
       R"({"version":1,"name":"x","kind":"storm",
           "fleet":{"binaries_per_machine":4},
           "storm":{"storm_rounds":2,"bad_paths":5}})",
       "$.storm.bad_paths: exceeds fleet.binaries_per_machine (4)"},
      {"storm with two resizes",
       R"({"version":1,"name":"x","kind":"storm","storm":{"storm_rounds":4},
           "resize_at":[{"round":1,"shards":2},{"round":2,"shards":3}]})",
       "$.resize_at: kind \"storm\" supports at most one resize event"},
      {"storm resize after the storm",
       R"({"version":1,"name":"x","kind":"storm","storm":{"storm_rounds":4},
           "resize_at":[{"round":4,"shards":2}]})",
       "$.resize_at[0].round: must be < storm.storm_rounds (4)"},
      {"churn resize after the campaign",
       R"({"version":1,"name":"x","kind":"churn","churn":{"rounds":3},
           "resize_at":[{"round":1,"shards":2},{"round":3,"shards":4}]})",
       "$.resize_at[1].round: must be < churn.rounds (3)"},
      {"resize entry missing a field",
       R"({"version":1,"name":"x","kind":"churn","churn":{"rounds":3},
           "resize_at":[{"round":1}]})",
       "$.resize_at[0].shards: required field is missing"},
      {"timeouts with zero latency",
       R"({"version":1,"name":"x","kind":"fleet","fleet_run":{"rounds":2},
           "faults":{"timeout_rate":0.1,"timeout_latency":0}})",
       "$.faults.timeout_latency: must be > 0 when timeout_rate is set"},
      {"resize_at not an array",
       R"({"version":1,"name":"x","kind":"churn","churn":{"rounds":3},
           "resize_at":7})",
       "$.resize_at: must be an array"},
      {"rollout on a chaos scenario",
       R"({"version":1,"name":"x","kind":"chaos",
           "chaos":{"script":"wan-loss"},"policy_rollout":{}})",
       "$.policy_rollout: not valid for kind \"chaos\""},
      {"rollout canary fraction out of range",
       R"({"version":1,"name":"x","kind":"storm","storm":{"storm_rounds":2},
           "policy_rollout":{"canary_fraction":1.5}})",
       "$.policy_rollout.canary_fraction: must be between 1e-06 and 1"},
      {"rollout unknown field",
       R"({"version":1,"name":"x","kind":"storm","storm":{"storm_rounds":2},
           "policy_rollout":{"blast_radius":3}})",
       "$.policy_rollout: unknown field \"blast_radius\""},
      {"fleet rollout that can never promote",
       R"({"version":1,"name":"x","kind":"fleet","fleet_run":{"rounds":3},
           "policy_rollout":{"bake_rounds":3}})",
       "$.policy_rollout.bake_rounds: must be < fleet_run.rounds (3) or the "
       "staged revision can never promote"},
  };
  for (const Fixture& fixture : kFixtures) {
    auto parsed = Scenario::parse(fixture.text);
    ASSERT_FALSE(parsed.ok()) << fixture.label << " was accepted";
    EXPECT_EQ(parsed.error().message, fixture.message) << fixture.label;
  }
}

// ---------------------------------------------- generator round trips

TEST(ScenarioGeneratorTest, EveryGeneratedScenarioValidatesAndFixes) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::string text = testkit::gen_scenario(rng).dump();
    auto parsed = Scenario::parse(text);
    if (!parsed.ok()) {
      // Shrink the reproducer before failing: the minimal prefix that
      // still rejects is what goes in the bug report.
      const std::string minimal = testkit::shrink_text(
          text, [](const std::string& candidate) {
            return !Scenario::parse(candidate).ok();
          });
      FAIL() << "seed " << seed << " rejected: " << parsed.error().message
             << "\nminimal reproducer: " << minimal;
    }
    const std::string canonical = parsed.value().to_json().dump();
    auto re = Scenario::parse(canonical);
    ASSERT_TRUE(re.ok()) << "seed " << seed << " canonical form rejected: "
                         << re.error().message;
    EXPECT_EQ(re.value().to_json().dump(), canonical) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cia::scenario
