#include "scenario/runner.hpp"

#include <utility>

#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "keylime/policy_store/rollout.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/verifier_pool.hpp"

namespace cia::scenario {

namespace {

using experiments::ChaosOptions;
using experiments::ChaosReport;
using experiments::ChurnCampaignOptions;
using experiments::ChurnReport;
using experiments::FnExperimentOptions;
using experiments::PoolFleet;
using experiments::PoolFleetOptions;
using experiments::StormOptions;
using experiments::StormReport;
using experiments::per_agent_chain_digests;
using experiments::run_alert_storm;
using experiments::run_chaos_experiment;
using experiments::run_churn_campaign;
using experiments::run_fn_experiment;

void add_check(ScenarioOutcome& out, std::string name, bool ok,
               std::string detail) {
  out.checks.push_back({std::move(name), ok, std::move(detail)});
}

/// A different shard count for rerun-based invariance checks.
std::size_t other_shard_count(std::size_t shards) {
  return shards == 3 ? 8 : 3;
}

/// Run `primary` with the log->counter bridge feeding `metrics`, so an
/// export counts the primary run's warn/error lines and no rerun's.
template <typename Run>
auto with_log_counter(telemetry::MetricsRegistry* metrics, Run&& primary) {
  if (metrics) telemetry::attach_log_counter(metrics);
  auto result = primary();
  if (metrics) telemetry::attach_log_counter(nullptr);
  return result;
}

/// Diff two per-agent digest maps; empty string == identical.
std::string digest_drift(const std::map<std::string, std::string>& a,
                         const std::map<std::string, std::string>& b) {
  for (const auto& [id, digest] : a) {
    auto it = b.find(id);
    if (it == b.end()) return id + " missing from comparison run";
    if (it->second != digest) return id + " chain digest mismatch";
  }
  for (const auto& [id, digest] : b) {
    (void)digest;
    if (!a.count(id)) return id + " missing from primary run";
  }
  return "";
}

Result<ScenarioOutcome> run_storm(const Scenario& sc,
                                  const RunOptions& options,
                                  ScenarioOutcome out) {
  StormOptions storm = lower_storm(sc);
  storm.metrics = options.metrics;
  const StormReport report = with_log_counter(
      options.metrics, [&] { return run_alert_storm(storm); });
  if (!report.status.ok()) return report.status.error();
  out.report = storm_report_json(report);
  out.incident_stream = report.incident_stream;

  if (!storm.rollout) {
    // The three accounting contracts of an unstaged storm.
    add_check(out, "incidents_match_root_causes",
              report.incidents_opened == report.root_causes,
              strformat("%llu incidents opened for %zu root causes",
                        static_cast<unsigned long long>(
                            report.incidents_opened),
                        report.root_causes));
    add_check(out, "widest_incident_spans_fleet",
              report.max_affected == report.agents,
              strformat("widest incident spans %llu of %zu agents",
                        static_cast<unsigned long long>(report.max_affected),
                        report.agents));
    add_check(out, "dedup_accounting_lossless",
              report.emitted_alerts + report.suppressed == report.raw_alerts &&
                  report.emitted_alerts < report.raw_alerts,
              strformat("raw=%llu emitted=%llu suppressed=%llu",
                        static_cast<unsigned long long>(report.raw_alerts),
                        static_cast<unsigned long long>(report.emitted_alerts),
                        static_cast<unsigned long long>(report.suppressed)));
  } else {
    // Staged-rollout contracts: the bad revision trips the health gate,
    // rolls back, and never escapes the canary slice.
    add_check(out, "rollout_rolled_back",
              report.rollout_state == "rolled_back",
              "final rollout state: " + report.rollout_state);
    add_check(out, "canary_is_proper_slice",
              !report.canary_agents.empty() &&
                  report.canary_agents.size() < report.agents,
              strformat("%zu canary agents of %zu",
                        report.canary_agents.size(), report.agents));
    add_check(out, "canary_saw_the_storm", report.canary_alerts > 0,
              strformat("%llu alerts attributed to the staged revision",
                        static_cast<unsigned long long>(
                            report.canary_alerts)));
    add_check(out, "bad_revision_contained",
              report.non_canary_bad_appraisals == 0 &&
                  report.non_canary_on_bad_revision == 0,
              strformat("%llu non-canary appraisals under the staged "
                        "revision, %llu non-canary agents left holding it",
                        static_cast<unsigned long long>(
                            report.non_canary_bad_appraisals),
                        static_cast<unsigned long long>(
                            report.non_canary_on_bad_revision)));
  }

  if (options.self_check) {
    // Repartition invariance: a different shard count must reproduce the
    // canonical incident stream byte for byte.
    StormOptions repartitioned = storm;
    repartitioned.shards = other_shard_count(storm.shards);
    repartitioned.metrics = nullptr;
    const StormReport other = run_alert_storm(repartitioned);
    add_check(out, "incident_stream_partition_invariant",
              other.status.ok() &&
                  other.incident_stream == report.incident_stream &&
                  other.rollout_state == report.rollout_state &&
                  other.canary_agents == report.canary_agents,
              strformat("%zu vs %zu shards (%zu-byte stream)", storm.shards,
                        repartitioned.shards, report.incident_stream.size()));

    // Resize invariance: toggling a mid-storm resize (adding one when
    // the file has none, removing the file's own otherwise) must not
    // disturb the stream either.
    StormOptions toggled = storm;
    toggled.metrics = nullptr;
    if (storm.resize_shards == 0) {
      toggled.resize_round = storm.storm_rounds / 2;
      toggled.resize_shards = other_shard_count(storm.shards);
    } else {
      toggled.resize_round = 0;
      toggled.resize_shards = 0;
    }
    const StormReport resized = run_alert_storm(toggled);
    add_check(out, "incident_stream_resize_invariant",
              resized.status.ok() &&
                  resized.incident_stream == report.incident_stream &&
                  resized.rollout_state == report.rollout_state,
              storm.resize_shards == 0
                  ? strformat("added resize to %zu shards at storm round %zu",
                              toggled.resize_shards, toggled.resize_round)
                  : "removed the scheduled mid-storm resize");
  }
  return out;
}

Result<ScenarioOutcome> run_churn(const Scenario& sc,
                                  const RunOptions& options,
                                  ScenarioOutcome out) {
  const PoolFleetOptions fleet_options = lower_fleet(sc);
  const ChurnCampaignOptions campaign = lower_churn(sc);

  struct ChurnRun {
    ChurnReport report;
    std::map<std::string, std::string> digests;
    keylime::VerifierPool::MigrationStats migration;
    std::size_t active_shards = 0;
    std::size_t allocated_shards = 0;
    std::size_t alerts = 0;
  };
  auto run = [&](const std::vector<std::pair<std::size_t, std::size_t>>&
                     resizes,
                 telemetry::MetricsRegistry* metrics)
      -> Result<ChurnRun> {
    PoolFleetOptions fo = fleet_options;
    fo.metrics = metrics;
    PoolFleet fleet(fo);
    if (!fleet.init_status().ok()) return fleet.init_status().error();
    if (Status s = fleet.push_fleet_policy(); !s.ok()) return s.error();
    if (sc.faults.any()) fleet.pool().set_fleet_faults(lower_faults(sc));
    ChurnCampaignOptions co = campaign;
    co.resize_at = resizes;
    ChurnRun result;
    result.report = run_churn_campaign(fleet, co);
    if (!result.report.status.ok()) return result.report.status.error();
    result.digests = per_agent_chain_digests(fleet.pool());
    result.migration = fleet.pool().migration_stats();
    result.active_shards = fleet.pool().active_shard_count();
    result.allocated_shards = fleet.pool().shard_count();
    result.alerts = fleet.pool().alerts().size();
    return result;
  };

  auto primary = with_log_counter(options.metrics, [&] {
    return run(campaign.resize_at, options.metrics);
  });
  if (!primary.ok()) return primary.error();
  const ChurnRun& pr = primary.value();
  out.chain_digests = pr.digests;
  out.report = churn_report_json(pr.report);
  out.report.set("rounds", static_cast<std::int64_t>(campaign.rounds));
  json::Value resharding;
  resharding.set("resizes", static_cast<std::int64_t>(pr.migration.resizes));
  resharding.set("migrations_ok", static_cast<std::int64_t>(pr.migration.ok));
  resharding.set("fallback", static_cast<std::int64_t>(pr.migration.fallback));
  resharding.set("failed", static_cast<std::int64_t>(pr.migration.failed));
  resharding.set("retries", static_cast<std::int64_t>(pr.migration.retries));
  out.report.set("resharding", std::move(resharding));
  out.report.set("active_shards", static_cast<std::int64_t>(pr.active_shards));
  out.report.set("allocated_shards",
                 static_cast<std::int64_t>(pr.allocated_shards));
  out.report.set("alerts", static_cast<std::int64_t>(pr.alerts));

  add_check(out, "no_failed_migrations", pr.migration.failed == 0,
            strformat("%llu agents stuck on their source shard",
                      static_cast<unsigned long long>(pr.migration.failed)));

  if (options.self_check) {
    // Resize drift: the identical campaign with no resizes must produce
    // byte-identical per-agent chains.
    auto baseline = run({}, nullptr);
    if (!baseline.ok()) return baseline.error();
    const std::string drift =
        digest_drift(pr.digests, baseline.value().digests);
    add_check(out, "no_resize_drift", drift.empty(),
              drift.empty()
                  ? strformat("%zu agent chains identical vs no-resize "
                              "baseline",
                              pr.digests.size())
                  : drift);
  }
  return out;
}

Result<ScenarioOutcome> run_fleet(const Scenario& sc,
                                  const RunOptions& options,
                                  ScenarioOutcome out) {
  namespace ps = keylime::policy_store;
  struct FleetRun {
    std::size_t polls = 0;
    std::size_t failed = 0;
    std::size_t alerts = 0;
    keylime::VerifierPool::Stats stats;
    std::uint64_t revision = 0;
    std::map<std::string, std::string> digests;
    // Staged-rollout outcome (policy_rollout runs only).
    std::string rollout_state;
    std::size_t canary = 0;
    std::uint64_t target_revision = 0;
    std::size_t on_target = 0;  // agents holding the staged revision at end
  };
  auto run = [&](std::size_t shards, telemetry::MetricsRegistry* metrics)
      -> Result<FleetRun> {
    PoolFleetOptions fo = lower_fleet(sc);
    fo.shards = shards;
    fo.metrics = metrics;
    PoolFleet fleet(fo);
    if (!fleet.init_status().ok()) return fleet.init_status().error();
    std::unique_ptr<ps::RolloutController> rollout;
    if (sc.policy_rollout) {
      // Content-addressed bootstrap, then stage a benign delta revision
      // (the fleet policy plus a few synthetic paths no machine ever
      // executes): it bakes clean and must auto-promote fleet-wide.
      const keylime::RuntimePolicy good = fleet.fleet_policy();
      if (Status s = fleet.pool().push_revision(
              fleet.agent_ids(), good, ps::policy_digest(good), nullptr);
          !s.ok()) {
        return s.error();
      }
      keylime::RuntimePolicy target = good;
      for (int i = 0; i < 4; ++i) {
        const std::string path = strformat("/opt/rollout/extra-%02d", i);
        target.allow(path, crypto::sha256("rollout:" + path));
      }
      ps::RolloutConfig rc;
      rc.canary_fraction = sc.policy_rollout->canary_fraction;
      rc.seed = sc.policy_rollout->seed;
      rc.bake_rounds = sc.policy_rollout->bake_rounds;
      rc.alert_budget =
          static_cast<std::uint64_t>(sc.policy_rollout->alert_budget);
      rollout = std::make_unique<ps::RolloutController>(&fleet.pool(), rc);
      rollout->use_telemetry(metrics);
      fleet.pool().use_rollout(rollout.get());
      if (Status s = rollout->begin(good, target); !s.ok()) return s.error();
    } else if (Status s = fleet.push_fleet_policy(); !s.ok()) {
      return s.error();
    }
    if (sc.faults.any()) fleet.pool().set_fleet_faults(lower_faults(sc));
    FleetRun result;
    for (std::int64_t round = 0; round < sc.fleet_run.rounds; ++round) {
      fleet.run_workload_round(static_cast<std::uint64_t>(round));
      result.polls += fleet.pool().run_round();
    }
    for (const std::string& id : fleet.agent_ids()) {
      if (fleet.pool().state(id) == keylime::AgentState::kFailed) {
        ++result.failed;
      }
    }
    result.alerts = fleet.pool().alerts().size();
    result.stats = fleet.pool().stats();
    result.revision = fleet.pool().policy_revision();
    result.digests = per_agent_chain_digests(fleet.pool());
    if (rollout) {
      result.rollout_state = ps::rollout_state_name(rollout->state());
      result.canary = rollout->canary_agents().size();
      result.target_revision = rollout->target_revision();
      for (const std::string& id : fleet.agent_ids()) {
        if (fleet.pool().policy_revision_of(id) == result.target_revision) {
          ++result.on_target;
        }
      }
      fleet.pool().use_rollout(nullptr);
    }
    return result;
  };

  auto primary = with_log_counter(options.metrics, [&] {
    return run(static_cast<std::size_t>(sc.fleet.shards), options.metrics);
  });
  if (!primary.ok()) return primary.error();
  const FleetRun& pr = primary.value();
  out.chain_digests = pr.digests;
  out.report.set("agents", static_cast<std::int64_t>(sc.fleet.agents));
  out.report.set("shards", static_cast<std::int64_t>(sc.fleet.shards));
  out.report.set("rounds", sc.fleet_run.rounds);
  out.report.set("polls", static_cast<std::int64_t>(pr.polls));
  out.report.set("batches", static_cast<std::int64_t>(pr.stats.batches));
  out.report.set("index_hits", static_cast<std::int64_t>(pr.stats.index_hits));
  out.report.set("index_misses",
                 static_cast<std::int64_t>(pr.stats.index_misses));
  out.report.set("policy_revision", static_cast<std::int64_t>(pr.revision));
  out.report.set("policy_swaps",
                 static_cast<std::int64_t>(pr.stats.policy_swaps));
  out.report.set("alerts", static_cast<std::int64_t>(pr.alerts));
  out.report.set("failed_agents", static_cast<std::int64_t>(pr.failed));
  if (sc.policy_rollout) {
    out.report.set("rollout_state", pr.rollout_state);
    out.report.set("canary_agents", static_cast<std::int64_t>(pr.canary));
    out.report.set("rollout_target_revision",
                   static_cast<std::int64_t>(pr.target_revision));
    out.report.set("agents_on_target_revision",
                   static_cast<std::int64_t>(pr.on_target));
  }

  // A benign fleet workload must never fail an agent: any kFailed state
  // is a policy false positive.
  add_check(out, "no_failed_agents", pr.failed == 0,
            strformat("%zu agents in kFailed state after a benign workload",
                      pr.failed));
  if (sc.policy_rollout) {
    add_check(out, "rollout_promoted", pr.rollout_state == "promoted",
              "final rollout state: " + pr.rollout_state);
    add_check(out, "fleet_on_promoted_revision",
              pr.on_target == pr.digests.size() && pr.on_target > 0,
              strformat("%zu of %zu agents hold the promoted revision",
                        pr.on_target, pr.digests.size()));
  }

  if (options.self_check) {
    auto other = run(other_shard_count(static_cast<std::size_t>(
                         sc.fleet.shards)),
                     nullptr);
    if (!other.ok()) return other.error();
    const FleetRun& orun = other.value();
    const std::string drift = digest_drift(pr.digests, orun.digests);
    add_check(out, "partition_invariance",
              drift.empty() && orun.rollout_state == pr.rollout_state &&
                  orun.canary == pr.canary,
              drift.empty()
                  ? strformat("%zu agent chains identical at %zu vs %zu "
                              "shards",
                              pr.digests.size(),
                              static_cast<std::size_t>(sc.fleet.shards),
                              other_shard_count(static_cast<std::size_t>(
                                  sc.fleet.shards)))
                  : drift);
  }
  return out;
}

Result<ScenarioOutcome> run_chaos(const Scenario& sc,
                                  const RunOptions& options,
                                  ScenarioOutcome out) {
  ChaosOptions chaos = lower_chaos(sc);
  chaos.metrics = options.metrics;
  chaos.tracer = options.tracer;
  const ChaosReport report = with_log_counter(
      options.metrics, [&] { return run_chaos_experiment(chaos); });
  if (!report.valid) {
    return err(Errc::kInvalidArgument,
               "chaos rig setup failed for script \"" + sc.chaos.script +
                   "\"");
  }
  out.report = chaos_report_json(report);

  // The resilience predicate, one named verdict per clause.
  add_check(out, "no_transport_false_positives",
            report.transport_false_positives == 0,
            strformat("%zu transport-attributable policy alerts",
                      report.transport_false_positives));
  add_check(out, "liveness",
            report.liveness_ok,
            strformat("slowest recovery %llds after the fault window",
                      static_cast<long long>(report.recovery_time)));
  add_check(out, "audit_chain_intact", report.audit_chain_ok,
            strformat("%zu records%s", report.audit_records,
                      report.verifier_restarted ? ", spans verifier restart"
                                                : ""));
  add_check(out, "injected_violation_detected",
            !report.violation_injected || report.genuine_detected,
            report.violation_injected
                ? strformat("%zu policy alerts on the victim",
                            report.genuine_alerts)
                : "no violation injected in this script");
  add_check(out, "checkpoint_roundtrip", report.checkpoint_roundtrip_ok,
            report.verifier_restarted
                ? "checkpoint -> restore -> checkpoint byte-identical"
                : "no verifier restart in this script");
  return out;
}

Result<ScenarioOutcome> run_attacks(const Scenario& sc,
                                    const RunOptions& options,
                                    ScenarioOutcome out) {
  (void)options;
  const std::vector<experiments::AttackReport> reports =
      run_fn_experiment(lower_attacks(sc));
  out.report = attacks_report_json(reports);

  // The Table II expectations: the stock stack detects every naive
  // attacker immediately, every adaptive attacker evades, and the §IV-C
  // mitigations recover exactly the samples the paper says they do.
  bool basic_ok = true;
  bool adaptive_ok = true;
  bool mitigated_ok = true;
  std::string basic_detail = "all samples detected immediately";
  std::string adaptive_detail = "all adaptive samples evade the stock stack";
  std::string mitigated_detail = "mitigation outcomes match Table II";
  for (const experiments::AttackReport& r : reports) {
    if (r.basic != experiments::DetectionOutcome::kDetectedImmediately) {
      basic_ok = false;
      basic_detail = r.name + ": basic attacker not detected immediately";
    }
    if (r.adaptive != experiments::DetectionOutcome::kEvaded) {
      adaptive_ok = false;
      adaptive_detail = r.name + ": adaptive attacker failed to evade";
    }
    const bool evaded =
        r.mitigated == experiments::DetectionOutcome::kEvaded;
    if (evaded == r.paper_expects_mitigable) {
      mitigated_ok = false;
      mitigated_detail =
          r.name + (evaded ? ": evaded a mitigation the paper expects to work"
                           : ": detected despite the paper calling it "
                             "unmitigable");
    }
  }
  add_check(out, "basic_detected_immediately", basic_ok, basic_detail);
  add_check(out, "adaptive_evades", adaptive_ok, adaptive_detail);
  add_check(out, "mitigations_match_paper", mitigated_ok, mitigated_detail);
  return out;
}

}  // namespace

PoolFleetOptions lower_fleet(const Scenario& sc) {
  PoolFleetOptions options;
  options.agents = static_cast<std::size_t>(sc.fleet.agents);
  options.shards = static_cast<std::size_t>(sc.fleet.shards);
  options.seed = sc.seed;
  options.binaries_per_machine =
      static_cast<std::size_t>(sc.fleet.binaries_per_machine);
  options.execs_per_round =
      static_cast<std::size_t>(sc.fleet.execs_per_round);
  options.retrying_transport = sc.fleet.retrying_transport;
  return options;
}

netsim::FaultProfile lower_faults(const Scenario& sc) {
  netsim::FaultProfile faults;
  faults.drop_rate = sc.faults.drop_rate;
  faults.timeout_rate = sc.faults.timeout_rate;
  faults.duplicate_rate = sc.faults.duplicate_rate;
  faults.timeout_latency = sc.faults.timeout_latency;
  return faults;
}

StormOptions lower_storm(const Scenario& sc) {
  StormOptions options;
  options.seed = sc.seed;
  options.agents = static_cast<std::size_t>(sc.fleet.agents);
  options.shards = static_cast<std::size_t>(sc.fleet.shards);
  options.warmup_rounds = static_cast<std::size_t>(sc.storm.warmup_rounds);
  options.storm_rounds = static_cast<std::size_t>(sc.storm.storm_rounds);
  options.round_period = sc.storm.round_period;
  options.bad_paths = static_cast<std::size_t>(sc.storm.bad_paths);
  options.binaries_per_machine =
      static_cast<std::size_t>(sc.fleet.binaries_per_machine);
  options.execs_per_round =
      static_cast<std::size_t>(sc.fleet.execs_per_round);
  options.drop_rate = sc.faults.drop_rate;
  if (!sc.resize_at.empty()) {
    options.resize_round = static_cast<std::size_t>(sc.resize_at[0].round);
    options.resize_shards = static_cast<std::size_t>(sc.resize_at[0].shards);
  }
  options.pipeline.cooldown = sc.storm.pipeline.cooldown;
  options.pipeline.quiet_close = sc.storm.pipeline.quiet_close;
  options.pipeline.staleness_after =
      static_cast<std::uint64_t>(sc.storm.pipeline.staleness_after);
  options.pipeline.sample_agents =
      static_cast<std::size_t>(sc.storm.pipeline.sample_agents);
  if (sc.policy_rollout) {
    keylime::policy_store::RolloutConfig rollout;
    rollout.canary_fraction = sc.policy_rollout->canary_fraction;
    rollout.seed = sc.policy_rollout->seed;
    rollout.bake_rounds = sc.policy_rollout->bake_rounds;
    rollout.alert_budget =
        static_cast<std::uint64_t>(sc.policy_rollout->alert_budget);
    options.rollout = rollout;
  }
  return options;
}

ChurnCampaignOptions lower_churn(const Scenario& sc) {
  ChurnCampaignOptions options;
  // The campaign RNG has its own seed, derived from the scenario's.
  options.seed = sc.seed ^ 0xc4u;
  options.rounds = static_cast<std::size_t>(sc.churn.rounds);
  options.round_period = sc.churn.round_period;
  options.max_joins_per_round =
      static_cast<std::size_t>(sc.churn.max_joins_per_round);
  options.max_leaves_per_round =
      static_cast<std::size_t>(sc.churn.max_leaves_per_round);
  options.max_reboots_per_round =
      static_cast<std::size_t>(sc.churn.max_reboots_per_round);
  for (const ResizeEvent& event : sc.resize_at) {
    options.resize_at.emplace_back(static_cast<std::size_t>(event.round),
                                   static_cast<std::size_t>(event.shards));
  }
  return options;
}

ChaosOptions lower_chaos(const Scenario& sc) {
  ChaosOptions options;
  options.seed = sc.seed;
  options.nodes = static_cast<std::size_t>(sc.chaos.nodes);
  options.days = static_cast<int>(sc.chaos.days);
  options.scenario = sc.chaos.script;
  options.retrying_transport = sc.chaos.retrying_transport;
  options.archive.base_package_count =
      static_cast<std::size_t>(sc.chaos.base_packages);
  options.provision_extra =
      static_cast<std::size_t>(sc.chaos.provision_extra);
  return options;
}

FnExperimentOptions lower_attacks(const Scenario& sc) {
  FnExperimentOptions options;
  options.seed = sc.seed;
  options.archive_packages =
      static_cast<std::size_t>(sc.attacks.archive_packages);
  return options;
}

json::Value storm_report_json(const StormReport& report) {
  json::Value doc;
  doc.set("agents", static_cast<std::int64_t>(report.agents));
  doc.set("root_causes", static_cast<std::int64_t>(report.root_causes));
  doc.set("raw_alerts", static_cast<std::int64_t>(report.raw_alerts));
  doc.set("emitted_alerts", static_cast<std::int64_t>(report.emitted_alerts));
  doc.set("suppressed", static_cast<std::int64_t>(report.suppressed));
  doc.set("incidents_opened",
          static_cast<std::int64_t>(report.incidents_opened));
  doc.set("incidents_open", static_cast<std::int64_t>(report.incidents_open));
  doc.set("max_affected", static_cast<std::int64_t>(report.max_affected));
  json::Value by_severity{json::Object{}};
  for (const auto& [severity, count] : report.opened_by_severity) {
    by_severity.set(severity, static_cast<std::int64_t>(count));
  }
  doc.set("opened_by_severity", std::move(by_severity));
  doc.set("incident_stream", report.incident_stream);
  // Rollout fields only when the storm was staged, so unstaged storm
  // reports keep their pinned bytes.
  if (!report.rollout_state.empty()) {
    doc.set("rollout_state", report.rollout_state);
    doc.set("canary_agents",
            static_cast<std::int64_t>(report.canary_agents.size()));
    doc.set("rollout_target_revision",
            static_cast<std::int64_t>(report.rollout_target_revision));
    doc.set("canary_alerts",
            static_cast<std::int64_t>(report.canary_alerts));
    doc.set("non_canary_bad_appraisals",
            static_cast<std::int64_t>(report.non_canary_bad_appraisals));
    doc.set("non_canary_on_bad_revision",
            static_cast<std::int64_t>(report.non_canary_on_bad_revision));
  }
  return doc;
}

json::Value churn_report_json(const ChurnReport& report) {
  json::Value doc;
  doc.set("joins", static_cast<std::int64_t>(report.joins));
  doc.set("leaves", static_cast<std::int64_t>(report.leaves));
  doc.set("reboots", static_cast<std::int64_t>(report.reboots));
  doc.set("polls", static_cast<std::int64_t>(report.polls));
  return doc;
}

json::Value chaos_report_json(const ChaosReport& report) {
  json::Value doc;
  doc.set("script", report.scenario);
  doc.set("nodes", static_cast<std::int64_t>(report.nodes));
  doc.set("days", report.days);
  doc.set("polls", static_cast<std::int64_t>(report.polls));
  doc.set("comms_alerts", static_cast<std::int64_t>(report.comms_alerts));
  doc.set("transport_false_positives",
          static_cast<std::int64_t>(report.transport_false_positives));
  doc.set("genuine_alerts", static_cast<std::int64_t>(report.genuine_alerts));
  doc.set("violation_injected", report.violation_injected);
  doc.set("genuine_detected", report.genuine_detected);
  doc.set("fault_window_end", report.fault_window_end);
  doc.set("recovery_time", report.recovery_time);
  doc.set("liveness_ok", report.liveness_ok);
  doc.set("retries", static_cast<std::int64_t>(report.retries));
  doc.set("recovered_calls",
          static_cast<std::int64_t>(report.recovered_calls));
  doc.set("giveups", static_cast<std::int64_t>(report.giveups));
  doc.set("breaker_opens", static_cast<std::int64_t>(report.breaker_opens));
  doc.set("drops", static_cast<std::int64_t>(report.drops));
  doc.set("duplicates", static_cast<std::int64_t>(report.duplicates));
  doc.set("timeouts", static_cast<std::int64_t>(report.timeouts));
  doc.set("updates_run", report.updates_run);
  doc.set("updates_deferred",
          static_cast<std::int64_t>(report.updates_deferred));
  doc.set("audit_records", static_cast<std::int64_t>(report.audit_records));
  doc.set("audit_chain_ok", report.audit_chain_ok);
  doc.set("verifier_restarted", report.verifier_restarted);
  doc.set("checkpoint_roundtrip_ok", report.checkpoint_roundtrip_ok);
  return doc;
}

json::Value attacks_report_json(
    const std::vector<experiments::AttackReport>& reports) {
  json::Value rows{json::Array{}};
  for (const experiments::AttackReport& r : reports) {
    json::Value row;
    row.set("name", r.name);
    row.set("category", r.category);
    json::Value exploits{json::Array{}};
    for (const attacks::Problem p : r.exploits) {
      exploits.push_back(attacks::problem_name(p));
    }
    row.set("exploits", std::move(exploits));
    row.set("basic", experiments::detection_outcome_name(r.basic));
    row.set("adaptive", experiments::detection_outcome_name(r.adaptive));
    row.set("mitigated", experiments::detection_outcome_name(r.mitigated));
    row.set("paper_expects_mitigable", r.paper_expects_mitigable);
    rows.push_back(std::move(row));
  }
  json::Value doc;
  doc.set("samples", std::move(rows));
  return doc;
}

Result<ScenarioOutcome> run_scenario(const Scenario& input,
                                     const RunOptions& options) {
  Scenario sc = input;
  if (options.seed) sc.seed = *options.seed;
  ScenarioOutcome out;
  out.name = sc.name;
  out.kind = sc.kind;
  out.seed = sc.seed;
  switch (sc.kind) {
    case Kind::kStorm:
      return run_storm(sc, options, std::move(out));
    case Kind::kChurn:
      return run_churn(sc, options, std::move(out));
    case Kind::kFleet:
      return run_fleet(sc, options, std::move(out));
    case Kind::kChaos:
      return run_chaos(sc, options, std::move(out));
    case Kind::kAttacks:
      return run_attacks(sc, options, std::move(out));
  }
  return err(Errc::kInvalidArgument, "unknown scenario kind");
}

}  // namespace cia::scenario
