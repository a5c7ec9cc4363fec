#include "experiments/chaos_experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "common/strutil.hpp"
#include "core/update_orchestrator.hpp"
#include "experiments/workload.hpp"
#include "keylime/agent.hpp"
#include "keylime/registrar.hpp"
#include "keylime/scheduler.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "netsim/transport.hpp"
#include "pkg/apt.hpp"
#include "pkg/mirror.hpp"

namespace cia::experiments {

const std::vector<std::string>& chaos_scenarios() {
  static const std::vector<std::string> kScenarios = {
      "wan-loss",         "agent-crash-loop", "verifier-restart",
      "registrar-outage", "mirror-partition", "flaky-window"};
  return kScenarios;
}

namespace {

constexpr const char* kBackdoorPath = "/usr/local/bin/backdoor";

bool known_scenario(const std::string& name) {
  const auto& all = chaos_scenarios();
  return std::find(all.begin(), all.end(), name) != all.end();
}

}  // namespace

ChaosReport run_chaos_experiment(const ChaosOptions& options) {
  ChaosReport report;
  report.scenario = options.scenario;
  report.nodes = options.nodes;
  report.days = options.days;
  if (!known_scenario(options.scenario) || options.nodes == 0 ||
      options.days < 2) {
    return report;
  }

  // ------------------------------------------------------------- the rig
  SimClock clock;
  // The rig owns its clock; a caller-provided tracer must read it, not
  // whatever placeholder it was constructed with.
  if (options.tracer) options.tracer->bind_clock(&clock);
  crypto::CertificateAuthority tpm_ca("tpm-manufacturer",
                                      to_bytes("chaos-mfg-seed"));
  pkg::Archive archive(options.archive, options.seed);
  pkg::Mirror mirror(&archive);
  netsim::SimNetwork network(&clock, options.seed ^ 0xc4a05ull);
  keylime::Registrar registrar(&network, &clock, options.seed ^ 1);
  registrar.trust_manufacturer(tpm_ca.public_key());

  // The paper's P2 fix is on: a genuine violation must not freeze
  // evidence collection mid-scenario.
  keylime::VerifierConfig verifier_config;
  verifier_config.continue_on_failure = true;
  auto verifier = std::make_unique<keylime::Verifier>(
      &network, &clock, options.seed ^ 2, verifier_config);

  netsim::RetryPolicy retry_policy;
  retry_policy.max_attempts = 5;
  retry_policy.base_backoff = 2;
  retry_policy.max_backoff = 60;
  netsim::RetryingTransport transport(&network, &clock, options.seed ^ 3,
                                      retry_policy);
  if (options.retrying_transport) verifier->use_transport(&transport);
  network.use_telemetry(options.metrics);
  transport.use_telemetry(options.metrics, options.tracer);
  verifier->use_telemetry(options.metrics, options.tracer);

  core::DynamicPolicyGenerator generator(&mirror, core::GeneratorConfig{});
  // Tight ops bound: a snapshot older than 18h (i.e. from before the
  // previous day's window) is stale; a partitioned mirror defers the
  // update window instead of upgrading nodes from old bits.
  core::OrchestratorConfig orch_config;
  orch_config.max_mirror_staleness = 18 * kHour;
  core::UpdateOrchestrator orchestrator(&mirror, &generator, verifier.get(),
                                        &clock, orch_config);
  orchestrator.use_telemetry(options.metrics, options.tracer);
  keylime::SchedulerConfig sched_config;
  sched_config.poll_interval = kHour;
  keylime::AttestationScheduler scheduler(verifier.get(), &clock, sched_config);
  scheduler.use_telemetry(options.metrics);

  std::vector<std::unique_ptr<oskernel::Machine>> machines;
  std::vector<std::unique_ptr<pkg::AptClient>> apts;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<std::string> provision = {"bash", "coreutils", "python3",
                                        "openssl", "curl", "sudo", "tar"};
  for (std::size_t i = 0; i < options.provision_extra; ++i) {
    const std::string name = strformat("pkg-%04zu", i);
    if (archive.find(name)) provision.push_back(name);
  }
  const auto build_node = [&](const std::string& hostname, std::uint64_t seed)
      -> bool {
    oskernel::MachineConfig cfg;
    cfg.hostname = hostname;
    cfg.seed = seed;
    machines.push_back(std::make_unique<oskernel::Machine>(cfg, tpm_ca, &clock));
    apts.push_back(std::make_unique<pkg::AptClient>(machines.back().get(),
                                                    pkg::CostModel{}));
    if (!apts.back()->provision(archive.index(), provision).ok()) return false;
    agents.push_back(
        std::make_unique<keylime::Agent>(machines.back().get(), &network));
    if (options.retrying_transport) agents.back()->use_transport(&transport);
    agents.back()->use_telemetry(options.metrics);
    return true;
  };
  for (std::size_t i = 0; i < options.nodes; ++i) {
    if (!build_node(strformat("node-%03zu", i), options.seed + i + 1)) {
      return report;
    }
    if (!agents.back()->register_with(keylime::Registrar::address()).ok()) {
      return report;
    }
    const std::string id = machines.back()->hostname();
    if (!verifier->add_agent(id, agents.back()->address()).ok()) return report;
    orchestrator.manage({machines.back().get(), apts.back().get(), id});
    workloads.push_back(std::make_unique<Workload>(
        machines.back().get(), options.seed ^ (0xc4 + i)));
  }
  if (!orchestrator.bootstrap().ok()) return report;
  for (std::size_t i = 0; i < options.nodes; ++i) {
    scheduler.enroll(machines[i]->hostname());
  }
  report.valid = true;

  // ------------------------------------------------- the fault scripts
  const int fault_day = std::min(1, options.days - 1);
  const int mid_day = std::min(2, options.days - 1);
  const std::string victim_id = machines.front()->hostname();
  SimTime inject_time = -1;
  SimTime restart_time = -1;
  const SimTime outage_end = fault_day * kDay + 15 * kHour;

  if (options.scenario == "wan-loss") {
    netsim::FaultProfile lossy;
    lossy.drop_rate = 0.10;
    network.set_faults(lossy);
    inject_time = mid_day * kDay + 12 * kHour + 30 * kMinute;
    report.fault_window_end = (options.days - 1) * kDay;
    report.violation_injected = true;
  } else if (options.scenario == "agent-crash-loop") {
    // The victim's link dies for 30 minutes, six times in a row.
    netsim::FaultSchedule crash_loop;
    for (int k = 0; k < 6; ++k) {
      const SimTime start = fault_day * kDay + k * kHour;
      crash_loop.outage(start, start + 30 * kMinute);
    }
    network.set_link_schedule(agents.front()->address(),
                              std::move(crash_loop));
    report.fault_window_end = fault_day * kDay + 5 * kHour + 30 * kMinute;
  } else if (options.scenario == "verifier-restart") {
    restart_time = mid_day * kDay + 12 * kHour;
    report.fault_window_end = restart_time;
  } else if (options.scenario == "registrar-outage") {
    netsim::FaultSchedule outage;
    outage.outage(fault_day * kDay + 9 * kHour, outage_end);
    network.set_link_schedule(keylime::Registrar::address(),
                              std::move(outage));
    report.fault_window_end = outage_end;
  } else if (options.scenario == "mirror-partition") {
    // Toggled inside the day loop: offline for all of mid_day — which
    // covers that day's 05:00 update window — back the morning after.
    report.fault_window_end = (mid_day + 1) * kDay;
  } else if (options.scenario == "flaky-window") {
    netsim::FaultProfile flaky;
    flaky.drop_rate = 0.40;
    flaky.timeout_rate = 0.10;
    flaky.duplicate_rate = 0.05;
    flaky.timeout_latency = 20;
    netsim::FaultSchedule window;
    window.add(mid_day * kDay + 6 * kHour, mid_day * kDay + 12 * kHour, flaky);
    network.set_global_schedule(std::move(window));
    report.fault_window_end = mid_day * kDay + 12 * kHour;
  }

  // A late joiner for the registrar-outage scenario: it keeps trying to
  // enrol through the outage and must succeed once the registrar is back.
  std::unique_ptr<oskernel::Machine> late_machine;
  std::unique_ptr<pkg::AptClient> late_apt;
  std::unique_ptr<keylime::Agent> late_agent;
  bool late_registered = false;
  bool late_enrolled = false;
  const std::string late_id = "node-late";
  if (options.scenario == "registrar-outage") {
    oskernel::MachineConfig cfg;
    cfg.hostname = late_id;
    cfg.seed = options.seed + 1000;
    late_machine = std::make_unique<oskernel::Machine>(cfg, tpm_ca, &clock);
    late_apt = std::make_unique<pkg::AptClient>(late_machine.get(),
                                                pkg::CostModel{});
    if (!late_apt->provision(archive.index(), provision).ok()) {
      report.valid = false;
      return report;
    }
    late_agent = std::make_unique<keylime::Agent>(late_machine.get(), &network);
    if (options.retrying_transport) late_agent->use_transport(&transport);
    late_agent->use_telemetry(options.metrics);
  }

  // ------------------------------------------------------- the run loop
  std::vector<keylime::Alert> pre_restart_alerts;
  bool injected = false;
  for (int day = 0; day < options.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour);

      if (options.scenario == "mirror-partition") {
        if (day == mid_day && hour == 0) {
          mirror.set_fault(pkg::MirrorFault::kOffline);
        } else if (day == mid_day + 1 && hour == 0) {
          mirror.set_fault(pkg::MirrorFault::kNone);
        }
      }
      if (hour == 5) {
        auto cycle = orchestrator.run_cycle();
        if (cycle.ok() && !cycle.value().deferred) ++report.updates_run;
      }
      if (hour == 8) (void)archive.release_day(day);
      if (hour == 9 || hour == 15) {
        for (auto& workload : workloads) workload->run_session();
      }
      // The late joiner retries its enrolment every hour of the outage
      // day and after, until it is fully attested.
      if (late_agent && !late_enrolled &&
          clock.now() >= fault_day * kDay + 10 * kHour) {
        if (!late_registered &&
            late_agent->register_with(keylime::Registrar::address()).ok()) {
          late_registered = true;
        }
        if (late_registered &&
            verifier->add_agent(late_id, late_agent->address()).ok()) {
          (void)verifier->set_policy(late_id, orchestrator.policy());
          orchestrator.manage({late_machine.get(), late_apt.get(), late_id});
          scheduler.enroll(late_id);
          late_enrolled = true;
        }
      }

      for (int step = 0; step < 6; ++step) {
        clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour +
                         step * (kHour / 6));
        if (inject_time >= 0 && !injected && clock.now() >= inject_time) {
          // A real compromise on the victim: a dropped, unknown binary
          // gets executed. The lossy transport must not mask it.
          (void)machines.front()->fs().create_file(
              kBackdoorPath, to_bytes("elf:backdoor:payload"), true);
          (void)machines.front()->exec(kBackdoorPath);
          injected = true;
        }
        if (restart_time >= 0 && !report.verifier_restarted &&
            clock.now() >= restart_time) {
          // Crash the verifier mid-fleet: serialize, destroy, restore
          // into a fresh instance built from the same seed.
          const json::Value checkpoint = verifier->checkpoint();
          const auto& alerts = verifier->alerts();
          pre_restart_alerts.insert(pre_restart_alerts.end(), alerts.begin(),
                                    alerts.end());
          auto restored = std::make_unique<keylime::Verifier>(
              &network, &clock, options.seed ^ 2, verifier_config);
          if (options.retrying_transport) restored->use_transport(&transport);
          restored->use_telemetry(options.metrics, options.tracer);
          const Status restore_status = restored->restore(checkpoint);
          report.checkpoint_roundtrip_ok =
              restore_status.ok() &&
              restored->checkpoint().dump() == checkpoint.dump();
          verifier = std::move(restored);
          scheduler.rebind(verifier.get());
          orchestrator.rebind(verifier.get());
          report.verifier_restarted = true;
        }
        report.polls += scheduler.tick();
        if (options.metrics) {
          keylime::AttestationScheduler::publish_health(
              *options.metrics, scheduler.healthy_count(),
              scheduler.backing_off_count());
        }
      }
    }
  }

  // ------------------------------------------------------- the verdicts
  std::vector<keylime::Alert> all_alerts = std::move(pre_restart_alerts);
  all_alerts.insert(all_alerts.end(), verifier->alerts().begin(),
                    verifier->alerts().end());
  for (const auto& alert : all_alerts) {
    if (alert.type == keylime::AlertType::kCommsFailure) {
      ++report.comms_alerts;
      continue;
    }
    const bool genuine = report.violation_injected &&
                         alert.agent_id == victim_id &&
                         alert.time >= inject_time;
    if (genuine) {
      ++report.genuine_alerts;
    } else {
      ++report.transport_false_positives;
    }
  }
  report.genuine_detected = report.genuine_alerts > 0;
  report.updates_deferred = orchestrator.cycles_deferred();

  const auto& net_stats = network.stats();
  report.drops = net_stats.dropped;
  report.duplicates = net_stats.duplicated;
  report.timeouts = net_stats.timeouts;
  const auto& transport_stats = transport.stats();
  report.retries = transport_stats.retries;
  report.recovered_calls = transport_stats.recovered;
  report.giveups = transport_stats.giveups;
  report.breaker_opens = transport_stats.breaker_opens;

  report.audit_records = verifier->audit().records().size();
  report.audit_chain_ok =
      keylime::verify_audit_chain(verifier->audit().records(),
                                  verifier->audit().public_key())
          .ok();

  // Liveness: after the fault window closes, every agent (including the
  // late joiner, if any) must produce at least one reachable round.
  std::vector<std::string> expected = verifier->agent_ids();
  SimTime slowest = 0;
  bool all_recovered = !expected.empty();
  for (const std::string& id : expected) {
    SimTime first_seen = -1;
    for (const auto& record : verifier->audit().records()) {
      if (record.agent_id == id && record.time > report.fault_window_end &&
          record.verdict != keylime::AuditVerdict::kUnreachable) {
        first_seen = record.time;
        break;
      }
    }
    if (first_seen < 0) {
      all_recovered = false;
      break;
    }
    slowest = std::max(slowest, first_seen - report.fault_window_end);
  }
  if (options.scenario == "registrar-outage" && !late_enrolled) {
    all_recovered = false;
  }
  report.liveness_ok = all_recovered;
  report.recovery_time = all_recovered ? slowest : -1;
  return report;
}

}  // namespace cia::experiments
