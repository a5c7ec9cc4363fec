#include "experiments/fleet_experiment.hpp"

#include <memory>
#include <vector>

#include "common/strutil.hpp"
#include "core/update_orchestrator.hpp"
#include "experiments/workload.hpp"
#include "keylime/agent.hpp"
#include "keylime/registrar.hpp"
#include "keylime/scheduler.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "pkg/apt.hpp"
#include "pkg/mirror.hpp"

namespace cia::experiments {

FleetRunResult run_fleet_experiment(const FleetRunOptions& options) {
  FleetRunResult result;
  result.nodes = options.nodes;
  result.days = options.days;

  SimClock clock;
  crypto::CertificateAuthority tpm_ca("tpm-manufacturer",
                                      to_bytes("fleet-mfg-seed"));
  pkg::Archive archive(options.archive, options.seed);
  pkg::Mirror mirror(&archive);
  netsim::SimNetwork network(&clock, options.seed ^ 0xf1ee7ull);
  keylime::Registrar registrar(&network, &clock, options.seed ^ 1);
  keylime::Verifier verifier(&network, &clock, options.seed ^ 2);
  registrar.trust_manufacturer(tpm_ca.public_key());

  core::DynamicPolicyGenerator generator(&mirror, core::GeneratorConfig{});
  core::UpdateOrchestrator orchestrator(&mirror, &generator, &verifier, &clock);
  keylime::SchedulerConfig sched_config;
  sched_config.poll_interval = kHour;
  keylime::AttestationScheduler scheduler(&verifier, &clock, sched_config);

  // Build the fleet.
  std::vector<std::unique_ptr<oskernel::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::unique_ptr<pkg::AptClient>> apts;
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<std::string> provision = {"bash", "coreutils", "python3",
                                        "openssl", "curl", "sudo", "tar"};
  for (std::size_t i = 0; i < options.provision_extra; ++i) {
    const std::string name = strformat("pkg-%04zu", i);
    if (archive.find(name)) provision.push_back(name);
  }
  for (std::size_t i = 0; i < options.nodes; ++i) {
    oskernel::MachineConfig cfg;
    cfg.hostname = strformat("node-%03zu", i);
    cfg.seed = options.seed + i + 1;
    machines.push_back(std::make_unique<oskernel::Machine>(cfg, tpm_ca, &clock));
    apts.push_back(std::make_unique<pkg::AptClient>(machines.back().get(),
                                                    pkg::CostModel{}));
    if (!apts.back()->provision(archive.index(), provision).ok()) return result;
    agents.push_back(
        std::make_unique<keylime::Agent>(machines.back().get(), &network));
    if (!agents.back()->register_with(keylime::Registrar::address()).ok()) {
      return result;
    }
    if (!verifier.add_agent(cfg.hostname, agents.back()->address()).ok()) {
      return result;
    }
    orchestrator.manage({machines.back().get(), apts.back().get(), cfg.hostname});
    workloads.push_back(std::make_unique<Workload>(
        machines.back().get(), options.seed ^ (0x77 + i)));
  }
  if (!orchestrator.bootstrap().ok()) return result;
  for (const auto& agent : agents) scheduler.enroll(agent->agent_id());

  // Attestation runs over a lossy network.
  netsim::FaultConfig faults;
  faults.drop_rate = options.drop_rate;
  network.set_faults(faults);

  for (int day = 0; day < options.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour);
      if (hour == 5) {
        auto report = orchestrator.run_cycle();
        if (report.ok()) {
          result.updates.push_back(report.value().policy_stats);
          ++result.updates_run;
        }
      }
      if (hour == 8) (void)archive.release_day(day);
      if (hour == 9 || hour == 15) {
        for (auto& workload : workloads) workload->run_session();
      }
      // Sub-hour scheduler ticks so staggered polls land on time.
      for (int step = 0; step < 6; ++step) {
        clock.advance_to(static_cast<SimTime>(day) * kDay + hour * kHour +
                         step * (kHour / 6));
        result.polls += scheduler.tick();
      }
    }
  }

  for (const auto& agent : agents) {
    if (const auto* schedule = scheduler.schedule(agent->agent_id())) {
      result.comms_failures += schedule->comms_failures;
    }
  }
  for (const auto& alert : verifier.alerts()) {
    if (alert.type == keylime::AlertType::kHashMismatch ||
        alert.type == keylime::AlertType::kNotInPolicy) {
      ++result.false_positives;
    }
  }
  result.audit_records = verifier.audit().records().size();
  result.audit_chain_intact =
      keylime::verify_audit_chain(verifier.audit().records(),
                                  verifier.audit().public_key())
          .ok();
  return result;
}

}  // namespace cia::experiments
