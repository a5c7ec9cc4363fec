// Robustness suites: the headline zero-false-positive claim across seeds,
// attestation under a lossy network, and protocol edge cases.
#include <gtest/gtest.h>

#include "core/policy_analyzer.hpp"
#include "core/update_orchestrator.hpp"
#include "experiments/chaos_experiment.hpp"
#include "experiments/fp_experiment.hpp"
#include "experiments/testbed.hpp"
#include "experiments/workload.hpp"

namespace cia::experiments {
namespace {

// ------------------------------------------- zero-FP claim, seed sweep

class DynamicSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicSeedSweep, FiveDayRunStaysGreen) {
  DynamicRunOptions options;
  options.seed = GetParam();
  options.days = 5;
  options.archive.base_package_count = 130;
  options.provision_extra = 20;
  const auto result = run_dynamic_policy_experiment(options);
  EXPECT_EQ(result.false_positives, 0u)
      << "seed " << GetParam()
      << ": the dynamic policy scheme must hold for any release stream";
  EXPECT_EQ(result.updates_run, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSeedSweep,
                         ::testing::Values(7, 99, 1234, 5150, 424242));

// -------------------------------------- orchestrator coverage invariant

class OrchestratorCoverageProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrchestratorCoverageProperty, PolicyAlwaysCoversTheMachine) {
  // Invariant of the §III-C scheme: after every update cycle, every
  // package-managed executable on the machine validates against the
  // pushed policy — no stale hashes, ever. (The only uncovered file is
  // the bootloader, which measured boot covers instead of IMA.)
  TestbedOptions options;
  options.seed = GetParam();
  options.provision_extra = 20;
  options.archive.base_package_count = 120;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  core::DynamicPolicyGenerator generator(&bed.mirror, core::GeneratorConfig{});
  core::UpdateOrchestrator orchestrator(&bed.mirror, &generator, &bed.verifier,
                                        &bed.clock);
  orchestrator.manage({&bed.machine, &bed.apt, bed.agent_id()});
  ASSERT_TRUE(orchestrator.bootstrap().ok());

  for (int day = 0; day < 6; ++day) {
    (void)bed.archive.release_day(day);
    bed.clock.advance_to((day + 1) * kDay + 5 * kHour);
    auto report = orchestrator.run_cycle();
    ASSERT_TRUE(report.ok());

    const auto coverage =
        core::analyze_coverage(bed.machine, orchestrator.policy());
    EXPECT_EQ(coverage.stale_hash, 0u)
        << "seed " << GetParam() << " day " << day << ": "
        << coverage.to_string();
    EXPECT_LE(coverage.uncovered, 1u)
        << "only the bootloader may be uncovered: " << coverage.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrchestratorCoverageProperty,
                         ::testing::Values(2, 19, 77, 2024));

// -------------------------------------------------- lossy-network runs

TEST(LossyNetworkTest, AttestationSurvivesDropsWithoutFalseFailures) {
  TestbedOptions options;
  options.provision_extra = 15;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  (void)bed.verifier.set_policy(bed.agent_id(),
                                scan_machine_policy(bed.machine, true));

  netsim::FaultConfig faults;
  faults.drop_rate = 0.3;
  bed.network.set_faults(faults);

  Workload workload(&bed.machine, 5);
  std::size_t successes = 0;
  for (int i = 0; i < 50; ++i) {
    if (i % 10 == 0) workload.run_session();
    auto round = bed.verifier.attest_once(bed.agent_id());
    ASSERT_TRUE(round.ok());
    if (round.value().alerts.empty()) ++successes;
  }
  EXPECT_EQ(bed.verifier.state(bed.agent_id()), keylime::AgentState::kAttesting)
      << "packet loss must never fail an agent";
  EXPECT_GT(successes, 20u);
  for (const auto& alert : bed.verifier.alerts()) {
    EXPECT_EQ(alert.type, keylime::AlertType::kCommsFailure);
  }
}

TEST(LossyNetworkTest, TamperingNeverProducesPolicyAlerts) {
  // A man-in-the-middle can corrupt responses, but corruption must only
  // ever yield crypto failures — never a fabricated policy verdict.
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  (void)bed.verifier.set_policy(bed.agent_id(),
                                scan_machine_policy(bed.machine, true));
  (void)bed.machine.exec("/usr/bin/bash");

  netsim::FaultConfig faults;
  faults.tamper_rate = 1.0;
  bed.network.set_faults(faults);
  for (int i = 0; i < 20; ++i) {
    (void)bed.verifier.resolve_failure(bed.agent_id());
    (void)bed.verifier.attest_once(bed.agent_id());
  }
  for (const auto& alert : bed.verifier.alerts()) {
    EXPECT_TRUE(alert.type == keylime::AlertType::kQuoteInvalid ||
                alert.type == keylime::AlertType::kReplayMismatch ||
                alert.type == keylime::AlertType::kCommsFailure)
        << "tampering produced a " << keylime::alert_type_name(alert.type);
  }
}

// ------------------------------------------------- protocol edge cases

struct ProtocolRig : ::testing::Test {
  ProtocolRig()
      : ca("mfg", to_bytes("seed")),
        network(&clock, 1),
        registrar(&network, &clock, 2),
        verifier(&network, &clock, 3),
        machine(config(), ca, &clock),
        agent(&machine, &network) {
    registrar.trust_manufacturer(ca.public_key());
  }
  static oskernel::MachineConfig config() {
    oskernel::MachineConfig cfg;
    cfg.hostname = "edge";
    return cfg;
  }
  SimClock clock;
  crypto::CertificateAuthority ca;
  netsim::SimNetwork network;
  keylime::Registrar registrar;
  keylime::Verifier verifier;
  oskernel::Machine machine;
  keylime::Agent agent;
};

TEST_F(ProtocolRig, AgentRejectsUnknownMessageKind) {
  EXPECT_FALSE(network.call(agent.address(), "bogus", {}).ok());
}

TEST_F(ProtocolRig, AgentRejectsGarbagePayload) {
  EXPECT_FALSE(network.call(agent.address(), "quote", to_bytes("garbage")).ok());
}

TEST_F(ProtocolRig, RegistrarRejectsUnknownMessageKind) {
  EXPECT_FALSE(network.call(keylime::Registrar::address(), "bogus", {}).ok());
}

TEST_F(ProtocolRig, RegistrarRejectsActivationWithoutRegistration) {
  keylime::ActivateRequest req;
  req.agent_id = "never-registered";
  req.proof = Bytes(32, 0);
  EXPECT_FALSE(network
                   .call(keylime::Registrar::address(), keylime::kMsgActivate,
                         req.encode())
                   .ok());
}

TEST_F(ProtocolRig, ReRegistrationAfterRestartSucceeds) {
  ASSERT_TRUE(agent.register_with(keylime::Registrar::address()).ok());
  // The agent restarts (e.g. after a reboot) and registers again with the
  // same TPM identity; the registrar replaces the enrolment.
  EXPECT_TRUE(agent.register_with(keylime::Registrar::address()).ok());
  EXPECT_TRUE(registrar.is_active("edge"));
  EXPECT_EQ(registrar.registered_count(), 1u);
}

TEST_F(ProtocolRig, VerifierErrorsOnUnknownAgent) {
  EXPECT_FALSE(verifier.attest_once("ghost").ok());
  EXPECT_FALSE(verifier.set_policy("ghost", keylime::RuntimePolicy{}).ok());
  EXPECT_FALSE(verifier.resolve_failure("ghost").ok());
  EXPECT_FALSE(verifier.set_mb_refstate("ghost", keylime::MbRefstate{}).ok());
  EXPECT_EQ(verifier.state("ghost"), std::nullopt);
}

TEST_F(ProtocolRig, VerifierStateSurvivesManyEmptyPolls) {
  ASSERT_TRUE(agent.register_with(keylime::Registrar::address()).ok());
  ASSERT_TRUE(verifier.add_agent("edge", agent.address()).ok());
  ASSERT_TRUE(verifier.set_policy("edge", keylime::RuntimePolicy{}).ok());
  for (int i = 0; i < 100; ++i) {
    auto round = verifier.attest_once("edge");
    ASSERT_TRUE(round.ok());
    if (i > 0) {
      EXPECT_EQ(round.value().new_entries, 0u);
    }
  }
  EXPECT_TRUE(verifier.alerts().empty());
}

// ------------------------------------- verifier checkpoint / restore

TEST(CheckpointTest, RoundTripsByteForByteWithLiveState) {
  TestbedOptions options;
  options.provision_extra = 15;
  options.archive.base_package_count = 100;
  options.verifier_config.continue_on_failure = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier
                  .set_policy(bed.agent_id(),
                              scan_machine_policy(bed.machine, true))
                  .ok());

  // Accumulate real state: workload traffic, polls, and one genuine
  // violation so the checkpoint carries a failed agent + alert history.
  Workload workload(&bed.machine, 5);
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 0) workload.run_session();
    bed.clock.advance(60);
    ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());
  }
  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/usr/local/bin/rogue", to_bytes("elf:rogue"),
                               true)
                  .ok());
  (void)bed.machine.exec("/usr/local/bin/rogue");
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());
  ASSERT_FALSE(bed.verifier.alerts().empty());

  const json::Value checkpoint = bed.verifier.checkpoint();

  // "Crash": a brand-new verifier process from the same seed.
  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  ASSERT_TRUE(restored.restore(checkpoint).ok());

  // Byte-for-byte: serialize the restored instance and compare documents.
  EXPECT_EQ(restored.checkpoint().dump(), checkpoint.dump());
  // The audit chain head carried over and the whole chain verifies.
  EXPECT_EQ(restored.audit().head(), bed.verifier.audit().head());
  EXPECT_EQ(restored.audit().records().size(),
            bed.verifier.audit().records().size());
  EXPECT_TRUE(keylime::verify_audit_chain(restored.audit().records(),
                                          restored.audit().public_key())
                  .ok());
  EXPECT_EQ(restored.state(bed.agent_id()), bed.verifier.state(bed.agent_id()));
}

TEST(CheckpointTest, RestoredVerifierResumesWithoutDuplicateAlerts) {
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  options.verifier_config.continue_on_failure = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier
                  .set_policy(bed.agent_id(),
                              scan_machine_policy(bed.machine, true))
                  .ok());
  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/usr/local/bin/rogue", to_bytes("elf:rogue"),
                               true)
                  .ok());
  (void)bed.machine.exec("/usr/local/bin/rogue");
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());
  const std::size_t alerts_before = bed.verifier.alerts().size();
  ASSERT_GT(alerts_before, 0u);

  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  ASSERT_TRUE(restored.restore(bed.verifier.checkpoint()).ok());

  // The restored instance picks up at the saved log offset: re-polling
  // must not re-flag the violation it already alerted on.
  for (int i = 0; i < 5; ++i) {
    bed.clock.advance(60);
    ASSERT_TRUE(restored.attest_once(bed.agent_id()).ok());
  }
  EXPECT_TRUE(restored.alerts().empty())
      << "restore must not replay already-alerted log entries";
  // New rounds keep extending the restored chain verifiably.
  EXPECT_GT(restored.audit().records().size(),
            bed.verifier.audit().records().size());
  EXPECT_TRUE(keylime::verify_audit_chain(restored.audit().records(),
                                          restored.audit().public_key())
                  .ok());
}

TEST(CheckpointTest, RestoreRejectsAChainSignedByAnotherVerifier) {
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), {}).ok());
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());

  keylime::Verifier stranger(&bed.network, &bed.clock, 0xdeadbeef,
                             options.verifier_config);
  EXPECT_FALSE(stranger.restore(bed.verifier.checkpoint()).ok())
      << "a verifier must not adopt audit history it did not sign";
}

TEST(CheckpointTest, RestoreRejectsCheckpointsFromTheFuture) {
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), {}).ok());
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());

  // A checkpoint stamped by a newer release encodes state this build
  // cannot interpret; restoring a guess would silently drop it. The
  // guard must refuse up front, before any state is touched.
  json::Value future = bed.verifier.checkpoint();
  future.set("version", 99);
  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  const Status rejected = restored.restore(future);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::kInvalidArgument);
  // The refusal left the verifier untouched and usable.
  EXPECT_TRUE(restored.restore(bed.verifier.checkpoint()).ok());
}

TEST(CheckpointTest, RestoreIgnoresUnknownFieldsFromMinorRevisions) {
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), {}).ok());
  for (int i = 0; i < 3; ++i) {
    bed.clock.advance(60);
    ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());
  }

  // Forward compatibility within a version: a same-version writer that
  // appended a field we do not know must still restore cleanly, and the
  // state we re-serialize must be byte-identical to the original
  // checkpoint (the unknown field is ignored, not garbled into state).
  const json::Value original = bed.verifier.checkpoint();
  json::Value annotated = original;
  annotated.set("x_future_hint", "added by a later minor revision");
  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  ASSERT_TRUE(restored.restore(annotated).ok());
  EXPECT_EQ(restored.checkpoint().dump(), original.dump());
}

TEST(CheckpointTest, RestoresAnAgentWhosePolicySawARefusedAllow) {
  // A checkpoint embeds each agent's policy JSON and restore() parses it
  // back, so one line the parser refuses would refuse the whole
  // checkpoint. allow() refuses such a hash up front instead.
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  keylime::RuntimePolicy policy = scan_machine_policy(bed.machine, true);
  policy.allow("/usr/bin/tool", std::string(64, 'A'));
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), policy).ok());
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());

  const json::Value checkpoint = bed.verifier.checkpoint();
  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  const Status status = restored.restore(checkpoint);
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(restored.checkpoint().dump(), checkpoint.dump());
}

TEST(CheckpointTest, RestoreRejectsAForgedBacklogTemplateHash) {
  // Stock semantics: the first violation halts the round, so the entry
  // behind it lands in the backlog the checkpoint carries.
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  const keylime::RuntimePolicy policy = scan_machine_policy(bed.machine, true);
  ASSERT_TRUE(bed.verifier.set_policy(bed.agent_id(), policy).ok());
  for (const char* path : {"/usr/local/bin/rogue", "/usr/local/bin/rogue2"}) {
    ASSERT_TRUE(bed.machine.fs()
                    .create_file(path, to_bytes(std::string("elf:") + path),
                                 true)
                    .ok());
    ASSERT_TRUE(bed.machine.exec(path).ok());
  }
  ASSERT_TRUE(bed.verifier.attest_once(bed.agent_id()).ok());
  ASSERT_EQ(bed.verifier.pending_entries(bed.agent_id()), 1u);

  // Give the backlog entry the template hash of an allowed policy line.
  // Indexed appraisal answers from that hash alone, so restoring it would
  // let the unknown binary through as that line.
  std::string allowed_path;
  crypto::Digest allowed{};
  policy.for_each_path(
      [&](const std::string& path, const std::vector<crypto::Digest>& hashes) {
        if (allowed_path.empty() && !policy.is_excluded(path)) {
          allowed_path = path;
          allowed = hashes.front();
        }
      });
  ASSERT_FALSE(allowed_path.empty());
  const json::Value genuine = bed.verifier.checkpoint();
  json::Value forged = genuine;
  json::Value& entry = forged.as_object()
                           .at("agents")
                           .as_array()
                           .front()
                           .as_object()
                           .at("pending")
                           .as_array()
                           .front();
  ASSERT_EQ(entry.find("path")->as_string(), "/usr/local/bin/rogue2");
  entry.set("template_hash", crypto::digest_hex(crypto::template_hash_of(
                                 allowed, allowed_path)));

  keylime::Verifier restored(&bed.network, &bed.clock, 42 ^ 0x766572ull,
                             options.verifier_config);
  const std::string before = restored.checkpoint().dump();
  const Status rejected = restored.restore(forged);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::kCorrupted);
  EXPECT_EQ(restored.checkpoint().dump(), before)
      << "a rejected checkpoint must leave no partial state";
  ASSERT_TRUE(restored.restore(genuine).ok());
  EXPECT_EQ(restored.pending_entries(bed.agent_id()), 1u);
}

// ------------------------------------------------------ chaos scenarios

// ------------------------------------ P2 staleness gauge (blind spot)

TEST(ProblemP2Gauge, PollingContinuesAndStalenessGaugeGrowsAfterFailure) {
  // The P2 gap, made monitorable: with continue_on_failure the verifier
  // keeps polling a failed agent, and the per-agent "rounds since last
  // successful attestation" gauge grows round over round — an alertable
  // number where stock Keylime silently freezes.
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  options.verifier_config.continue_on_failure = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier
                  .set_policy(bed.agent_id(),
                              scan_machine_policy(bed.machine, true))
                  .ok());
  telemetry::MetricsRegistry registry;
  bed.verifier.use_telemetry(&registry);
  const telemetry::Labels agent_label{{"agent", bed.agent_id()}};

  // Clean rounds pin the gauge at zero.
  for (int i = 0; i < 3; ++i) bed.attest();
  EXPECT_EQ(bed.verifier.rounds_since_success(bed.agent_id()), 0u);
  EXPECT_EQ(registry.gauge_value("cia_verifier_rounds_since_success",
                                 agent_label),
            0.0);

  // A genuine violation: an unknown binary is dropped and executed.
  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/usr/local/bin/backdoor",
                               to_bytes("elf:backdoor"), true)
                  .ok());
  ASSERT_TRUE(bed.machine.exec("/usr/local/bin/backdoor").ok());

  const std::size_t audit_before = bed.verifier.audit().records().size();
  for (int i = 1; i <= 5; ++i) {
    bed.attest();
    // Polling continues: each round appends a durable audit record...
    EXPECT_EQ(bed.verifier.audit().records().size(), audit_before + i);
    // ...and the staleness gauge grows with every non-clean round.
    EXPECT_EQ(bed.verifier.rounds_since_success(bed.agent_id()),
              static_cast<std::uint64_t>(i));
    EXPECT_EQ(registry.gauge_value("cia_verifier_rounds_since_success",
                                   agent_label),
              static_cast<double>(i));
  }
  EXPECT_EQ(bed.verifier.state(bed.agent_id()), keylime::AgentState::kFailed);
  EXPECT_GE(registry.counter_value("cia_verifier_alerts_total",
                                   {{"agent", bed.agent_id()},
                                    {"type", "not_in_policy"}}),
            1u);

  // Operator resolves the failure; the next clean round resets the gauge.
  ASSERT_TRUE(bed.verifier.resolve_failure(bed.agent_id()).ok());
  bed.attest();
  EXPECT_EQ(bed.verifier.rounds_since_success(bed.agent_id()), 0u);
  EXPECT_EQ(registry.gauge_value("cia_verifier_rounds_since_success",
                                 agent_label),
            0.0);
}

TEST(ProblemP2Gauge, StockBehaviourFreezesTheGaugeWithPolling) {
  // Contrast: without the mitigation, polling stops after the first
  // failure and the gauge freezes — the blind spot itself.
  TestbedOptions options;
  options.provision_extra = 10;
  options.archive.base_package_count = 100;
  options.verifier_config.continue_on_failure = false;
  Testbed bed(options);
  ASSERT_TRUE(bed.enroll().ok());
  ASSERT_TRUE(bed.verifier
                  .set_policy(bed.agent_id(),
                              scan_machine_policy(bed.machine, true))
                  .ok());
  telemetry::MetricsRegistry registry;
  bed.verifier.use_telemetry(&registry);

  ASSERT_TRUE(bed.machine.fs()
                  .create_file("/usr/local/bin/backdoor",
                               to_bytes("elf:backdoor"), true)
                  .ok());
  ASSERT_TRUE(bed.machine.exec("/usr/local/bin/backdoor").ok());
  bed.attest();  // the failing round
  const std::uint64_t frozen_at =
      bed.verifier.rounds_since_success(bed.agent_id());
  EXPECT_EQ(frozen_at, 1u);
  const std::size_t audit_frozen = bed.verifier.audit().records().size();
  for (int i = 0; i < 5; ++i) bed.attest();
  // No new audit records, no gauge movement: the agent fell out of the
  // attestation loop entirely.
  EXPECT_EQ(bed.verifier.audit().records().size(), audit_frozen);
  EXPECT_EQ(bed.verifier.rounds_since_success(bed.agent_id()), frozen_at);
  EXPECT_EQ(
      registry.counter_value("cia_verifier_rounds_total",
                             {{"agent", bed.agent_id()}, {"outcome", "frozen"}}),
      5u);
}

TEST(ChaosTest, WanLossFiveDaysZeroTransportFalsePositives) {
  // The acceptance run: 10% packet loss for five days across a fleet,
  // with one genuine compromise injected mid-run. The retrying transport
  // must absorb every comms fault (zero transport-attributable alerts)
  // while the real violation is still caught.
  ChaosOptions options;
  options.scenario = "wan-loss";
  options.nodes = 4;
  options.days = 5;
  options.archive.base_package_count = 120;
  options.provision_extra = 15;
  const ChaosReport report = run_chaos_experiment(options);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.transport_false_positives, 0u);
  EXPECT_TRUE(report.violation_injected);
  EXPECT_TRUE(report.genuine_detected);
  EXPECT_GT(report.drops, 0u) << "the fault plan must actually fire";
  EXPECT_GT(report.retries, 0u);
  EXPECT_TRUE(report.liveness_ok);
  EXPECT_TRUE(report.audit_chain_ok);
}

TEST(ChaosTest, VerifierRestartPreservesAuditChainAndAlerts) {
  ChaosOptions options;
  options.scenario = "verifier-restart";
  options.nodes = 3;
  options.days = 4;
  options.archive.base_package_count = 120;
  options.provision_extra = 15;
  const ChaosReport report = run_chaos_experiment(options);
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.verifier_restarted);
  EXPECT_TRUE(report.checkpoint_roundtrip_ok)
      << "checkpoint -> restore -> checkpoint must be byte-identical";
  EXPECT_TRUE(report.audit_chain_ok)
      << "the signed chain must span the restart";
  EXPECT_EQ(report.transport_false_positives, 0u);
  EXPECT_TRUE(report.liveness_ok);
}

TEST(ChaosTest, EveryScenarioHoldsTheResilienceInvariants) {
  for (const std::string& scenario : chaos_scenarios()) {
    ChaosOptions options;
    options.scenario = scenario;
    options.nodes = 3;
    options.days = 4;
    options.archive.base_package_count = 120;
    options.provision_extra = 15;
    const ChaosReport report = run_chaos_experiment(options);
    ASSERT_TRUE(report.valid) << scenario;
    EXPECT_EQ(report.transport_false_positives, 0u) << scenario;
    EXPECT_TRUE(report.liveness_ok) << scenario;
    EXPECT_GE(report.recovery_time, 0) << scenario;
    EXPECT_LE(report.recovery_time, 2 * kHour)
        << scenario << ": recovery must be bounded";
    EXPECT_TRUE(report.audit_chain_ok) << scenario;
    if (report.violation_injected) {
      EXPECT_TRUE(report.genuine_detected) << scenario;
    }
  }
}

}  // namespace
}  // namespace cia::experiments
