// Scripted chaos scenarios against a full attestation fleet.
//
// Each scenario drives an N-node fleet (verifier + scheduler + retrying
// transport + update orchestrator + workloads) through a named fault
// script — link loss, component outages, crash loops, a mid-run verifier
// crash/restore, a mirror partition on an update day — and measures the
// three resilience invariants the paper's operational claims rest on:
//
//   1. zero comms-induced false positives: transport faults must never
//      surface as policy alerts (the §III-D "66 days, zero FP" claim
//      only means something if it survives a hostile network);
//   2. liveness: every healthy agent is re-attested within a bounded
//      window after the fault clears (no agent silently falls out of the
//      attestation loop);
//   3. audit-chain integrity: the signed round chain verifies end to end,
//      including across a verifier crash/checkpoint/restore.
//
// A genuine policy violation is injected into the lossiest scenario to
// prove the pipeline still detects real compromise while absorbing
// transport faults — resilience must not become blindness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.hpp"
#include "pkg/archive.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cia::experiments {

struct ChaosOptions {
  std::uint64_t seed = 42;
  std::size_t nodes = 6;
  int days = 5;
  /// One of chaos_scenarios().
  std::string scenario = "wan-loss";
  pkg::ArchiveConfig archive;
  std::size_t provision_extra = 30;
  /// Stack a RetryingTransport between the verifier/agents and the lossy
  /// network (disable to measure how much the retry layer absorbs).
  bool retrying_transport = true;
  /// Optional observability: when set, every component of the rig
  /// (network, transport, verifier — including a restored one —, agents,
  /// scheduler, orchestrator) exports its metrics here and the verifier
  /// emits per-round span trees on `tracer`. Telemetry never changes the
  /// simulated outcome.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
};

struct ChaosReport {
  std::string scenario;
  std::size_t nodes = 0;
  int days = 0;
  bool valid = false;  // rig construction + enrolment succeeded

  // Attestation outcomes.
  std::size_t polls = 0;
  std::size_t comms_alerts = 0;  // transient kCommsFailure alerts
  /// Policy alerts (hash-mismatch / not-in-policy) NOT explained by the
  /// injected violation — must be 0 in every scenario.
  std::size_t transport_false_positives = 0;
  /// Policy alerts on the victim node after the injected violation.
  std::size_t genuine_alerts = 0;
  bool violation_injected = false;
  bool genuine_detected = false;

  // Recovery after the scripted fault window.
  SimTime fault_window_end = 0;
  /// Seconds after the fault window until the slowest agent produced a
  /// reachable attestation round (-1 if an agent never recovered).
  SimTime recovery_time = -1;
  bool liveness_ok = false;

  // Transport / network counters.
  std::uint64_t retries = 0;
  std::uint64_t recovered_calls = 0;
  std::uint64_t giveups = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t timeouts = 0;

  // Update pipeline.
  int updates_run = 0;
  std::uint64_t updates_deferred = 0;

  // Durable attestation.
  std::size_t audit_records = 0;
  bool audit_chain_ok = false;
  bool verifier_restarted = false;
  /// checkpoint -> restore -> checkpoint reproduced the document (and
  /// the audit head) byte for byte.
  bool checkpoint_roundtrip_ok = true;
};

/// The named fault scripts (the scenario schema validates "script"
/// against them; each has a scenarios/chaos-NAME.json file).
const std::vector<std::string>& chaos_scenarios();

ChaosReport run_chaos_experiment(const ChaosOptions& options);

}  // namespace cia::experiments
