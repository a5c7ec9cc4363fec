// Fleet-scale dynamic-policy operation: one verifier, one mirror, one
// orchestrator, N attested machines — the deployment shape the paper's
// scheme targets ("cloud providers ... large fleets of remote systems").
//
// The run exercises the whole production surface at once: staggered
// scheduler polling with backoff over a lossy network, per-cycle policy
// pushes that must keep every node green through its own upgrade, and the
// durable audit chain across all agents.
#pragma once

#include <cstdint>

#include "core/policy_generator.hpp"
#include "pkg/archive.hpp"

namespace cia::experiments {

struct FleetRunOptions {
  std::uint64_t seed = 42;
  int days = 10;
  std::size_t nodes = 5;
  pkg::ArchiveConfig archive;
  std::size_t provision_extra = 60;
  /// Packet-loss probability on the attestation network.
  double drop_rate = 0.02;
};

struct FleetRunResult {
  std::size_t nodes = 0;
  int days = 0;
  int updates_run = 0;
  std::size_t false_positives = 0;
  std::size_t polls = 0;
  std::size_t comms_failures = 0;
  std::size_t audit_records = 0;
  bool audit_chain_intact = false;
  std::vector<core::PolicyUpdateStats> updates;
};

FleetRunResult run_fleet_experiment(const FleetRunOptions& options);

}  // namespace cia::experiments
