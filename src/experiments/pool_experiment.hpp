// A ready-made sharded-attestation fleet for benchmarks and tests.
//
// PoolFleet builds a VerifierPool plus N agent machines sharing one
// deterministic image: every machine carries the same synthetic binary
// set (content is a pure function of the path), so a single scanned
// RuntimePolicy covers the whole fleet and one PolicyRevision, pushed by
// its content digest, is shared by every shard. Machines, agents, and
// workloads are all seeded independently of the shard count, which is
// what lets the determinism tests compare per-agent verdicts across
// different pool partitions.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "keylime/agent.hpp"
#include "keylime/policy_store/rollout.hpp"
#include "keylime/verifier_pool.hpp"
#include "oskernel/machine.hpp"

namespace cia::experiments {

struct PoolFleetOptions {
  std::size_t agents = 64;
  std::size_t shards = 4;
  std::uint64_t seed = 42;
  /// Synthetic executables installed on every machine (identical
  /// content fleet-wide, so one policy covers everyone).
  std::size_t binaries_per_machine = 24;
  /// Binaries executed per machine per workload round. Successive rounds
  /// walk disjoint slices of the binary set (IMA caches unchanged files,
  /// so only first executions produce measurements to appraise).
  std::size_t execs_per_round = 4;
  keylime::VerifierConfig verifier;
  keylime::SchedulerConfig scheduler;
  bool retrying_transport = true;
  telemetry::MetricsRegistry* metrics = nullptr;
};

class PoolFleet {
 public:
  explicit PoolFleet(const PoolFleetOptions& options);
  ~PoolFleet();

  PoolFleet(const PoolFleet&) = delete;
  PoolFleet& operator=(const PoolFleet&) = delete;

  /// Construction outcome: registration or enrolment failures surface
  /// here instead of from the constructor.
  const Status& init_status() const { return init_status_; }

  keylime::VerifierPool& pool() { return *pool_; }
  const keylime::VerifierPool& pool() const { return *pool_; }

  const std::vector<std::string>& agent_ids() const { return agent_ids_; }
  oskernel::Machine& machine(std::size_t i) { return *machines_.at(i); }

  /// The policy covering the shared fleet image (every synthetic binary,
  /// /tmp excluded) — scanned once, with its content digest, from a live
  /// machine.
  const keylime::RuntimePolicy& fleet_policy() const;

  /// Push fleet_policy() to every enrolled agent by its content digest:
  /// one revision shared across all shards, or no build at all when it is
  /// already the pool's head.
  Status push_fleet_policy();

  /// One benign workload round: every machine executes a deterministic,
  /// round-varying subset of its binaries. Independent of the shard
  /// count, so the IMA log an agent accumulates is too.
  void run_workload_round(std::uint64_t round);

  /// Plant and execute an unknown binary on machine `i` — the next
  /// attestation of that agent must raise kNotInPolicy.
  void exec_unknown(std::size_t i);

  // ------------------------------------------------------------- churn

  /// Enrol a brand-new agent on the current ring (machine + TPM identity
  /// + registration + fleet policy push, which binds the joiner to the
  /// head revision with no build while the fleet policy is the head). Ids
  /// are minted fresh and NEVER reused: a reused id would restart the
  /// departed agent's audit sub-chain numbering, which the cross-shard
  /// chain invariant correctly reads as a fork. Returns the new agent id.
  Result<std::string> join_agent();

  /// The node leaves the fleet: unenroll from the pool, then destroy its
  /// agent and machine. Its audit records stay on whichever shards
  /// recorded them.
  Status leave_agent(const std::string& agent_id);

  /// Power-cycle the machine: the IMA log restarts from a fresh boot and
  /// the verifier re-walks it from offset zero.
  Status reboot_agent(const std::string& agent_id);

  /// Machine backing a live agent id; nullptr after leave_agent.
  oskernel::Machine* machine_for(const std::string& agent_id);

 private:
  Result<std::string> spawn_agent(std::size_t ordinal);
  Status push_fleet_policy(const std::vector<std::string>& agent_ids);

  PoolFleetOptions options_;
  std::unique_ptr<crypto::CertificateAuthority> tpm_ca_;
  std::unique_ptr<keylime::VerifierPool> pool_;
  std::vector<std::unique_ptr<oskernel::Machine>> machines_;
  std::vector<std::unique_ptr<keylime::Agent>> agents_;
  std::vector<std::string> agent_ids_;
  std::vector<std::string> binaries_;
  std::map<std::string, std::size_t> slot_;  // live agent id -> slot index
  std::size_t next_ordinal_ = 0;  // monotone: ids are never reused
  mutable std::optional<keylime::RuntimePolicy> cached_policy_;
  mutable std::string cached_digest_;  // policy_digest(*cached_policy_)
  Status init_status_;
};

// -------------------------------------------------------- churn campaign

struct ChurnCampaignOptions {
  std::uint64_t seed = 2026;
  std::size_t rounds = 12;
  /// Virtual time advanced per campaign round.
  SimTime round_period = 2 * kMinute;
  /// Per-round event budgets; the actual count each round is drawn
  /// uniformly from [0, max].
  std::size_t max_joins_per_round = 1;
  std::size_t max_leaves_per_round = 1;
  std::size_t max_reboots_per_round = 1;
  /// Mid-campaign resizes: before round `first`, resize the pool to
  /// `second` active shards. Empty = no-resize baseline run.
  std::vector<std::pair<std::size_t, std::size_t>> resize_at;
};

struct ChurnReport {
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t reboots = 0;
  std::size_t polls = 0;
  Status status;
};

/// Drive a deterministic enrollment-churn campaign: every round applies
/// any scheduled resize, draws join/leave/reboot events from a dedicated
/// Rng, runs a workload round, and advances the pool one period. Event
/// choice depends only on the campaign seed and the campaign's own view
/// of the live fleet — never on pool state — so the same seed produces
/// the identical event sequence with and without mid-run resizes. That is
/// what lets callers diff per-agent verdict streams across resize
/// schedules.
ChurnReport run_churn_campaign(PoolFleet& fleet,
                               const ChurnCampaignOptions& options);

// --------------------------------------------------- alert-storm scenario

/// A manufactured alert storm: after a few clean warmup rounds, a bad
/// policy revision (wrong digests for a handful of fleet binaries) is
/// pushed to every agent, while per-link drop faults keep a slice
/// of the fleet intermittently unreachable. Every agent then trips over
/// every corrupted digest — agents x bad_paths identical hash-mismatch
/// alerts, plus per-round staleness observations once
/// rounds_since_success crosses the pipeline threshold, plus scattered
/// comms failures. The attached AlertPipeline must collapse all of it
/// into O(root causes) incidents: one per corrupted digest, one fleet
/// staleness incident, one transport incident.
///
/// Fault discipline: the scenario runs WITHOUT the retrying transport
/// (a retry's backoff advances the shard clock by an amount that depends
/// on which agents share the shard) and with drop faults only, so every
/// alert timestamp — and therefore the canonical incident stream — is
/// byte-identical across shard counts and mid-storm resizes.
struct StormOptions {
  std::uint64_t seed = 42;
  std::size_t agents = 1000;
  std::size_t shards = 8;
  /// Clean rounds before the bad push.
  std::size_t warmup_rounds = 2;
  /// Rounds driven after the bad push.
  std::size_t storm_rounds = 8;
  /// Virtual time per round (the scheduler poll interval).
  SimTime round_period = 60;
  /// Fleet binaries whose digests the bad revision corrupts; chosen as
  /// the slice first-executed in the first storm round, so the whole
  /// fleet trips over them simultaneously.
  std::size_t bad_paths = 2;
  /// Fleet image shape (PoolFleetOptions passthrough).
  std::size_t binaries_per_machine = 24;
  std::size_t execs_per_round = 4;
  /// Per-link drop probability (time-free transport chaos).
  double drop_rate = 0.02;
  /// Mid-storm resize: before storm round `resize_round` (0-based),
  /// resize the pool to `resize_shards`. Disabled when resize_shards==0.
  std::size_t resize_round = 0;
  std::size_t resize_shards = 0;
  keylime::alert_pipeline::AlertPipeline::Config pipeline;
  /// When engaged, the bad revision is NOT pushed fleet-wide: a
  /// RolloutController stages it onto the deterministic canary slice and
  /// the storm becomes a canary bake — the alert budget trips the
  /// auto-rollback (or a quiet window promotes). The canary delta rebases
  /// incrementally from the good policy the warmup installed.
  std::optional<keylime::policy_store::RolloutConfig> rollout;
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct StormReport {
  Status status;
  std::size_t agents = 0;
  /// Root causes the scenario manufactured (corrupted digests, plus the
  /// staleness episode, plus the transport chaos when enabled).
  std::size_t root_causes = 0;
  /// Alerts folded into the pipeline pre-dedup: every verifier-level
  /// alert plus one synthesized staleness observation per stale agent
  /// per round.
  std::uint64_t raw_alerts = 0;
  std::uint64_t emitted_alerts = 0;   // post-dedup operator stream
  std::uint64_t suppressed = 0;
  std::uint64_t incidents_opened = 0;
  std::uint64_t incidents_open = 0;   // still open at scenario end
  /// Widest incident's exact affected-agent count.
  std::uint64_t max_affected = 0;
  std::map<std::string, std::uint64_t> opened_by_severity;
  /// Canonical incident snapshot JSON — the byte-comparable stream.
  std::string incident_stream;

  // ---- staged-rollout outcome (rollout-engaged runs only) ----
  /// Final controller state name ("rolled_back", "promoted", ...).
  std::string rollout_state;
  /// The canary slice, sorted (what the controller actually pushed to).
  std::vector<std::string> canary_agents;
  /// Pool revision number of the staged (bad) push.
  std::uint64_t rollout_target_revision = 0;
  /// Alerts attributed to the staged revision — all must come from
  /// canary agents.
  std::uint64_t canary_alerts = 0;
  /// Alerts under the staged revision raised by NON-canary agents. The
  /// containment invariant: always 0 — no agent outside the canary
  /// slice ever appraises against a revision that later rolls back.
  std::uint64_t non_canary_bad_appraisals = 0;
  /// Non-canary agents whose installed index revision is the staged one
  /// at scenario end. 0 after a rollback (the promote path legitimately
  /// moves everyone there).
  std::uint64_t non_canary_on_bad_revision = 0;
};

/// Run the storm against a fresh fleet built from the options.
StormReport run_alert_storm(const StormOptions& options);

/// Partition-independent fingerprint of every agent's audit sub-chain:
/// records are gathered across ALL shards (an agent that migrated has
/// history on several), ordered by agent_seq, and their agent_hash()
/// values folded into one hex digest per agent. Byte-identical digests
/// mean byte-identical verdict streams, alert sets, and chain linkage.
std::map<std::string, std::string> per_agent_chain_digests(
    const keylime::VerifierPool& pool);

}  // namespace cia::experiments
