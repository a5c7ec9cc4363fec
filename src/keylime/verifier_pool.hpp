// A sharded verifier pool: the fleet partitioned across N worker threads.
//
// The paper's deployment attests a fleet continuously against a
// 46 MB runtime policy; a single verifier thread serializes every round.
// VerifierPool shards the fleet with a consistent-hash ring over agent
// ids, runs one complete verification stack per shard — virtual clock,
// simulated network, registrar, retrying transport, verifier, and
// attestation scheduler — and drives all shards concurrently, one worker
// thread per shard, joining at round boundaries.
//
// Shard isolation is what makes the pool both thread-safe and
// deterministic:
//   * no simulation object is ever touched by two threads: each shard's
//     clock/network/verifier belong to its worker during a round and to
//     the driver thread between rounds (the join is the handoff);
//   * every shard network is seeded identically (per-link fault streams
//     derive from the destination address, not the shard), so the fault
//     sequence an agent experiences is invariant to the shard count —
//     per-agent attestation verdicts do not change when the fleet is
//     re-partitioned;
//   * the shared MetricsRegistry is thread-safe and order-independent,
//     so the telemetry snapshot of a run is byte-identical for a fixed
//     (seed, shard count).
//
// Policy updates are copy-on-write: every push installs ONE immutable
// PolicyRevision (policy + index) through the pool's PolicyHead, enqueues
// a pointer to it into each owning shard's mailbox, and it is bound at
// the shard's next batch boundary (in run_round(), by the driver before
// the workers start). A batch that started under the old revision keeps
// its shared_ptr snapshot — a mid-round update never tears a lookup —
// and a migrating agent carries the very same revision object to its
// new shard.
//
// Between rounds the driver thread may freely inspect shards (verifier,
// audit chain, network stats); during advance_to()/run_round() only the
// mailbox API (push_revision) is safe to call from other threads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_clock.hpp"
#include "keylime/alert_pipeline/pipeline.hpp"
#include "keylime/migration.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/registrar.hpp"
#include "keylime/runtime_policy.hpp"
#include "keylime/scheduler.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "netsim/transport.hpp"
#include "telemetry/metrics.hpp"

namespace cia::keylime {

/// Round-boundary observer for staged policy rollouts (implemented by
/// policy_store::RolloutController). The pool invokes it once per
/// advance_to()/run_round() return, from the driver thread under
/// drive_mu_ — never from a shard worker, never on the appraisal path.
class RolloutHook {
 public:
  virtual ~RolloutHook() = default;
  virtual void on_round_boundary(SimTime now) = 0;
};

struct VerifierPoolConfig {
  std::size_t shards = 4;
  VerifierConfig verifier;
  SchedulerConfig scheduler;
  /// Stack a RetryingTransport (default RetryPolicy) between each shard
  /// verifier and its network so transient chaos faults are retried
  /// before they surface as comms alerts.
  bool retrying_transport = true;
};

class VerifierPool : public PolicySink {
 public:
  VerifierPool(std::uint64_t seed, VerifierPoolConfig config = {});
  ~VerifierPool() override;

  VerifierPool(const VerifierPool&) = delete;
  VerifierPool& operator=(const VerifierPool&) = delete;

  /// Shards ever allocated. A shrink retires shards (removes them from
  /// the ring) but never destroys them: components constructed against a
  /// shard's clock or network stay valid, and a later grow reactivates
  /// retired shards in place.
  std::size_t shard_count() const { return shards_.size(); }

  /// Shards currently on the ring (owning agents).
  std::size_t active_shard_count() const { return active_shards_; }

  /// The owning shard of an agent id (consistent-hash ring lookup over
  /// the active shards). For an enrolled agent prefer the actual
  /// assignment tracked by the pool — after a failed migration the two
  /// can differ until the next resize retries the move.
  std::size_t shard_for(const std::string& agent_id) const;

  // ------------------------------------------------- fleet construction
  // Agents live on their owning shard's network: create the Agent
  // against network(shard_for(id)), register it (each shard runs its own
  // registrar at Registrar::address()), then enroll it here.

  netsim::SimNetwork& network(std::size_t shard);
  SimClock& clock(std::size_t shard);
  Verifier& verifier(std::size_t shard);
  const Verifier& verifier(std::size_t shard) const;
  const AttestationScheduler& scheduler(std::size_t shard) const;

  /// Trust a TPM manufacturer CA on every shard registrar.
  void trust_manufacturer(const crypto::PublicKey& ca_key);

  /// Enrol an agent (already activated at its shard registrar) for
  /// continuous attestation and scheduler polling on its owning shard.
  Status enroll(const std::string& agent_id, const std::string& address);

  /// Drop an agent from the fleet (churn: the node left). Its audit
  /// records stay on whichever shards recorded them; its endpoint is
  /// detached from the owning shard network.
  Status unenroll(const std::string& agent_id);

  // ------------------------------------------------------ live resharding

  /// Resize the ring to `new_shards` active shards and live-migrate
  /// exactly the ring-moved agents to their new owners. Waits for any
  /// in-flight round to drain at the round boundary before touching
  /// topology, and binds every queued policy push before anyone moves.
  /// Each moved agent's verification state (log cursor, audit sub-chain
  /// tail, staleness counters, polling schedule) travels in a
  /// HandoffPayload over the pool's dedicated handoff network; a handoff
  /// that keeps failing under injected faults falls back to clean
  /// re-enrollment of that one agent on the destination, and if even
  /// that fails the agent simply stays on its old shard until the next
  /// resize — never a wedged shard, never a forked audit chain. Either
  /// way the moved agent stays bound to the PolicyRevision object it held.
  Status resize(std::size_t new_shards);

  /// Fault profile for the shard-to-shard handoff links (chaos testing
  /// the migration path; per-link streams key on the destination shard).
  void set_handoff_faults(const netsim::FaultProfile& faults);

  struct MigrationStats {
    std::uint64_t resizes = 0;
    std::uint64_t ok = 0;        // handoff delivered and committed
    std::uint64_t fallback = 0;  // re-enrolled cleanly on the destination
    std::uint64_t failed = 0;    // agent left on its source shard
    std::uint64_t retries = 0;   // extra handoff attempts beyond the first
  };
  const MigrationStats& migration_stats() const { return migration_; }

  /// Handoffs this agent has paid (ok + fallback moves). The resize
  /// invariance tests assert this stays 0 for every unmoved agent.
  std::uint64_t handoffs(const std::string& agent_id) const;

  // ----------------------------------------------------- policy updates
  // Thread-safe (mailbox + copy-on-write revision swap); may be called
  // while a round is in flight.

  /// PolicySink, the pool's one policy install: the pool's PolicyHead
  /// turns the push into a revision (the head itself for a same digest,
  /// an O(delta) overlay for a delta rebasing from the head, else a full
  /// build; see PolicyHead::install), counts it in
  /// cia_policy_index_builds_total{mode}, and mails that one revision
  /// object to the owning shard of every listed agent. An empty digest is
  /// refused.
  Status push_revision(const std::vector<std::string>& agent_ids,
                       const RuntimePolicy& policy, const std::string& digest,
                       const policy_store::PolicyDelta* delta) override;

  /// Tag of the head revision: revisions built so far (a reused push
  /// builds none), 0 before the first push.
  std::uint64_t policy_revision() const;

  /// The agent's bound revision tag (0 when unindexed/unknown).
  /// Driver thread, between rounds.
  std::uint64_t policy_revision_of(const std::string& agent_id) const;

  // -------------------------------------------------- faults and chaos

  /// Apply a default fault profile / scripted schedule to every shard
  /// network (per-link streams still derive from the agent address, so
  /// outcomes stay shard-count invariant).
  void set_fleet_faults(const netsim::FaultProfile& faults);
  void set_fleet_schedule(const netsim::FaultSchedule& schedule);

  // ------------------------------------------------------------ driving

  /// Advance every shard concurrently until its clock reaches `t`,
  /// batching due agents per shard per scheduler tick. Returns the
  /// number of polls this call performed. Blocks until all workers join;
  /// with telemetry attached, it then sets the scheduler's
  /// healthy/backing-off gauges to their sums over the shards.
  std::size_t advance_to(SimTime t);

  /// One batched round: every shard polls each of its agents once,
  /// concurrently, regardless of scheduler cadence. Returns the number
  /// of polls this call performed.
  std::size_t run_round();

  /// Export per-shard telemetry (batch sizes, round latency, index
  /// hit/miss counters) to `metrics`; wired through to every shard
  /// component. nullptr turns it off.
  void use_telemetry(telemetry::MetricsRegistry* metrics);

  // ------------------------------------------- alerting and revocation

  /// Attach the alert pipeline (non-owning; nullptr detaches). From the
  /// next round on, each shard worker compacts its verifier's new raw
  /// alerts into the shard's lock-free stage, and the driver merges all
  /// stages, runs the staleness scan, and closes the pipeline round at
  /// every round boundary (advance_to / run_round return) — never on the
  /// appraisal hot path. Alerts raised before attachment are not
  /// replayed. Call between rounds only.
  void use_alert_pipeline(alert_pipeline::AlertPipeline* pipeline);

  /// Attach a staged-rollout controller (non-owning; nullptr detaches).
  /// Its on_round_boundary hook runs inside the round-boundary drain,
  /// after alerts/revocations have been folded, under drive_mu_ with all
  /// shard workers joined — the same discipline as the alert pipeline,
  /// so the hook may inspect fleet state and enqueue policy pushes (they
  /// land in shard mailboxes and apply at the next batch boundary)
  /// without any lock of its own, and the appraisal hot path gains
  /// nothing. Call between rounds only.
  void use_rollout(RolloutHook* rollout);

  /// Register a pool-level revocation notifier. Shard verifiers defer
  /// their kAttesting -> kFailed events (raise() runs on shard worker
  /// threads); the driver drains every shard at the round boundary and
  /// fans the merged, deterministically ordered event stream out to
  /// pool-level notifiers — one notifier instance may therefore serve
  /// the whole fleet without any locking of its own.
  void add_notifier(RevocationNotifier* notifier);

  // -------------------------------------------------------- inspection
  // Driver thread, between rounds.

  std::optional<AgentState> state(const std::string& agent_id) const;
  Status resolve_failure(const std::string& agent_id);
  std::vector<std::string> agent_ids() const;

  /// All alerts across shards in deterministic (time, agent, log index)
  /// order.
  std::vector<Alert> alerts() const;

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t batches = 0;
    /// One count per entry appraised under an indexed revision (see
    /// Verifier::IndexStats).
    std::uint64_t index_hits = 0;
    std::uint64_t index_misses = 0;
    /// Always 0: no shard keeps a verdict cache. Kept only because
    /// fleetbench's replay still reads these two fields.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t policy_swaps = 0;
  };
  Stats stats() const;

 private:
  struct PendingPolicy {
    std::string agent_id;
    std::shared_ptr<const PolicyRevision> revision;
  };

  struct Shard {
    Shard(std::uint64_t pool_seed, std::size_t index,
          const VerifierPoolConfig& config);

    std::size_t index;
    SimClock clock;
    netsim::SimNetwork network;
    Registrar registrar;
    Verifier verifier;
    std::unique_ptr<netsim::RetryingTransport> transport;
    AttestationScheduler scheduler;

    // Policy mailbox: filled by any thread, drained by the shard worker
    // at advance_to's batch boundaries, or by the driver between rounds
    // and at the start of run_round().
    std::mutex mailbox_mu;
    std::vector<PendingPolicy> mailbox;

    // Tallies owned by whoever currently owns the shard (worker during
    // a round, driver between rounds).
    std::uint64_t polls = 0;
    std::uint64_t batches = 0;
    std::uint64_t policy_swaps = 0;
    std::uint64_t exported_hits = 0;    // index stats already exported
    std::uint64_t exported_misses = 0;

    // Alert-pipeline stage: the worker folds alerts_[alerts_staged..)
    // into per-key partials during its round; the driver takes the
    // stage at the boundary. Same single-owner discipline as the rest
    // of the shard, so no lock.
    alert_pipeline::ShardStage alert_stage;
    std::size_t alerts_staged = 0;
  };

  /// Receiving end of the handoff link: one port per shard, attached to
  /// the pool's handoff network at "shard:<index>".
  struct MigrationPort : netsim::Endpoint {
    MigrationPort(VerifierPool* pool, std::size_t shard)
        : pool(pool), shard(shard) {}
    VerifierPool* pool;
    std::size_t shard;
    Result<Bytes> handle(const std::string& kind,
                         const Bytes& payload) override;
  };

  void apply_pending(Shard& shard);

  /// Mail one revision to the owning shard of every listed agent.
  void enqueue(const std::vector<std::string>& agent_ids,
               const std::shared_ptr<const PolicyRevision>& revision);

  void record_batch(Shard& shard, std::size_t batch_size, SimTime started);

  /// Compact the shard verifier's not-yet-staged alerts into the shard's
  /// pipeline stage (worker thread during a round, driver at drains).
  void stage_alerts(Shard& shard);

  /// The round-boundary drain, under drive_mu_ with all workers joined:
  /// deliver deferred revocations (shard-local notifiers in shard order,
  /// then the merged event stream to pool notifiers), then fold every
  /// shard's alert stage plus the staleness scan into the pipeline and
  /// close its round.
  void drain_round_boundary_locked();

  /// Run `body(shard)` on one worker thread per shard and join.
  void parallel_shards(const std::function<void(Shard&)>& body);

  /// The actual shard assignment of an enrolled agent; falls back to the
  /// ring for unknown ids.
  std::size_t owner_of(const std::string& agent_id) const;

  /// Fetch a shard pointer under the topology lock (safe against a
  /// concurrent resize growing shards_).
  Shard* shard_ptr(std::size_t shard);

  void rebuild_ring_locked(std::size_t active);
  void wire_shard_telemetry(Shard& shard);

  enum class MigrationResult { kOk, kFallback, kFailed };
  MigrationResult migrate_agent(const std::string& agent_id, std::size_t src,
                                std::size_t dst);
  void move_endpoint(Shard& src, Shard& dst, const std::string& address);
  Result<Bytes> accept_migration(std::size_t shard, const HandoffPayload& p);

  std::uint64_t seed_;
  VerifierPoolConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t active_shards_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  // sorted

  /// Guards ring_ and growth of shards_ (push_back may reallocate the
  /// pointer vector while a policy push indexes into it). Never taken
  /// while holding owners_mu_ is required by callers that already hold
  /// it — the pool's order is owners_mu_ -> ring_mu_.
  mutable std::mutex ring_mu_;

  /// Serializes driving (advance_to / run_round) against topology
  /// changes: resize() takes it too, so a resize blocks until in-flight
  /// round workers have joined at the round boundary and rounds started
  /// afterwards see the new topology.
  std::mutex drive_mu_;

  mutable std::mutex owners_mu_;
  std::map<std::string, std::size_t> owners_;  // enrolled id -> shard

  /// Guards head_: pushers install one at a time.
  mutable std::mutex revision_mu_;
  /// The last installed revision: what a same-digest push reuses and the
  /// base the next delta push patches.
  PolicyHead head_;

  /// Dedicated shard-to-shard handoff fabric with its own virtual clock:
  /// migration latency and injected handoff faults never touch shard
  /// clocks, so attestation timing stays partition-invariant.
  SimClock handoff_clock_;
  std::unique_ptr<netsim::SimNetwork> handoff_net_;
  std::vector<std::unique_ptr<MigrationPort>> ports_;

  std::vector<crypto::PublicKey> trusted_cas_;  // replayed onto new shards
  /// Last fleet-wide fault configuration, replayed onto shards created
  /// by a later resize — a new shard's network must misbehave exactly
  /// like the ones the migrated agents left.
  std::optional<netsim::FaultProfile> fleet_faults_;
  std::optional<netsim::FaultSchedule> fleet_schedule_;

  MigrationStats migration_;
  std::map<std::string, std::uint64_t> handoffs_;

  telemetry::MetricsRegistry* metrics_ = nullptr;

  /// Non-owning; set between rounds, read by shard workers during a
  /// round (the thread spawn/join is the happens-before edge).
  alert_pipeline::AlertPipeline* pipeline_ = nullptr;
  std::vector<RevocationNotifier*> pool_notifiers_;
  /// Non-owning; set between rounds, invoked only by the driver at the
  /// round-boundary drain.
  RolloutHook* rollout_ = nullptr;
};

}  // namespace cia::keylime
