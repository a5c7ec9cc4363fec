// The Keylime verifier: polls agents, validates quotes, replays the IMA
// log against PCR 10, and matches every entry against the runtime policy.
//
// Failure semantics are modelled after stock Keylime and are the subject
// of problem P2: on the first policy violation the verifier marks the
// agent FAILED and stops polling it, leaving every subsequent measurement
// unevaluated until an operator resolves the failure. The
// `continue_on_failure` option implements the paper's recommended fix —
// keep attesting, quarantine violations as alerts, never leave the log
// partially evaluated.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "keylime/audit.hpp"
#include "keylime/messages.hpp"
#include "keylime/notifier.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/runtime_policy.hpp"
#include "netsim/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cia::keylime {

enum class AgentState {
  kAttesting,  // healthy, polled every interval
  kFailed,     // attestation failed; polling stopped (stock behaviour)
};

enum class AlertType {
  kQuoteInvalid,          // signature or nonce check failed
  kReplayMismatch,        // IMA log does not reproduce quoted PCR 10
  kHashMismatch,          // measured hash not acceptable for the path
  kNotInPolicy,           // measured path absent from the policy
  kMeasuredBootMismatch,  // PCR 0/4/7 differ from the golden refstate
  kCommsFailure,          // agent unreachable / garbled response
};

const char* alert_type_name(AlertType t);

struct Alert {
  SimTime time = 0;
  std::string agent_id;
  AlertType type = AlertType::kQuoteInvalid;
  std::string path;               // offending file (policy alerts)
  std::string observed_hash_hex;  // measured hash (policy alerts)
  std::string detail;
  std::size_t log_index = 0;  // global index of the offending entry
  /// PolicyIndex revision the entry was appraised under (0 when the
  /// agent had no indexed policy installed). Part of the alert-pipeline
  /// dedup key: the same digest alerting under two policy revisions is
  /// two distinct root causes.
  std::uint64_t policy_revision = 0;
};

/// Result of one poll round against one agent.
struct AttestationRound {
  std::size_t new_entries = 0;
  std::size_t evaluated = 0;
  std::vector<Alert> alerts;
  AgentState state = AgentState::kAttesting;
  bool reboot_detected = false;
};

struct VerifierConfig {
  /// The paper's P2 mitigation: evaluate the complete log even after a
  /// violation instead of halting at the first bad entry.
  bool continue_on_failure = false;

  /// Seed for the per-agent quote-nonce streams (defaults to the
  /// verifier's own seed). Nonces are derived from (nonce_seed, agent_id,
  /// per-agent counter), not from the verifier's shared RNG, so an
  /// agent's challenge sequence — and therefore its quote digests and
  /// audit sub-chain — does not depend on which other agents share the
  /// verifier. A VerifierPool gives every shard the same nonce_seed,
  /// which is what makes audit chains invariant under resharding.
  std::optional<std::uint64_t> nonce_seed;

  /// Queue revocation events instead of firing notifiers inline from
  /// raise(). A VerifierPool sets this on every shard verifier: raise()
  /// runs on shard worker threads, and a notifier registered on more
  /// than one shard (or at the pool level) must only ever be invoked
  /// from the driver thread at the round-boundary drain
  /// (drain_revocations()). Solo verifiers keep inline delivery.
  bool defer_revocations = false;
};

/// Golden measured-boot state (the "mb_refstate" of real Keylime): the
/// expected values of the boot-chain PCRs, captured from a known-good
/// machine of the same image. When installed for an agent, every quote's
/// PCR 0/4/7 must match or attestation fails — this is how bootkits and
/// tampered kernels surface even though IMA never measures them.
struct MbRefstate {
  crypto::Digest pcr0{};
  crypto::Digest pcr4{};
  crypto::Digest pcr7{};

  static MbRefstate capture(const tpm::Tpm2& tpm);
  bool operator==(const MbRefstate&) const = default;
};

/// The PCRs every quote covers: the measured-boot chain plus IMA's PCR.
const std::vector<int>& quoted_pcrs();

/// The outcome of a boot-log attestation: whether the agent's claimed
/// event log is consistent with the quoted PCRs, plus the component-level
/// diff against the pinned golden event log — the operator-actionable
/// answer to "PCR 4 changed, but WHAT changed?".
struct BootLogReport {
  bool log_matches_quote = false;  // events fold to the quoted PCR values
  std::vector<std::string> changed;  // same component, different digest
  std::vector<std::string> added;    // components not in the baseline
  std::vector<std::string> removed;  // baseline components now absent
  bool clean() const {
    return log_matches_quote && changed.empty() && added.empty() &&
           removed.empty();
  }
};

class Verifier : public PolicySink {
 public:
  Verifier(netsim::SimNetwork* network, SimClock* clock, std::uint64_t seed,
           VerifierConfig config = {});

  /// Route all RPCs (registrar lookups, agent quotes) through `transport`
  /// instead of the raw network — stack a netsim::RetryingTransport here
  /// so transient faults are retried before they surface as comms alerts.
  /// Passing nullptr restores the raw network path.
  void use_transport(netsim::Transport* transport);

  /// Export round/alert/appraisal metrics to `metrics` and emit one
  /// hierarchical span tree per attestation round (quote request -> TPM
  /// verify -> IMA appraisal -> policy decision) on `tracer`. Either may
  /// be nullptr; telemetry never alters attestation behaviour.
  void use_telemetry(telemetry::MetricsRegistry* metrics,
                     telemetry::Tracer* tracer = nullptr);

  /// Enrol an agent for continuous attestation. Fetches and pins its AK
  /// from the registrar; fails if the agent is not activated there.
  Status add_agent(const std::string& agent_id, const std::string& address);

  /// Install/replace the runtime policy for one agent. The policy moves
  /// into a fresh unindexed revision, so appraisal scans
  /// RuntimePolicy::check until an indexed one is bound: an operator's
  /// one-agent push pays no index build. The one install that bypasses
  /// the head; push_revision is the indexed one.
  Status set_policy(const std::string& agent_id, RuntimePolicy policy);

  /// Bind an agent to a shared revision (what push_revision and a
  /// VerifierPool's shard mailbox do: one revision per push, shared
  /// read-only across every shard and agent it covers). The swap is copy-on-write: an appraisal already running
  /// against the old revision keeps it alive through its shared_ptr.
  /// `revision` must be non-null.
  Status set_revision(const std::string& agent_id,
                      std::shared_ptr<const PolicyRevision> revision);

  /// PolicySink: installs the push through this verifier's PolicyHead,
  /// the same decision a VerifierPool makes (the head itself for a same
  /// digest, an O(delta) overlay for a delta rebasing from the head, else
  /// a full build), and binds every listed agent to that one indexed
  /// revision. An empty digest is refused.
  Status push_revision(const std::vector<std::string>& agent_ids,
                       const RuntimePolicy& policy, const std::string& digest,
                       const policy_store::PolicyDelta* delta) override;

  /// The revision an agent is bound to (nullptr for an unknown agent;
  /// never null otherwise — an agent with no policy holds
  /// PolicyRevision::empty()). Between rounds only.
  std::shared_ptr<const PolicyRevision> revision(
      const std::string& agent_id) const;

  /// Revision tag of the agent's bound revision (0 when unindexed or
  /// unknown) — what Alert::policy_revision will carry for its next
  /// appraisal. The rollout checks use this to prove no non-canary agent
  /// ever held a rolled-back revision.
  std::uint64_t policy_revision_of(const std::string& agent_id) const;

  /// Cumulative PolicyIndex lookup tallies across all agents, one count
  /// per entry appraised under an indexed revision: a hit was answered
  /// from the template-hash set or the path table, a miss fell through
  /// to the exclude-glob scan. Entries appraised without an index count
  /// in neither.
  struct IndexStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const IndexStats& index_stats() const { return index_stats_; }

  /// Install a measured-boot refstate for an agent; PCR 0/4/7 of every
  /// subsequent quote must match it.
  Status set_mb_refstate(const std::string& agent_id, MbRefstate refstate);

  /// Pin a golden boot event log (captured from a known-good machine of
  /// the same image) for component-level boot diagnostics.
  Status set_boot_baseline(const std::string& agent_id,
                           std::vector<oskernel::BootEvent> events);

  /// Fetch the agent's boot event log, check it reproduces the quoted
  /// boot-chain PCRs, and diff it against the pinned baseline.
  Result<BootLogReport> attest_boot_log(const std::string& agent_id);

  /// The policy of the agent's bound revision (nullptr for an unknown
  /// agent). Agents bound to one revision return the same pointer.
  const RuntimePolicy* policy(const std::string& agent_id) const;

  /// One attestation round: challenge, verify, evaluate.
  /// For a FAILED agent this is a no-op unless continue_on_failure.
  Result<AttestationRound> attest_once(const std::string& agent_id);

  /// Poll every enrolled agent once.
  std::vector<AttestationRound> attest_all();

  /// Operator action: clear the FAILED state so polling resumes. Pending
  /// (never-evaluated) entries are examined on the next round.
  Status resolve_failure(const std::string& agent_id);

  std::optional<AgentState> state(const std::string& agent_id) const;

  /// Entries received but not yet policy-evaluated (non-empty exactly when
  /// a failure froze evaluation mid-log — the "incomplete attestation
  /// log" of P2).
  std::size_t pending_entries(const std::string& agent_id) const;

  /// Rounds executed against this agent since its last fully successful
  /// attestation (clean round while kAttesting). Also exported as the
  /// gauge cia_verifier_rounds_since_success{agent}. The P2 blind spot
  /// made visible: under stock Keylime this freezes at its value when
  /// polling stops; under continue_on_failure it keeps growing until an
  /// operator resolves the failure — a monitorable, alertable number.
  std::uint64_t rounds_since_success(const std::string& agent_id) const;

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::vector<Alert> alerts_for(const std::string& agent_id) const;

  std::vector<std::string> agent_ids() const;

  /// The durable-attestation chain: one signed record per poll round.
  const AuditLog& audit() const { return audit_; }

  /// Adopt an audit sub-chain continuation point for an agent (live
  /// migration fallback path: the destination re-enrols the agent but
  /// must keep extending the chain the source shard started).
  void seed_audit_tail(const std::string& agent_id,
                       const AuditLog::AgentTail& tail);

  /// The enrolled address of an agent (nullopt when unknown).
  std::optional<std::string> agent_address(const std::string& agent_id) const;

  /// Checkpoint format version written by checkpoint(). restore() accepts
  /// any version up to this and refuses newer ones outright — a state
  /// blob from a future build must never be half-understood.
  static constexpr int kCheckpointVersion = 2;

  /// Serialize the verifier's complete working state — every enrolled
  /// agent's slice (pinned AK, refstates, incremental log cursor,
  /// quarantine/failure state, unevaluated entries) plus its bound
  /// policy under "policy", and the audit chain — to a JSON document. A
  /// verifier constructed with the same seed can restore() it after a
  /// crash and resume mid-fleet without duplicate alerts or a forked
  /// audit chain.
  json::Value checkpoint() const;

  /// Restore state from a checkpoint() document. The embedded audit
  /// chain must verify under this verifier's own signing key (same seed
  /// as the crashed instance). Replaces all agent state and alerts are
  /// NOT replayed — a restored FAILED agent stays failed, a restored
  /// healthy agent resumes at its saved log offset. Agents with equal
  /// embedded policies share one indexed revision, tagged 0: the
  /// checkpoint does not carry the pushed tag.
  Status restore(const json::Value& doc);

  /// Register a revocation notifier; fired on kAttesting -> kFailed
  /// transitions (inline from raise(), or at drain_revocations() when
  /// defer_revocations is set).
  void add_notifier(RevocationNotifier* notifier);

  /// Deliver every queued revocation event (defer_revocations mode) to
  /// this verifier's notifiers and hand the batch to the caller for
  /// pool-level fan-out. Must be called from the thread that owns the
  /// verifier between rounds; a pool drains every shard at each round
  /// boundary. No-op (empty result) when nothing is queued.
  std::vector<RevocationEvent> drain_revocations();

  /// Agents whose rounds_since_success is at least `min_rounds`, with
  /// their counters, in agent-id order — the alert pipeline's staleness
  /// scan (the P2 signal at fleet scope). O(agents), driver thread only.
  std::vector<std::pair<std::string, std::uint64_t>> stale_agents(
      std::uint64_t min_rounds) const;

  // ------------------------------------------- single-agent state slices
  // The unit of live migration: one agent's record in the shape
  // checkpoint() embeds it, minus the policy, plus the agent's audit
  // sub-chain tail and nonce counter, so the importing verifier
  // continues the agent's attestation history without a seam. The
  // policy binding moves by reference, whatever the policy's size.

  /// Serialize one enrolled agent's complete slice.
  Result<json::Value> export_agent(const std::string& agent_id) const;

  /// Adopt an agent slice produced by export_agent on another verifier
  /// and bind it to `revision` (a pool passes the revision the agent's
  /// owning shard holds). A null revision is kInvalidArgument. Fully
  /// validates before touching any state — a rejected slice leaves this
  /// verifier byte-identical — and is idempotent: re-importing the same
  /// slice (a duplicated handoff message) replaces the record with
  /// identical contents.
  Status import_agent(const json::Value& slice,
                      std::shared_ptr<const PolicyRevision> revision);

  /// Drop an agent (it migrated away or unenrolled). Its audit records
  /// stay — history is append-only — but its sub-chain tail is released
  /// to the destination shard.
  Status remove_agent(const std::string& agent_id);

  /// Validate an agent slice without applying it (the handoff payload
  /// decoder's hostile-input gate).
  static Status validate_agent_slice(const json::Value& slice);

 private:
  struct AgentRecord {
    std::string address;
    crypto::PublicKey ak;
    std::shared_ptr<const PolicyRevision> revision = PolicyRevision::empty();
    std::optional<MbRefstate> mb_refstate;
    std::vector<oskernel::BootEvent> boot_baseline;
    AgentState state = AgentState::kAttesting;
    std::uint64_t log_offset = 0;        // entries fetched so far
    crypto::Digest accumulated_pcr{};    // fold of all fetched entries
    std::uint32_t boot_count = 0;
    std::uint64_t rounds_since_success = 0;
    std::uint64_t nonce_counter = 0;     // per-agent challenge stream cursor
    std::deque<std::pair<std::uint64_t, ima::LogEntry>> pending;  // unevaluated
  };

  /// A fully parsed agent slice: the record, still bound to
  /// PolicyRevision::empty(), plus the audit sub-chain tail it carries
  /// (absent in v1 checkpoints).
  struct ParsedAgentSlice {
    std::string id;
    AgentRecord record;
    std::optional<AuditLog::AgentTail> tail;
  };

  json::Value agent_to_json(const std::string& agent_id,
                            const AgentRecord& rec) const;
  static Result<ParsedAgentSlice> agent_from_json(const json::Value& slice);

  /// Next 20-byte quote nonce for this agent (advances its counter).
  Bytes next_nonce(const std::string& agent_id, AgentRecord& rec);

  // path/observed_hash_hex/detail are taken by value and moved into the
  // Alert: call sites hand over freshly-built temporaries (path copies,
  // digest_hex renders), so the storm path pays one string construction
  // per field instead of construct-then-copy.
  void raise(AgentRecord& rec, const std::string& agent_id, AlertType type,
             std::string path, std::string observed_hash_hex,
             std::string detail, std::size_t log_index,
             AttestationRound& round);

  Result<AttestationRound> attest_once_impl(const std::string& agent_id);

  /// One policy verdict on the appraisal hot path: PolicyIndex::appraise
  /// for an indexed revision (one template-hash probe for an allowed
  /// entry), the linear RuntimePolicy scan for an unindexed one.
  /// `template_hash` must be the hash of the entry's own data: computed
  /// and compared this round for a fresh entry, or checked by
  /// agent_from_json for a backlog entry restored or imported from JSON.
  /// An allowed line's template hash under another path would otherwise
  /// be allowed outright.
  PolicyMatch appraise(const PolicyRevision& revision, std::string_view path,
                       const crypto::Digest& file_hash,
                       const crypto::Digest& template_hash);

  /// Open a child span on the attached tracer (no-op scope when tracing
  /// is off).
  std::optional<telemetry::Tracer::Scope> trace_span(const char* name);

  netsim::SimNetwork* network_;
  netsim::Transport* transport_;  // defaults to network_
  SimClock* clock_;
  Rng rng_;
  VerifierConfig config_;
  std::uint64_t nonce_seed_;
  std::map<std::string, AgentRecord> agents_;
  std::vector<Alert> alerts_;
  AuditLog audit_;
  std::vector<RevocationNotifier*> notifiers_;
  std::vector<RevocationEvent> pending_revocations_;  // defer_revocations
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  crypto::Digest last_quote_digest_{};  // set by attest_once_impl
  IndexStats index_stats_;
  PolicyHead head_;  // the last revision push_revision installed
};

}  // namespace cia::keylime
