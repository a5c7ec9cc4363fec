// Durable attestation: an append-only, hash-chained, verifier-signed
// record of every attestation round.
//
// Keylime's "durable attestation" extension makes security *auditable*:
// months later, an auditor can prove what the verifier observed and when,
// without trusting the verifier's current state. Each record binds the
// round's quote and verdict to the previous record's hash; the verifier
// signs every record, so tampering with, reordering, or rewriting history
// is detectable by anyone holding the verifier's public key.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/sim_clock.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"

namespace cia::keylime {

/// Verdict of one recorded round.
enum class AuditVerdict {
  kPassed,       // quote valid, all evaluated entries in policy
  kFailed,       // at least one alert raised
  kRebootSeen,   // measurement list restarted
  kUnreachable,  // comms failure
};

const char* audit_verdict_name(AuditVerdict v);

struct AuditRecord {
  std::uint64_t sequence = 0;
  SimTime time = 0;
  std::string agent_id;
  AuditVerdict verdict = AuditVerdict::kPassed;
  std::size_t alerts = 0;
  std::size_t log_entries_evaluated = 0;
  std::uint64_t agent_seq = 0;      // position in this agent's own sub-chain
  crypto::Digest quote_digest{};    // SHA-256 of the quote's attested message
  crypto::Digest prev_hash{};       // chain link (zero for the first record)
  crypto::Digest agent_prev_hash{}; // per-agent sub-chain link (zero at start)
  crypto::Digest record_hash{};     // hash over all fields above
  crypto::Signature signature;      // verifier's signature over record_hash

  /// Recompute the record hash from the fields (excluding hash+signature).
  crypto::Digest compute_hash() const;

  /// Hash of the per-agent sub-chain fields only. Unlike record_hash it
  /// excludes sequence/prev_hash, so an agent's sub-chain hashes are
  /// identical no matter which shard's log each record landed in — the
  /// property live resharding relies on to prove continuity.
  crypto::Digest agent_hash() const;

  json::Value to_json() const;
  static Result<AuditRecord> from_json(const json::Value& doc);
};

/// The verifier-side appender.
class AuditLog {
 public:
  /// Where an agent's sub-chain will continue: the agent_seq the next
  /// record gets and the agent_hash it must link to. Migrates with the
  /// agent so a destination shard extends — never forks — the chain.
  struct AgentTail {
    std::uint64_t next_seq = 0;
    crypto::Digest prev_hash{};
  };

  explicit AuditLog(crypto::KeyPair signing_key)
      : key_(std::move(signing_key)) {}

  const crypto::PublicKey& public_key() const { return key_.pub; }

  /// Append a record; fills sequence, prev_hash, agent_seq,
  /// agent_prev_hash, record_hash, signature.
  const AuditRecord& append(SimTime time, const std::string& agent_id,
                            AuditVerdict verdict, std::size_t alerts,
                            std::size_t evaluated,
                            const crypto::Digest& quote_digest);

  const std::vector<AuditRecord>& records() const { return records_; }

  /// Hash of the newest record (zero when the chain is empty) — the
  /// value an external anchor publishes, and what a checkpoint pins.
  crypto::Digest head() const;

  /// This agent's sub-chain continuation point (a fresh tail — next_seq 0,
  /// zero prev — when the agent has never been recorded here).
  AgentTail agent_tail(const std::string& agent_id) const;

  /// Adopt a sub-chain continuation point handed over by another shard's
  /// log (agent migration or checkpoint restore).
  void set_agent_tail(const std::string& agent_id, const AgentTail& tail);

  /// Forget an agent's tail (the agent migrated away; its records stay).
  void drop_agent_tail(const std::string& agent_id);

  /// Adopt a previously exported chain (verifier crash-recovery). The
  /// records must form a valid chain signed by this log's own key;
  /// subsequent appends continue from the restored head, so a restart
  /// never forks or truncates history undetectably. Per-agent tails are
  /// rebuilt from the records (callers holding migrated-in tails newer
  /// than the records re-seed them via set_agent_tail afterwards).
  Status restore(std::vector<AuditRecord> records);

 private:
  crypto::KeyPair key_;
  std::vector<AuditRecord> records_;
  std::map<std::string, AgentTail> tails_;
};

/// Export a chain (with the verifier's public key) as a JSON document the
/// auditor can verify offline.
json::Value export_audit_chain(const std::vector<AuditRecord>& records,
                               const crypto::PublicKey& verifier_key);

/// Import an exported chain: returns the records and the embedded key.
Result<std::pair<std::vector<AuditRecord>, crypto::PublicKey>>
import_audit_chain(const json::Value& doc);

/// Offline audit: verify a chain's integrity against the verifier's
/// public key. Detects tampered fields, broken links, reordered records,
/// and bad signatures. Also checks each agent's sub-chain linkage within
/// the log: an agent's first record may sit at any agent_seq (its earlier
/// history can live on another shard), and a later record may skip
/// forward in agent_seq (the agent migrated away and back; the records in
/// between live on other shards, and this log's own chain still pins
/// every record in it). A later record with an equal or lower agent_seq
/// is a fork, and one at exactly the next agent_seq must link to the
/// previous record's agent_hash. (Truncation of the tail requires an
/// external anchor — the caller compares the final hash against a
/// published one.)
Status verify_audit_chain(const std::vector<AuditRecord>& records,
                          const crypto::PublicKey& verifier_key);

}  // namespace cia::keylime
