// A content-addressed runtime-policy revision store with digest-bound
// delta updates.
//
// The paper's §III-C numbers motivate the whole subsystem: a daily
// policy update is ~1,271 lines (0.16 MB) against a 323,734-line (46 MB)
// base, yet shipping the full policy and re-indexing it per push costs
// as if every update were a bootstrap. Here a revision is identified by
// the SHA-256 of its canonical JSON form (RuntimePolicy::to_json() over
// the ordered path map — deterministic by construction, and streamed
// into the hash without building the tree), and an update travels as a
// PolicyDelta: the base revision's digest, the target's, and the
// add/remove/replace entry patch between them. A delta entry holds its
// acceptable hashes as 32-byte digests, as RuntimePolicy does; hex
// exists only on the wire (PolicyDelta::to_json/from_json).
//
// The digest binding implements the Ozga et al. "verify the update
// before the node does" semantics: apply() refuses a delta whose base
// digest does not name the policy it is applied to, and refuses its own
// output when the rebuilt policy does not hash to the claimed target —
// a verifier can never end up appraising against a policy whose
// provenance it cannot prove. apply() is pure (the base is copied before
// any mutation), so a rejected delta leaves no partial state anywhere.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "keylime/runtime_policy.hpp"

namespace cia::keylime::policy_store {

/// The content address of a policy: lowercase-hex SHA-256 of the
/// canonical JSON form (to_json().dump() — sorted paths, sorted keys).
/// The bytes are streamed from RuntimePolicy::write_canonical_json into
/// one SHA-256 context, so no JSON tree or full dump is ever built. The
/// policy memoises the 32-byte digest: the first call streams, later
/// calls (on it or on a copy of it) answer from the memo until a mutator
/// clears it, so diff() and apply() re-hash nothing the caller has
/// already hashed. Safe to call from several threads on one const policy.
std::string policy_digest(const RuntimePolicy& policy);

/// Process-wide count of digests policy_digest actually streamed (memo
/// misses): the pin that an update cycle hashes each revision once.
std::uint64_t streamed_digest_count();

/// One patched path. kAdd introduces a path absent from the base,
/// kReplace swaps the acceptable-hash list of an existing path, kRemove
/// drops it (hashes empty).
struct DeltaEntry {
  enum class Op { kAdd, kRemove, kReplace };
  Op op = Op::kAdd;
  std::string path;
  std::vector<crypto::Digest> hashes;  // empty for kRemove

  bool operator==(const DeltaEntry&) const = default;
};

const char* delta_op_name(DeltaEntry::Op op);

/// A digest-bound patch from one policy revision to another. Entries are
/// sorted by path (strictly increasing — the canonical form the strict
/// decoder enforces). When the exclude-glob list changed at all, the
/// delta carries the full new list (`excludes` engaged): exclude order
/// is part of the canonical form and the list is tiny next to the path
/// map, so wholesale replacement keeps apply() exact.
struct PolicyDelta {
  std::string base_digest;    // 64-hex, policy_digest of the base
  std::string target_digest;  // 64-hex, policy_digest of the result
  std::vector<DeltaEntry> entries;
  std::optional<std::vector<std::string>> excludes;

  bool operator==(const PolicyDelta&) const = default;

  /// Does this delta replace the exclude list? (An incremental index
  /// build must fall back to a full rebuild then: per-path exclusion
  /// verdicts are precomputed against the old globs.)
  bool touches_excludes() const { return excludes.has_value(); }

  /// Patched entry lines (the paper's "update lines").
  std::size_t entry_count() const;

  /// Canonical JSON. parse(serialize()) is the identity on valid deltas
  /// (the fuzz target's fixed-point contract).
  json::Value to_json() const;
  std::string serialize() const;

  /// Strict decode: version pinned, digests and entry hashes 64
  /// lowercase hex (crypto::digest_from_hex), entries strictly
  /// path-sorted with per-op hash arity enforced, unknown fields
  /// rejected. Anything the decoder accepts re-serializes
  /// byte-identically.
  static Result<PolicyDelta> from_json(const json::Value& doc);
  static Result<PolicyDelta> parse(const std::string& text);

  /// Serialized wire size — what a delta push actually moves.
  std::uint64_t byte_size() const;
};

/// Structural diff: the minimal add/remove/replace patch turning `base`
/// into `target`, digest-bound to both.
PolicyDelta diff(const RuntimePolicy& base, const RuntimePolicy& target);

/// Apply `delta` to `base`, verifying provenance on both ends: the base
/// must hash to delta.base_digest and the patched result must hash to
/// delta.target_digest, else an error (and no observable state anywhere
/// — the base is copied before mutation). Structural conflicts (adding
/// a path that exists, replacing/removing one that does not) are also
/// errors: they cannot occur in a delta minted by diff() against the
/// right base, so they indicate a wrong-base or tampered delta even
/// before the digest check would catch it.
Result<RuntimePolicy> apply(const RuntimePolicy& base,
                            const PolicyDelta& delta);

/// The revision store: full policies keyed by digest plus the deltas
/// linking them. put() is idempotent (content addressing: the same
/// policy always lands on the same key) and moves head to the stored
/// revision.
class PolicyStore {
 public:
  /// Store a revision; returns its digest and moves head. Idempotent.
  std::string put(const RuntimePolicy& policy);

  /// Store the delta under its (base, target) digest pair.
  void put_delta(const PolicyDelta& delta);

  /// The stored revision for a digest (nullptr when unknown).
  const RuntimePolicy* get(const std::string& digest) const;

  /// The stored delta rebasing `base_digest` onto `target_digest`
  /// (nullptr when none was put).
  const PolicyDelta* delta_between(const std::string& base_digest,
                                   const std::string& target_digest) const;

  /// Digest of the most recently put revision (empty before any put).
  const std::string& head() const { return head_; }

  std::size_t revision_count() const { return revisions_.size(); }
  std::size_t delta_count() const { return deltas_.size(); }

 private:
  std::map<std::string, RuntimePolicy> revisions_;
  std::map<std::pair<std::string, std::string>, PolicyDelta> deltas_;
  std::string head_;
};

}  // namespace cia::keylime::policy_store
