// The Keylime runtime policy: an allowlist of (path -> acceptable hashes)
// plus an exclude list of glob patterns.
//
// Each acceptable hash is held as its 32-byte SHA-256 digest. Hex exists
// only at the text and JSON edges: parse()/serialize(), from_json()/
// to_json()/write_canonical_json(), and the std::string overloads of
// allow(), set_hashes() and check(), which decode it with
// crypto::digest_from_hex. The mutators refuse hex that names no digest,
// so every line a policy holds can match a measurement.
//
// Two details matter for the paper's findings:
//   * excludes are *path globs evaluated by Keylime*, independent of the
//     filesystem-level exclusions inside IMA — the mismatch between the
//     two exclusion mechanisms is what P4 exploits, and an over-broad
//     exclude ("/tmp/*") is exactly P1;
//   * a path may accumulate several acceptable hashes: during an update
//     window both the old and the new version of a file must validate
//     (§III-C "Handling Policy-File Consistency During Update");
//     deduplication afterwards drops all but the newest.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "crypto/sha256.hpp"

namespace cia::keylime {

/// Outcome of matching one IMA log entry against the policy.
enum class PolicyMatch {
  kAllowed,       // path present, hash acceptable
  kHashMismatch,  // path present, hash unknown ("modified file")
  kNotInPolicy,   // path absent ("missing file in the policy")
  kExcluded,      // path matches an exclude glob; not evaluated
};

const char* policy_match_name(PolicyMatch m);

class RuntimePolicy;

namespace policy_store {
std::string policy_digest(const RuntimePolicy& policy);  // store.hpp
}  // namespace policy_store

class RuntimePolicy {
 public:
  /// Append an acceptable hash for a path (keeps prior hashes; a hash the
  /// path already holds changes nothing).
  void allow(const std::string& path, const crypto::Digest& hash);
  /// allow() on the digest `hash_hex` names. Hex crypto::digest_from_hex
  /// rejects (anything but 64 lowercase hex digits) names no digest, so
  /// it is refused: returns false and leaves the policy untouched.
  bool allow(const std::string& path, const std::string& hash_hex);

  /// Add an exclude glob (Keylime-side, path based).
  void exclude(const std::string& glob);

  bool is_excluded(std::string_view path) const;

  /// Match a measured (path, hash) pair. The path is looked up as a
  /// string_view, so an entry decoded in place probes without a copy.
  PolicyMatch check(std::string_view path, const crypto::Digest& hash) const;
  /// check() on the digest `hash_hex` names; hex that names none matches
  /// no line (kHashMismatch for a listed path).
  PolicyMatch check(std::string_view path, const std::string& hash_hex) const;

  /// Number of (path, hash) lines — the paper's "policy lines".
  std::size_t entry_count() const { return entry_count_; }

  /// Number of distinct paths.
  std::size_t path_count() const { return allow_.size(); }

  const std::vector<std::string>& excludes() const { return excludes_; }

  /// Serialized size in bytes (what the paper reports as policy MB).
  std::uint64_t byte_size() const;

  /// Drop all but the most recent hash for every path (post-update
  /// deduplication). Returns the number of lines removed.
  std::size_t dedup();

  /// Remove every entry whose path starts with `prefix` (used to retire
  /// an outdated kernel's modules). Returns the number of lines removed.
  std::size_t remove_prefix(const std::string& prefix);

  /// One "path sha256:hash" line per entry plus "exclude <glob>" lines.
  /// parse() and from_json() accept only hashes crypto::digest_from_hex
  /// decodes (64 lowercase hex digits), the form policy_store's delta
  /// decoder demands and the only one serialize() writes.
  std::string serialize() const;
  static Result<RuntimePolicy> parse(const std::string& text);

  /// Keylime-style JSON runtime policy. Its compact dump() is the
  /// canonical form (paths and keys sorted):
  ///   {"digests":{"/path":["<hex>", ...], ...},
  ///    "excludes":["glob", ...],
  ///    "meta":{"generator":"...","version":1}}
  json::Value to_json() const;

  /// Write the canonical form, byte-identical to to_json().dump(),
  /// without building the JSON tree: the bytes reach `sink` in order, in
  /// chunks of about kCanonicalChunkBytes from one reused buffer, so the
  /// writer allocates nothing in proportion to the policy. This is what
  /// policy_store::policy_digest hashes, once per revision: the digest is
  /// memoised until the next mutation.
  void write_canonical_json(
      const std::function<void(std::string_view chunk)>& sink) const;
  static constexpr std::size_t kCanonicalChunkBytes = 64 * 1024;

  static Result<RuntimePolicy> from_json(const json::Value& doc);

  /// Union with another policy (their hashes appended after ours).
  void merge(const RuntimePolicy& other);

  /// The acceptable-hash list for one exact path (nullptr when absent).
  const std::vector<crypto::Digest>* hashes_for(std::string_view path) const;

  /// Replace the acceptable-hash list for one exact path, creating the
  /// path when absent. An empty list removes the path. This is the
  /// delta-apply primitive: unlike allow() it never merges, so applying
  /// a policy_store::PolicyDelta reproduces the target policy exactly.
  void set_hashes(const std::string& path, std::vector<crypto::Digest> hashes);
  /// set_hashes() on the digests `hashes_hex` names. Refuses the list
  /// when any entry names none: returns false, policy untouched.
  bool set_hashes(const std::string& path,
                  const std::vector<std::string>& hashes_hex);

  /// Remove one exact path (all its hashes). Returns lines removed.
  std::size_t remove_path(const std::string& path);

  /// Replace the exclude-glob list wholesale (order is part of the
  /// canonical form, so a delta that touches excludes carries the full
  /// new list).
  void set_excludes(std::vector<std::string> globs);

  /// Visit every (path, acceptable-hash list) pair in path order — the
  /// bulk-read hook PolicyIndex::build uses so an index never has to
  /// round-trip 300k entries through JSON or text.
  void for_each_path(
      const std::function<void(const std::string& path,
                               const std::vector<crypto::Digest>& hashes)>&
          fn) const;

 private:
  friend std::string policy_store::policy_digest(const RuntimePolicy& policy);

  // policy_store::policy_digest's memo: the SHA-256 of the canonical form,
  // filled by the first digest and cleared by every mutator. A copy
  // carries it; a moved-from policy loses it. Const readers may fill it
  // concurrently: the one that moves the state word from kEmpty to
  // kFilling stores its digest, and a reader that loses that race keeps
  // the digest it streamed and stores nothing.
  class DigestMemo {
   public:
    DigestMemo() = default;
    DigestMemo(const DigestMemo& other) { copy_from(other); }
    DigestMemo(DigestMemo&& other) noexcept {
      copy_from(other);
      other.clear();
    }
    DigestMemo& operator=(const DigestMemo& other) {
      if (this != &other) copy_from(other);
      return *this;
    }
    DigestMemo& operator=(DigestMemo&& other) noexcept {
      if (this != &other) {
        copy_from(other);
        other.clear();
      }
      return *this;
    }

    /// True, with the digest in `out`, once the memo is filled.
    bool load(crypto::Digest& out) const;
    /// Fill an empty memo; a no-op when it is full or being filled.
    void store(const crypto::Digest& digest);
    void clear() { state_.store(kEmpty, std::memory_order_relaxed); }

   private:
    enum State : std::uint8_t { kEmpty, kFilling, kFull };
    void copy_from(const DigestMemo& other);

    std::atomic<std::uint8_t> state_{kEmpty};
    crypto::Digest digest_{};
  };

  // Insertion-ordered acceptable hashes per path. std::less<> lets a
  // string_view probe the map without building a std::string.
  std::map<std::string, std::vector<crypto::Digest>, std::less<>> allow_;
  std::vector<std::string> excludes_;
  std::size_t entry_count_ = 0;
  mutable DigestMemo digest_memo_;
};

namespace policy_store {
struct PolicyDelta;
}  // namespace policy_store

/// Anything that can receive runtime-policy pushes for enrolled agents:
/// a Verifier directly, or a VerifierPool routing each agent to its
/// owning shard. The dynamic-policy orchestrator pushes through this
/// interface so single-verifier and sharded deployments share one update
/// workflow.
class PolicySink {
 public:
  virtual ~PolicySink() = default;

  /// Push one content-addressed revision to many agents. `digest` must be
  /// policy_store::policy_digest(policy), or the push is refused
  /// (kInvalidArgument); `delta` (may be null) rebases
  /// it from the previously pushed revision. Both sinks install through
  /// one PolicyHead (policy_index.hpp): a same-digest push reuses the
  /// installed revision, and a delta whose base digest matches it patches
  /// the lookup index in O(delta) instead of re-indexing 300k entries for
  /// a 1.3k-entry daily update (the paper's §III-C shape). The policy is
  /// taken by reference, so a reused push copies nothing.
  virtual Status push_revision(const std::vector<std::string>& agent_ids,
                               const RuntimePolicy& policy,
                               const std::string& digest,
                               const policy_store::PolicyDelta* delta) = 0;
};

}  // namespace cia::keylime
