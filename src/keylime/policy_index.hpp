// An immutable index over one RuntimePolicy revision.
//
// The paper's deployment appraises every IMA entry against a 323,734-line
// (46 MB) policy; RuntimePolicy::check pays an ordered-map path lookup
// plus a glob scan over the exclude list on every call. PolicyIndex is
// built once per policy revision and answers the same query two ways:
//
//   * appraise() first probes a flat set of the template hashes of every
//     allowed policy line, SHA-256(file_hash || path). The file hash has
//     a fixed 32 bytes, so a template hash names exactly one (path, hash)
//     line, and an allowed entry — the hot path — costs one probe on a
//     random 32-byte key with no path hashing;
//   * check(), and appraise() on a set miss, look the path up in a hash
//     table with the exclusion verdict precomputed per indexed path, and
//     fall back to the compiled exclude list for unknown paths.
//
// Indexes are shared read-only across verifier shards via
// shared_ptr<const PolicyIndex>: a dynamic policy update builds a fresh
// index and swaps the pointer (copy-on-write), so a shard mid-appraisal
// keeps its consistent snapshot and never observes a torn table.
// check() and appraise() must agree with RuntimePolicy::check on every
// input — property tests in tests/property_test.cpp,
// tests/policy_store_test.cpp and tests/hotpath_diff_test.cpp hold them
// against each other over generated policies, delta chains and
// adversarial paths.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "keylime/runtime_policy.hpp"

namespace cia::keylime {

namespace policy_store {
struct PolicyDelta;
}  // namespace policy_store

class PolicyIndex {
 public:
  /// Build an index over `policy`: the path table, plus the template
  /// hash of every allowed line (its path not excluded, its hash in the
  /// crypto::is_digest_hex form), computed with sha256_batch. `revision`
  /// tags the snapshot (the pool bumps it once per dynamic policy push)
  /// and is observability metadata only — lookups never consult it.
  static std::shared_ptr<const PolicyIndex> build(const RuntimePolicy& policy,
                                                  std::uint64_t revision = 0);

  /// Build the index for `target` as a thin overlay layer over `base`:
  /// only the paths `delta` names are stored (plus tombstones for
  /// removals); everything else resolves through the shared base table.
  /// The layer's template-hash overlay holds the allowed lines the delta
  /// adds and revokes every allowed line the base shows for a path the
  /// delta touches, so a stale line of a replaced or removed path can
  /// never be allowed through an older layer.
  /// For the paper's §III-C shape (a ~1.3k-entry daily update against a
  /// 300k-entry base) the layer costs O(delta), not O(base) — neither
  /// the per-path exclude-glob scan of a full build nor a deep copy of
  /// the base table. Every kMaxLayerDepth layers the chain is flattened
  /// (one deep copy of the root's path table and template-hash set,
  /// replaying the overlays into both) so lookup depth stays
  /// bounded under an unbounded stream of daily deltas. Preconditions
  /// (the pool's push path guarantees them): `base` indexes the policy
  /// delta.base_digest names, and `target` == apply(base policy, delta).
  /// Falls back to a full build when the delta replaces the exclude
  /// list, since every precomputed per-path exclusion verdict goes stale
  /// then. The result is a fresh snapshot: new uid, caller-supplied
  /// revision.
  static std::shared_ptr<const PolicyIndex> build_incremental(
      const std::shared_ptr<const PolicyIndex>& base,
      const RuntimePolicy& target, const policy_store::PolicyDelta& delta,
      std::uint64_t revision);

  /// Process-wide count of full build() calls / incremental patches —
  /// the dedupe pins: a bulk push to N agents or shards must cost one
  /// build, and a delta push must cost zero full builds.
  static std::uint64_t full_build_count();
  static std::uint64_t incremental_build_count();

  /// Exactly RuntimePolicy::check, answered from the index. When
  /// `known` is non-null it reports whether the path was resolved from
  /// the table (hit) or fell through to the exclude-glob scan (miss).
  PolicyMatch check(const std::string& path, const std::string& hash_hex,
                    bool* known = nullptr) const;
  /// Digest-keyed probe: compares the digest against the stored hex
  /// strings nibble-by-nibble instead of rendering it to a temporary
  /// 64-byte string per call. Heterogeneous (string_view) path lookup so
  /// zero-copy decoded entries probe without materializing the path.
  PolicyMatch check(std::string_view path, const crypto::Digest& hash,
                    bool* known = nullptr) const;

  /// The verifier's per-entry verdict. A template hash naming an allowed
  /// line answers kAllowed from one probe per overlay layer (known =
  /// true); anything else falls through to check(path, file_hash,
  /// known). Equal to check(path, file_hash) — verdict and `known` —
  /// whenever template_hash == crypto::template_hash_of(file_hash,
  /// path). The caller owns that precondition: pass a hash it computed
  /// from the entry itself, or checked against it where the entry came
  /// in, never one an agent or a state blob merely claims.
  PolicyMatch appraise(std::string_view path, const crypto::Digest& file_hash,
                       const crypto::Digest& template_hash,
                       bool* known = nullptr) const;

  std::uint64_t revision() const { return revision_; }

  /// Process-unique id of this built index, assigned by build(). Unlike
  /// `revision()` (caller-supplied metadata, defaults to 0), uid() never
  /// collides between two distinct indexes, so a verdict cache keyed on
  /// it cannot serve a verdict across a policy swap.
  std::uint64_t uid() const { return uid_; }
  std::size_t path_count() const { return path_count_; }
  std::size_t entry_count() const { return entry_count_; }

  /// How many overlay layers sit between this index and the flat root
  /// table (0 for a full build). Exposed for tests pinning the flatten
  /// policy.
  std::size_t layer_depth() const { return layer_depth_; }

  /// Flatten threshold: an incremental build whose overlay chain would
  /// exceed this depth deep-copies the root and replays the layers
  /// instead of linking another one.
  static constexpr std::size_t kMaxLayerDepth = 8;

  /// Paths absent from the table still need an exclusion verdict. The
  /// exclude list is compiled at build time: globs of the shape
  /// "DIR/*" (a literal directory prefix, one trailing star) become hash
  /// probes on the path's "/" boundaries; only general patterns —
  /// suffix/infix globs like "*.log" or "*/__pycache__/*" — fall back to
  /// the backtracking matcher. Exposed for tests.
  bool excluded_by_scan(std::string_view path) const;

 private:
  struct PathEntry {
    bool excluded = false;  // is_excluded(path), precomputed at build
    std::vector<std::string> hashes;
  };

  /// A flat open-addressing set of template hashes: power-of-two
  /// capacity, linear probing, load at most 2/3, 32-byte keys stored
  /// inline, so an insert allocates nothing per entry. A key's own
  /// leading bytes pick its slot: a SHA-256 output is already uniform.
  /// The all-zero digest marks an empty slot, so that one key lives in a
  /// flag instead.
  class TemplateSet {
   public:
    void reserve(std::size_t keys);
    void insert(const crypto::Digest& key);
    /// Backward-shift deletion: no tombstones, probe chains stay short.
    void erase(const crypto::Digest& key);
    bool contains(const crypto::Digest& key) const;

    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (has_zero_) fn(crypto::Digest{});
      for (const crypto::Digest& key : slots_) {
        if (key != crypto::Digest{}) fn(key);
      }
    }

   private:
    std::size_t home(const crypto::Digest& key) const;
    void rehash(std::size_t capacity);

    std::vector<crypto::Digest> slots_;
    std::size_t size_ = 0;  // keys held in slots_ (the zero key excluded)
    bool has_zero_ = false;
  };

  /// The entry for `path`, walking the overlay chain youngest-first: a
  /// patched entry wins, a tombstone hides every older layer. nullptr
  /// when no layer holds the path.
  const PathEntry* find(std::string_view path) const;

  /// Transparent hash/equality so string_view keys probe without an
  /// owning std::string temporary.
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  /// The full table for a root index; only the patched paths for an
  /// overlay layer (lookups fall through to base_ on a miss).
  std::unordered_map<std::string, PathEntry, SvHash, SvEq> paths_;
  /// Overlay tombstones: paths the delta removed. A hit here hides any
  /// base entry — the path behaves as not-in-table (exclude-scan
  /// verdict, known=false). Empty on root indexes.
  std::unordered_set<std::string, SvHash, SvEq> removed_;
  /// The shared parent layer, nullptr for a root (full-build) index.
  /// Excludes are identical across a chain (a delta that touches them
  /// forces a full rebuild), so each layer copies the compiled globs.
  std::shared_ptr<const PolicyIndex> base_;
  /// Compiled "DIR/*" excludes, keyed by the literal prefix (ends '/').
  std::unordered_set<std::string, SvHash, SvEq> dir_excludes_;
  /// Everything the compiler could not reduce to a prefix probe.
  std::vector<std::string> general_excludes_;
  /// Template hashes of allowed lines: all of them on a root index, the
  /// lines its delta adds on an overlay layer.
  TemplateSet allowed_;
  /// Overlay layers only: every allowed line the base shows for a path
  /// the delta touches. A hit stops the walk before older layers.
  TemplateSet revoked_;
  std::size_t entry_count_ = 0;
  std::size_t path_count_ = 0;
  std::size_t layer_depth_ = 0;
  std::uint64_t revision_ = 0;
  std::uint64_t uid_ = 0;
};

/// One installed policy revision: the RuntimePolicy, its lookup index and
/// (through the index) the revision tag. Built once per push and shared
/// read-only by every agent bound to it — the pool's mailbox, every shard
/// verifier's agent records and an in-flight appraisal all hold the same
/// shared_ptr<const PolicyRevision>, so installing a revision costs one
/// policy copy plus one index build or patch whatever the fleet size, and
/// a revision is freed with its last agent. Policy and index live and die
/// together, so a stale index can never outlive its policy.
struct PolicyRevision {
  RuntimePolicy policy;
  /// Null only for an unindexed revision (a solo Verifier::set_policy,
  /// which pays no index build for a one-agent push, or the shared empty
  /// revision): appraisal then scans the policy linearly. restore()
  /// indexes what it rebuilds from a checkpoint.
  std::shared_ptr<const PolicyIndex> index;

  /// What Alert::policy_revision carries: the index's tag, 0 unindexed.
  std::uint64_t revision() const { return index ? index->revision() : 0; }

  /// A shared revision owning `policy`; a null `index` makes it
  /// unindexed.
  static std::shared_ptr<const PolicyRevision> make(
      RuntimePolicy policy, std::shared_ptr<const PolicyIndex> index) {
    return std::make_shared<const PolicyRevision>(
        PolicyRevision{std::move(policy), std::move(index)});
  }

  /// The one shared empty revision an agent holds before any push.
  static const std::shared_ptr<const PolicyRevision>& empty() {
    static const std::shared_ptr<const PolicyRevision> kEmpty =
        make(RuntimePolicy{}, nullptr);
    return kEmpty;
  }
};

}  // namespace cia::keylime
