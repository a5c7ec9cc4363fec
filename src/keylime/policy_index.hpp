// An immutable hash-map index over one RuntimePolicy revision.
//
// The paper's deployment appraises every IMA entry against a 323,734-line
// (46 MB) policy; RuntimePolicy::check pays an ordered-map path lookup
// plus a glob scan over the exclude list on every call. PolicyIndex is
// built once per policy revision and answers the same query from a flat
// hash table with the exclusion verdict precomputed per indexed path —
// the hot path (an allowed entry) is one string hash and one memcmp-sized
// compare.
//
// Indexes are shared read-only across verifier shards via
// shared_ptr<const PolicyIndex>: a dynamic policy update builds a fresh
// index and swaps the pointer (copy-on-write), so a shard mid-appraisal
// keeps its consistent snapshot and never observes a torn table.
// check() must agree with RuntimePolicy::check on every input — a
// property test in tests/property_test.cpp holds the two implementations
// against each other over generated policies and adversarial paths.
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
  /// Build an index over `policy`. `revision` tags the snapshot (the
  /// pool bumps it once per dynamic policy push) and is observability
  /// metadata only — lookups never consult it.
  static std::shared_ptr<const PolicyIndex> build(const RuntimePolicy& policy,
                                                  std::uint64_t revision = 0);

  /// Build the index for `target` as a thin overlay layer over `base`:
  /// only the paths `delta` names are stored (plus tombstones for
  /// removals); everything else resolves through the shared base table.
  /// For the paper's §III-C shape (a ~1.3k-entry daily update against a
  /// 300k-entry base) the layer costs O(delta), not O(base) — neither
  /// the per-path exclude-glob scan of a full build nor a deep copy of
  /// the base table. Every kMaxLayerDepth layers the chain is flattened
  /// (one deep copy, replaying the overlays) so lookup depth stays
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

  std::uint64_t revision() const { return revision_; }

  /// Process-unique id of this built index, assigned by build(). Unlike
  /// `revision()` (caller-supplied metadata, defaults to 0), uid() never
  /// collides between two distinct indexes, so verdict caches key on it
  /// to make a copy-on-write policy swap an implicit cache invalidation.
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
  /// Null only for an unindexed revision (a solo Verifier::set_policy or
  /// a slice rebuilt from JSON): appraisal then scans the policy linearly.
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
