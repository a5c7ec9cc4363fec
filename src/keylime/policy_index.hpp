// An immutable index over one RuntimePolicy revision.
//
// The paper's deployment appraises every IMA entry against a 323,734-line
// (46 MB) policy; RuntimePolicy::check pays an ordered-map path lookup
// plus a glob scan over the exclude list on every call. PolicyIndex is
// built once per policy revision and holds only what it derives from the
// policy, never a second copy of its digests:
//
//   * the template hash of every allowed policy line, SHA-256(file_hash
//     || path), in a flat set, hashed straight from the policy's 32-byte
//     digests. The file hash has a fixed 32 bytes, so a template hash
//     names exactly one (path, hash) line, and an allowed entry — the
//     hot path — costs one probe on a random 32-byte key with no path
//     hashing;
//   * each policy path's class, listed or excluded (the exclusion verdict
//     precomputed per path), so a set miss is a hash mismatch or an
//     exclusion from one path probe. Paths the policy does not list fall
//     back to the compiled exclude list.
//
// An incremental build links an overlay layer that classes only the
// paths its delta touched (listed, excluded or removed) and holds the
// template hashes of the lines the delta adds. A layer that defines a
// path shadows every older layer for that path, so a replaced or
// removed line needs no revocation record.
//
// Indexes are shared read-only across verifier shards via
// shared_ptr<const PolicyIndex>: a dynamic policy update builds a fresh
// index and swaps the pointer (copy-on-write), so a shard mid-appraisal
// keeps its consistent snapshot and never observes a torn table.
// check() and appraise() must agree with RuntimePolicy::check on every
// measured digest — property tests in tests/property_test.cpp,
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
  /// Build an index over `policy`: every path's class, plus the template
  /// hash of every allowed line (its path not excluded), computed with
  /// sha256_batch. `revision` tags the snapshot (a PolicyHead bumps it
  /// once per revision it builds) and is observability metadata only —
  /// lookups never consult it.
  static std::shared_ptr<const PolicyIndex> build(const RuntimePolicy& policy,
                                                  std::uint64_t revision = 0);

  /// Build the index for `target` as a thin overlay layer over `base`:
  /// the layer classes only the paths `delta` names (a removal as
  /// removed) and holds the template hashes of the lines it adds;
  /// everything else resolves through the shared base, and the base's
  /// compiled exclude list is shared by pointer. A layer that defines a
  /// path shadows the older layers' lines for it, so a stale line of a
  /// replaced or removed path is never allowed.
  /// For the paper's §III-C shape (a ~1.3k-entry daily update against a
  /// 300k-entry base) the layer costs O(delta), not O(base) — neither
  /// the per-path exclude-glob scan of a full build nor a copy of the
  /// base table. Every kMaxLayerDepth layers the chain is flattened: a
  /// root is rebuilt from `target`, each path's class taken from the
  /// chain instead of a glob scan and every allowed line re-hashed, so
  /// lookup depth stays bounded under an unbounded stream of daily
  /// deltas. The flatten is not a full build (full_build_count() does
  /// not move). Preconditions (PolicyHead::install guarantees them):
  /// `base` indexes the policy delta.base_digest names, and `target` ==
  /// apply(base policy, delta). Falls back to a full build when the
  /// delta replaces the exclude list, since every precomputed path class
  /// goes stale then. The result is a fresh snapshot: new uid,
  /// caller-supplied revision.
  static std::shared_ptr<const PolicyIndex> build_incremental(
      const std::shared_ptr<const PolicyIndex>& base,
      const RuntimePolicy& target, const policy_store::PolicyDelta& delta,
      std::uint64_t revision);

  /// Process-wide count of full build() calls / incremental patches —
  /// the dedupe pins: a push to N agents or shards must cost one build,
  /// and a delta push must cost zero full builds.
  static std::uint64_t full_build_count();
  static std::uint64_t incremental_build_count();

  /// Exactly RuntimePolicy::check on a measured digest: appraise() with
  /// the template hash computed here. When `known` is non-null it
  /// reports whether the path was resolved from the index (hit) or fell
  /// through to the exclude-glob scan (miss). Heterogeneous (string_view)
  /// path lookup, so zero-copy decoded entries probe without
  /// materializing the path.
  PolicyMatch check(std::string_view path, const crypto::Digest& hash,
                    bool* known = nullptr) const;

  /// The verifier's per-entry verdict. Walks the layers youngest-first:
  /// a template hash naming one of a layer's allowed lines answers
  /// kAllowed, and the first layer that defines the path ends the walk —
  /// listed gives kHashMismatch, excluded kExcluded (known = true);
  /// removed, or no layer defining it, falls through to the exclude scan
  /// (known = false). Equal to RuntimePolicy::check(path, file_hash) —
  /// and to check(path, file_hash), `known` included — whenever
  /// template_hash == crypto::template_hash_of(file_hash, path): the
  /// template hash names the line, so the file hash is not needed. The
  /// caller owns that precondition: pass a hash it computed from the
  /// entry itself, or checked against it where the entry came in, never
  /// one an agent or a state blob merely claims.
  PolicyMatch appraise(std::string_view path,
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
  /// exceed this depth rebuilds a root from its target instead of
  /// linking another layer.
  static constexpr std::size_t kMaxLayerDepth = 8;

  /// Paths absent from the table still need an exclusion verdict. The
  /// exclude list is compiled at build time: globs of the shape
  /// "DIR/*" (a literal directory prefix, one trailing star) become hash
  /// probes on the path's "/" boundaries; only general patterns —
  /// suffix/infix globs like "*.log" or "*/__pycache__/*" — fall back to
  /// the backtracking matcher. Exposed for tests.
  bool excluded_by_scan(std::string_view path) const;

 private:
  /// What a layer says about one path. kRemoved exists only on overlay
  /// layers: the delta dropped the path, hiding every older layer.
  enum class PathClass : std::uint8_t { kListed, kExcluded, kRemoved };

  /// A path with its hash computed once, so a walk over the layers
  /// hashes it once rather than once per layer.
  struct HashedPath {
    std::string_view path;
    std::size_t hash;
    operator std::string_view() const { return path; }
  };

  /// Transparent hash/equality so string_view and HashedPath keys probe
  /// without an owning std::string temporary.
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
    std::size_t operator()(const HashedPath& key) const { return key.hash; }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  /// The compiled exclude list: "DIR/*" globs keyed by their literal
  /// prefix (ends '/'), and everything the compiler could not reduce to
  /// a prefix probe.
  struct Excludes {
    std::unordered_set<std::string, SvHash, SvEq> dir_prefixes;
    std::vector<std::string> general;
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
    bool contains(const crypto::Digest& key) const;

   private:
    std::size_t home(const crypto::Digest& key) const;
    void rehash(std::size_t capacity);

    std::vector<crypto::Digest> slots_;
    std::size_t size_ = 0;  // keys held in slots_ (the zero key excluded)
    bool has_zero_ = false;
  };

  /// A root index over `policy`. Each path's class comes from `chain`
  /// when given (the flatten: the chain already classed every path of
  /// its target), else from the exclude scan.
  static std::shared_ptr<PolicyIndex> build_root(
      const RuntimePolicy& policy, std::shared_ptr<const Excludes> excludes,
      const PolicyIndex* chain);

  /// The class the youngest layer defining `path` gives it; kRemoved
  /// when no layer does.
  PathClass find(const HashedPath& path) const;

  /// Every policy path on a root index; only the delta's paths on an
  /// overlay layer (lookups fall through to base_ on a miss).
  std::unordered_map<std::string, PathClass, SvHash, SvEq> paths_;
  /// The shared parent layer, nullptr for a root index.
  std::shared_ptr<const PolicyIndex> base_;
  /// One compiled list per chain: a delta that edits the exclude list
  /// forces a full build, so every layer shares its root's.
  std::shared_ptr<const Excludes> excludes_;
  /// Template hashes of allowed lines: all of them on a root index, the
  /// lines its delta adds on an overlay layer.
  TemplateSet allowed_;
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
/// a revision is freed with its last agent. The policy is the revision's
/// one copy of its digests: the index keeps only path classes and
/// template hashes derived from it. Policy and index live and die
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

/// The head of a policy sink: the last revision it installed, its content
/// digest and the revision-tag counter. install() is the one place a
/// pushed policy becomes an indexed revision, for a solo Verifier and a
/// VerifierPool alike. Not thread-safe: the pool installs under its lock.
class PolicyHead {
 public:
  /// What an install paid for the revision it returned.
  enum class Build { kReused, kIncremental, kFull };
  struct Installed {
    std::shared_ptr<const PolicyRevision> revision;
    Build build = Build::kFull;
  };

  /// Install `policy`, whose policy_store::policy_digest is `digest`:
  ///   * the same digest as the head: the head revision itself (no copy,
  ///     no build, no new tag; how a rollout promotes its canary revision);
  ///   * a `delta` rebasing from the head digest that leaves the excludes
  ///     alone: one policy copy plus an O(delta) overlay on the head's
  ///     index (PolicyIndex::build_incremental), §III-C's daily shape;
  ///   * otherwise one policy copy plus a full PolicyIndex::build.
  /// A built revision takes the next tag and becomes the head. An empty
  /// digest is refused (kInvalidArgument), the head untouched.
  Result<Installed> install(const RuntimePolicy& policy,
                            const std::string& digest,
                            const policy_store::PolicyDelta* delta);

  /// Tags handed out so far: the head's tag, 0 before the first install.
  std::uint64_t revisions() const { return tag_; }

 private:
  std::string digest_;
  std::shared_ptr<const PolicyRevision> revision_;
  std::uint64_t tag_ = 0;
};

}  // namespace cia::keylime
