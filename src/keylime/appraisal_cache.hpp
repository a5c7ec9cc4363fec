// A policy-verdict cache keyed by (template hash, PolicyIndex uid).
//
// Not on the verifier's appraisal path: PolicyIndex::appraise answers an
// allowed entry from the revision's own template-hash set in one probe,
// and a fresh revision's uid missed every cached slot anyway. The class
// stays only because fleetbench's appraisal replay still times the
// cache-plus-check shape and reads VerifierPool::Stats::cache_*; it goes
// when that replay times PolicyIndex::appraise instead.
//
// The key is sound for the reason the template-hash set is: the
// template hash sha256(file_hash || path) over a fixed-length file hash
// names exactly one (content, path) pair. Keying on PolicyIndex::uid()
// (process-unique per built index) means a copy-on-write policy swap
// never serves a verdict computed under the old revision. The cache is
// not thread-safe.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/sha256.hpp"
#include "keylime/runtime_policy.hpp"

namespace cia::keylime {

class AppraisalCache {
 public:
  /// Default capacity comfortably holds the paper's 324k-line policy
  /// working set. Rounded up to a power of two.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 19;

  explicit AppraisalCache(std::size_t capacity = kDefaultCapacity);

  /// Cached verdict for this template hash under this policy index, or
  /// nullopt. Counts a hit or miss.
  std::optional<PolicyMatch> lookup(const crypto::Digest& template_hash,
                                    std::uint64_t index_uid);

  /// Remember a verdict. Direct-mapped: an occupied colliding slot is
  /// evicted (counted); identical re-inserts are no-ops.
  void insert(const crypto::Digest& template_hash, std::uint64_t index_uid,
              PolicyMatch verdict);

  /// Drop every entry (stats survive).
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    crypto::Digest key{};
    std::uint64_t uid = 0;  // 0 = empty (build() starts uids at 1)
    PolicyMatch verdict = PolicyMatch::kNotInPolicy;
  };

  std::size_t slot_of(const crypto::Digest& template_hash) const;

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  Stats stats_;
};

}  // namespace cia::keylime
