#include "keylime/policy_index.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/strutil.hpp"
#include "keylime/policy_store/store.hpp"

namespace cia::keylime {

namespace {

/// uid() source. Starts at 1 so 0 stays "no index" in cache slots.
std::atomic<std::uint64_t> g_next_index_uid{1};

/// Build-count telemetry sources (full_build_count() and friends).
std::atomic<std::uint64_t> g_full_builds{0};
std::atomic<std::uint64_t> g_incremental_builds{0};

/// Does the stored policy hash (lowercase hex, as digest_hex renders)
/// name exactly this digest? Nibble-wise compare — the old path rendered
/// the digest to a temporary 64-byte string per probe.
bool hex_names_digest(const std::string& hex, const crypto::Digest& d) {
  if (hex.size() != 2 * d.size()) return false;
  static constexpr char kDigits[] = "0123456789abcdef";
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (hex[2 * i] != kDigits[d[i] >> 4] ||
        hex[2 * i + 1] != kDigits[d[i] & 0x0f]) {
      return false;
    }
  }
  return true;
}

/// Is `glob` of the shape "PREFIX*" where PREFIX is literal (no other
/// metacharacters) and names a directory (ends with '/')? Such a glob
/// matches a path exactly when PREFIX is a prefix of it — glob_match's
/// '*' spans any characters, '/' included — so it compiles to a hash
/// probe instead of a backtracking scan.
bool is_dir_prefix_glob(const std::string& glob, std::string* prefix) {
  if (glob.size() < 2 || glob.back() != '*') return false;
  const std::string head = glob.substr(0, glob.size() - 1);
  if (head.find_first_of("*?") != std::string::npos) return false;
  if (head.back() != '/') return false;
  *prefix = head;
  return true;
}

bool is_zero(const crypto::Digest& d) {
  std::uint64_t w[4];
  std::memcpy(w, d.data(), sizeof(w));
  return (w[0] | w[1] | w[2] | w[3]) == 0;
}

/// Template hashes of policy lines, a sha256_batch block at a time:
/// add() queues one (path, hex hash) line and `sink` receives its
/// template_hash_of(digest, path) once the block is hashed. A line whose
/// hash is not in the digest_hex form is dropped: no measured digest
/// renders to it, so check() never allows it. Queued paths must stay
/// alive until the next flush().
template <typename Sink>
class LineHasher {
 public:
  explicit LineHasher(Sink sink) : sink_(std::move(sink)) {}

  void add(std::string_view path, const std::string& hash_hex) {
    if (!crypto::digest_from_hex(hash_hex, file_hashes_[n_])) return;
    inputs_[n_] = {file_hashes_[n_].data(), crypto::kSha256Size,
                   reinterpret_cast<const std::uint8_t*>(path.data()),
                   path.size()};
    if (++n_ == kBlock) flush();
  }

  void flush() {
    crypto::sha256_batch(inputs_, n_, out_);
    for (std::size_t i = 0; i < n_; ++i) sink_(out_[i]);
    n_ = 0;
  }

 private:
  static constexpr std::size_t kBlock = 128;  // a multiple of every lane width
  Sink sink_;
  std::size_t n_ = 0;
  crypto::Digest file_hashes_[kBlock];
  crypto::HashInput inputs_[kBlock];
  crypto::Digest out_[kBlock];
};

}  // namespace

// ------------------------------------------------------------ TemplateSet

std::size_t PolicyIndex::TemplateSet::home(const crypto::Digest& key) const {
  std::uint64_t word;
  std::memcpy(&word, key.data(), sizeof(word));
  return static_cast<std::size_t>(word) & (slots_.size() - 1);
}

void PolicyIndex::TemplateSet::reserve(std::size_t keys) {
  std::size_t capacity = 16;
  while (keys * 3 > capacity * 2) capacity *= 2;
  if (capacity > slots_.size()) rehash(capacity);
}

void PolicyIndex::TemplateSet::rehash(std::size_t capacity) {
  std::vector<crypto::Digest> previous(capacity);
  previous.swap(slots_);
  size_ = 0;
  for (const crypto::Digest& key : previous) {
    if (!is_zero(key)) insert(key);
  }
}

void PolicyIndex::TemplateSet::insert(const crypto::Digest& key) {
  if (is_zero(key)) {
    has_zero_ = true;
    return;
  }
  if ((size_ + 1) * 3 > slots_.size() * 2) {
    rehash(std::max<std::size_t>(16, slots_.size() * 2));
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    crypto::Digest& slot = slots_[i];
    if (slot == key) return;
    if (is_zero(slot)) {
      slot = key;
      ++size_;
      return;
    }
  }
}

void PolicyIndex::TemplateSet::erase(const crypto::Digest& key) {
  if (is_zero(key)) {
    has_zero_ = false;
    return;
  }
  if (size_ == 0) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(key);
  for (;; hole = (hole + 1) & mask) {
    if (is_zero(slots_[hole])) return;  // absent
    if (slots_[hole] == key) break;
  }
  // Pull each later member of the cluster back into the hole unless its
  // home slot lies cyclically in (hole, j]: moving it would put it ahead
  // of its home, where a probe never looks.
  for (std::size_t j = (hole + 1) & mask; !is_zero(slots_[j]);
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j]);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = crypto::Digest{};
  --size_;
}

bool PolicyIndex::TemplateSet::contains(const crypto::Digest& key) const {
  if (is_zero(key)) return has_zero_;
  if (size_ == 0) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const crypto::Digest& slot = slots_[i];
    if (slot == key) return true;
    if (is_zero(slot)) return false;
  }
}

// ------------------------------------------------------------ PolicyIndex

std::shared_ptr<const PolicyIndex> PolicyIndex::build(
    const RuntimePolicy& policy, std::uint64_t revision) {
  g_full_builds.fetch_add(1, std::memory_order_relaxed);
  auto index = std::make_shared<PolicyIndex>();
  index->revision_ = revision;
  index->uid_ = g_next_index_uid.fetch_add(1, std::memory_order_relaxed);
  index->entry_count_ = policy.entry_count();
  for (const std::string& glob : policy.excludes()) {
    std::string prefix;
    if (is_dir_prefix_glob(glob, &prefix)) {
      index->dir_excludes_.insert(std::move(prefix));
    } else {
      index->general_excludes_.push_back(glob);
    }
  }
  index->paths_.reserve(policy.path_count());
  index->allowed_.reserve(policy.entry_count());
  LineHasher allow([&](const crypto::Digest& t) { index->allowed_.insert(t); });
  policy.for_each_path(
      [&](const std::string& path, const std::vector<std::string>& hashes) {
        PathEntry entry;
        entry.excluded = index->excluded_by_scan(path);
        entry.hashes = hashes;
        if (!entry.excluded) {
          for (const std::string& h : hashes) allow.add(path, h);
        }
        index->paths_.emplace(path, std::move(entry));
      });
  allow.flush();
  index->path_count_ = index->paths_.size();
  return index;
}

std::shared_ptr<const PolicyIndex> PolicyIndex::build_incremental(
    const std::shared_ptr<const PolicyIndex>& base, const RuntimePolicy& target,
    const policy_store::PolicyDelta& delta, std::uint64_t revision) {
  if (base == nullptr || delta.touches_excludes()) {
    // No base table to patch, or the exclude list changed under the
    // precomputed per-path exclusion verdicts: full rebuild.
    return build(target, revision);
  }
  g_incremental_builds.fetch_add(1, std::memory_order_relaxed);
  auto index = std::make_shared<PolicyIndex>();
  if (base->layer_depth_ < kMaxLayerDepth) {
    // Thin overlay: store only the delta's paths (plus tombstones);
    // everything else resolves through the shared base. O(delta), so a
    // §III-C daily update costs ~1.3k patched entries against a 300k
    // table it never touches.
    index->base_ = base;
    index->layer_depth_ = base->layer_depth_ + 1;
    index->dir_excludes_ = base->dir_excludes_;
    index->general_excludes_ = base->general_excludes_;
  } else {
    // Chain at the depth bound: flatten. One deep copy of the root
    // table, then replay each overlay oldest-first — amortized over
    // kMaxLayerDepth O(delta) layers.
    std::vector<const PolicyIndex*> chain;
    const PolicyIndex* root = base.get();
    while (root->base_ != nullptr) {
      chain.push_back(root);
      root = root->base_.get();
    }
    index->paths_ = root->paths_;
    index->allowed_ = root->allowed_;
    index->dir_excludes_ = root->dir_excludes_;
    index->general_excludes_ = root->general_excludes_;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      for (const std::string& removed : (*it)->removed_) {
        index->paths_.erase(removed);
      }
      for (const auto& [path, entry] : (*it)->paths_) {
        index->paths_.insert_or_assign(path, entry);
      }
      (*it)->revoked_.for_each(
          [&](const crypto::Digest& t) { index->allowed_.erase(t); });
      (*it)->allowed_.for_each(
          [&](const crypto::Digest& t) { index->allowed_.insert(t); });
    }
  }
  index->revision_ = revision;
  index->uid_ = g_next_index_uid.fetch_add(1, std::memory_order_relaxed);
  index->entry_count_ = target.entry_count();
  index->path_count_ = target.path_count();

  // Template hashes: revoke every allowed line the base shows for each
  // touched path, then add the delta's lines. A layer records both; a
  // flattened root applies them in that order, so a line the delta keeps
  // is erased and re-inserted, never lost.
  const bool layered = index->base_ != nullptr;
  {
    LineHasher revoke([&](const crypto::Digest& t) {
      if (layered) {
        index->revoked_.insert(t);
      } else {
        index->allowed_.erase(t);
      }
    });
    for (const policy_store::DeltaEntry& e : delta.entries) {
      const PathEntry* old = base->find(e.path);
      if (old == nullptr || old->excluded) continue;
      for (const std::string& h : old->hashes) revoke.add(e.path, h);
    }
    revoke.flush();
  }
  LineHasher allow([&](const crypto::Digest& t) { index->allowed_.insert(t); });
  for (const policy_store::DeltaEntry& e : delta.entries) {
    if (e.op == policy_store::DeltaEntry::Op::kRemove) {
      if (layered) {
        index->removed_.insert(e.path);
      } else {
        index->paths_.erase(e.path);
      }
      continue;
    }
    PathEntry entry;
    entry.excluded = index->excluded_by_scan(e.path);
    entry.hashes = e.hashes;
    if (!entry.excluded) {
      for (const std::string& h : e.hashes) allow.add(e.path, h);
    }
    index->paths_.insert_or_assign(e.path, std::move(entry));
  }
  allow.flush();
  return index;
}

std::uint64_t PolicyIndex::full_build_count() {
  return g_full_builds.load(std::memory_order_relaxed);
}

std::uint64_t PolicyIndex::incremental_build_count() {
  return g_incremental_builds.load(std::memory_order_relaxed);
}

bool PolicyIndex::excluded_by_scan(std::string_view path) const {
  if (!dir_excludes_.empty()) {
    // A compiled "DIR/*" glob matches iff DIR/ is a prefix of the path,
    // and every such prefix ends at one of the path's '/' characters.
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] != '/') continue;
      if (dir_excludes_.count(path.substr(0, i + 1)) != 0) return true;
    }
  }
  if (!general_excludes_.empty()) {
    const std::string owned(path);  // glob_match wants std::string
    for (const std::string& glob : general_excludes_) {
      if (glob_match(glob, owned)) return true;
    }
  }
  return false;
}

const PolicyIndex::PathEntry* PolicyIndex::find(std::string_view path) const {
  for (const PolicyIndex* layer = this;; layer = layer->base_.get()) {
    auto it = layer->paths_.find(path);
    if (it != layer->paths_.end()) return &it->second;
    if (layer->base_ == nullptr || layer->removed_.count(path) != 0) {
      return nullptr;
    }
  }
}

PolicyMatch PolicyIndex::check(const std::string& path,
                               const std::string& hash_hex,
                               bool* known) const {
  const PathEntry* entry = find(path);
  if (known) *known = entry != nullptr;
  if (entry == nullptr) {
    return excluded_by_scan(path) ? PolicyMatch::kExcluded
                                  : PolicyMatch::kNotInPolicy;
  }
  if (entry->excluded) return PolicyMatch::kExcluded;
  if (std::find(entry->hashes.begin(), entry->hashes.end(), hash_hex) !=
      entry->hashes.end()) {
    return PolicyMatch::kAllowed;
  }
  return PolicyMatch::kHashMismatch;
}

PolicyMatch PolicyIndex::check(std::string_view path,
                               const crypto::Digest& hash,
                               bool* known) const {
  const PathEntry* entry = find(path);
  if (known) *known = entry != nullptr;
  if (entry == nullptr) {
    return excluded_by_scan(path) ? PolicyMatch::kExcluded
                                  : PolicyMatch::kNotInPolicy;
  }
  if (entry->excluded) return PolicyMatch::kExcluded;
  for (const std::string& h : entry->hashes) {
    if (hex_names_digest(h, hash)) return PolicyMatch::kAllowed;
  }
  return PolicyMatch::kHashMismatch;
}

PolicyMatch PolicyIndex::appraise(std::string_view path,
                                  const crypto::Digest& file_hash,
                                  const crypto::Digest& template_hash,
                                  bool* known) const {
  // Youngest layer first: an added line allows, a revoked one stops the
  // walk, so a line a later delta replaced is never found further down.
  for (const PolicyIndex* layer = this; layer != nullptr;
       layer = layer->base_.get()) {
    if (layer->allowed_.contains(template_hash)) {
      if (known) *known = true;
      return PolicyMatch::kAllowed;
    }
    if (layer->revoked_.contains(template_hash)) break;
  }
  return check(path, file_hash, known);
}

}  // namespace cia::keylime
