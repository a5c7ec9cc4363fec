#include "keylime/policy_index.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>

#include "common/strutil.hpp"
#include "keylime/policy_store/store.hpp"

namespace cia::keylime {

namespace {

/// uid() source. Starts at 1 so 0 stays "no index" in cache slots.
std::atomic<std::uint64_t> g_next_index_uid{1};

/// Build-count telemetry sources (full_build_count() and friends).
std::atomic<std::uint64_t> g_full_builds{0};
std::atomic<std::uint64_t> g_incremental_builds{0};

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
/// add() queues one (path, digest) line and `sink` receives its
/// template_hash_of(digest, path) once the block is hashed. Queued paths
/// and digests must stay alive until the next flush().
template <typename Sink>
class LineHasher {
 public:
  explicit LineHasher(Sink sink) : sink_(std::move(sink)) {}

  void add(std::string_view path, const crypto::Digest& file_hash) {
    inputs_[n_] = {file_hash.data(), file_hash.size(),
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

std::shared_ptr<PolicyIndex> PolicyIndex::build_root(
    const RuntimePolicy& policy, std::shared_ptr<const Excludes> excludes,
    const PolicyIndex* chain) {
  auto index = std::make_shared<PolicyIndex>();
  index->excludes_ = std::move(excludes);
  index->paths_.reserve(policy.path_count());
  index->allowed_.reserve(policy.entry_count());
  LineHasher allow([&](const crypto::Digest& t) { index->allowed_.insert(t); });
  policy.for_each_path(
      [&](const std::string& path, const std::vector<crypto::Digest>& hashes) {
        const bool excluded =
            chain != nullptr
                ? chain->find({path, SvHash{}(path)}) == PathClass::kExcluded
                : index->excluded_by_scan(path);
        index->paths_.emplace(path, excluded ? PathClass::kExcluded
                                             : PathClass::kListed);
        if (!excluded) {
          for (const crypto::Digest& h : hashes) allow.add(path, h);
        }
      });
  allow.flush();
  return index;
}

std::shared_ptr<const PolicyIndex> PolicyIndex::build(
    const RuntimePolicy& policy, std::uint64_t revision) {
  g_full_builds.fetch_add(1, std::memory_order_relaxed);
  auto excludes = std::make_shared<Excludes>();
  for (const std::string& glob : policy.excludes()) {
    std::string prefix;
    if (is_dir_prefix_glob(glob, &prefix)) {
      excludes->dir_prefixes.insert(std::move(prefix));
    } else {
      excludes->general.push_back(glob);
    }
  }
  auto index = build_root(policy, std::move(excludes), nullptr);
  index->revision_ = revision;
  index->uid_ = g_next_index_uid.fetch_add(1, std::memory_order_relaxed);
  index->entry_count_ = policy.entry_count();
  index->path_count_ = policy.path_count();
  return index;
}

std::shared_ptr<const PolicyIndex> PolicyIndex::build_incremental(
    const std::shared_ptr<const PolicyIndex>& base, const RuntimePolicy& target,
    const policy_store::PolicyDelta& delta, std::uint64_t revision) {
  if (base == nullptr || delta.touches_excludes()) {
    // No base table to patch, or the exclude list changed under the
    // precomputed path classes: full rebuild.
    return build(target, revision);
  }
  g_incremental_builds.fetch_add(1, std::memory_order_relaxed);
  // Thin overlay: class only the delta's paths and hash only the lines
  // it adds; everything else resolves through the shared base. O(delta),
  // so a §III-C daily update costs ~1.3k entries against a 300k table it
  // never touches.
  auto index = std::make_shared<PolicyIndex>();
  index->base_ = base;
  index->excludes_ = base->excludes_;
  index->layer_depth_ = base->layer_depth_ + 1;
  LineHasher allow([&](const crypto::Digest& t) { index->allowed_.insert(t); });
  for (const policy_store::DeltaEntry& e : delta.entries) {
    PathClass cls = PathClass::kRemoved;
    if (e.op != policy_store::DeltaEntry::Op::kRemove) {
      cls = index->excluded_by_scan(e.path) ? PathClass::kExcluded
                                            : PathClass::kListed;
    }
    if (cls == PathClass::kListed) {
      for (const crypto::Digest& h : e.hashes) allow.add(e.path, h);
    }
    index->paths_.insert_or_assign(e.path, cls);
  }
  allow.flush();
  if (index->layer_depth_ > kMaxLayerDepth) {
    // Chain at the depth bound: flatten into a root rebuilt from the
    // target, amortized over kMaxLayerDepth O(delta) layers. The chain
    // classes every target path, so no glob is scanned.
    index = build_root(target, base->excludes_, index.get());
  }
  index->revision_ = revision;
  index->uid_ = g_next_index_uid.fetch_add(1, std::memory_order_relaxed);
  index->entry_count_ = target.entry_count();
  index->path_count_ = target.path_count();
  return index;
}

std::uint64_t PolicyIndex::full_build_count() {
  return g_full_builds.load(std::memory_order_relaxed);
}

std::uint64_t PolicyIndex::incremental_build_count() {
  return g_incremental_builds.load(std::memory_order_relaxed);
}

bool PolicyIndex::excluded_by_scan(std::string_view path) const {
  if (!excludes_->dir_prefixes.empty()) {
    // A compiled "DIR/*" glob matches iff DIR/ is a prefix of the path,
    // and every such prefix ends at one of the path's '/' characters.
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] != '/') continue;
      if (excludes_->dir_prefixes.count(path.substr(0, i + 1)) != 0) {
        return true;
      }
    }
  }
  for (const std::string& glob : excludes_->general) {
    if (glob_match(glob, path)) return true;
  }
  return false;
}

PolicyIndex::PathClass PolicyIndex::find(const HashedPath& path) const {
  for (const PolicyIndex* layer = this; layer != nullptr;
       layer = layer->base_.get()) {
    const auto it = layer->paths_.find(path);
    if (it != layer->paths_.end()) return it->second;
  }
  return PathClass::kRemoved;
}

PolicyMatch PolicyIndex::check(std::string_view path,
                               const crypto::Digest& hash,
                               bool* known) const {
  return appraise(path, crypto::template_hash_of(hash, path), known);
}

PolicyMatch PolicyIndex::appraise(std::string_view path,
                                  const crypto::Digest& template_hash,
                                  bool* known) const {
  // Youngest layer first. A layer's set holds lines only of paths that
  // layer defines, and the first layer defining the path shadows the
  // older ones, so a line a later delta replaced is never found further
  // down. The path is hashed once, and only after a set miss: an allowed
  // entry on a root index never hashes it.
  std::optional<HashedPath> key;
  for (const PolicyIndex* layer = this; layer != nullptr;
       layer = layer->base_.get()) {
    if (layer->allowed_.contains(template_hash)) {
      if (known) *known = true;
      return PolicyMatch::kAllowed;
    }
    if (!key) key = HashedPath{path, SvHash{}(path)};
    const auto it = layer->paths_.find(*key);
    if (it == layer->paths_.end()) continue;
    if (it->second == PathClass::kRemoved) break;
    if (known) *known = true;
    return it->second == PathClass::kListed ? PolicyMatch::kHashMismatch
                                            : PolicyMatch::kExcluded;
  }
  if (known) *known = false;
  return excluded_by_scan(path) ? PolicyMatch::kExcluded
                                : PolicyMatch::kNotInPolicy;
}

// ------------------------------------------------------------- PolicyHead

Result<PolicyHead::Installed> PolicyHead::install(
    const RuntimePolicy& policy, const std::string& digest,
    const policy_store::PolicyDelta* delta) {
  if (digest.empty()) {
    return err(Errc::kInvalidArgument, "a policy push needs a content digest");
  }
  // Checked, not trusted: B pushed under the head's digest would reuse
  // the head and leave every agent on it. A caller that has just hashed
  // `policy` is answered from its digest memo.
  if (digest != policy_store::policy_digest(policy)) {
    return err(Errc::kInvalidArgument,
               "a policy push's digest does not name its policy");
  }
  if (revision_ != nullptr && digest == digest_) {
    // Same content as the head: the revision already paid for.
    return Installed{revision_, Build::kReused};
  }
  const bool rebases = revision_ != nullptr && delta != nullptr &&
                       delta->base_digest == digest_ &&
                       !delta->touches_excludes();
  auto index = rebases ? PolicyIndex::build_incremental(revision_->index,
                                                        policy, *delta, ++tag_)
                       : PolicyIndex::build(policy, ++tag_);
  revision_ = PolicyRevision::make(policy, std::move(index));
  digest_ = digest;
  return Installed{revision_, rebases ? Build::kIncremental : Build::kFull};
}

}  // namespace cia::keylime
