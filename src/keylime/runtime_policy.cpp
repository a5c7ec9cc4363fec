#include "keylime/runtime_policy.hpp"

#include <algorithm>
#include <utility>

#include "common/strutil.hpp"

namespace cia::keylime {

const char* policy_match_name(PolicyMatch m) {
  switch (m) {
    case PolicyMatch::kAllowed: return "allowed";
    case PolicyMatch::kHashMismatch: return "hash_mismatch";
    case PolicyMatch::kNotInPolicy: return "not_in_policy";
    case PolicyMatch::kExcluded: return "excluded";
  }
  return "?";
}

void RuntimePolicy::allow(const std::string& path, const crypto::Digest& hash) {
  auto& hashes = allow_[path];
  if (std::find(hashes.begin(), hashes.end(), hash) != hashes.end()) {
    return;  // already acceptable; keep the policy line count honest
  }
  hashes.push_back(hash);
  ++entry_count_;
}

bool RuntimePolicy::allow(const std::string& path, const std::string& hash_hex) {
  crypto::Digest hash;
  if (!crypto::digest_from_hex(hash_hex, hash)) return false;
  allow(path, hash);
  return true;
}

void RuntimePolicy::exclude(const std::string& glob) {
  excludes_.push_back(glob);
}

bool RuntimePolicy::is_excluded(std::string_view path) const {
  for (const std::string& glob : excludes_) {
    if (glob_match(glob, path)) return true;
  }
  return false;
}

PolicyMatch RuntimePolicy::check(std::string_view path,
                                 const crypto::Digest& hash) const {
  if (is_excluded(path)) return PolicyMatch::kExcluded;
  auto it = allow_.find(path);
  if (it == allow_.end()) return PolicyMatch::kNotInPolicy;
  if (std::find(it->second.begin(), it->second.end(), hash) !=
      it->second.end()) {
    return PolicyMatch::kAllowed;
  }
  return PolicyMatch::kHashMismatch;
}

PolicyMatch RuntimePolicy::check(std::string_view path,
                                 const std::string& hash_hex) const {
  crypto::Digest hash;
  if (crypto::digest_from_hex(hash_hex, hash)) return check(path, hash);
  if (is_excluded(path)) return PolicyMatch::kExcluded;
  return allow_.count(path) != 0 ? PolicyMatch::kHashMismatch
                                 : PolicyMatch::kNotInPolicy;
}

std::uint64_t RuntimePolicy::byte_size() const {
  std::uint64_t total = 0;
  for (const auto& [path, hashes] : allow_) {
    // "path sha256:<64 hex>\n"
    total += hashes.size() * (path.size() + 1 + 7 + 64 + 1);
  }
  for (const auto& glob : excludes_) total += 8 + glob.size() + 1;
  return total;
}

std::size_t RuntimePolicy::dedup() {
  std::size_t removed = 0;
  for (auto& [path, hashes] : allow_) {
    if (hashes.size() > 1) {
      removed += hashes.size() - 1;
      hashes.erase(hashes.begin(), hashes.end() - 1);
    }
  }
  entry_count_ -= removed;
  return removed;
}

std::size_t RuntimePolicy::remove_prefix(const std::string& prefix) {
  std::size_t removed = 0;
  for (auto it = allow_.begin(); it != allow_.end();) {
    if (starts_with(it->first, prefix)) {
      removed += it->second.size();
      it = allow_.erase(it);
    } else {
      ++it;
    }
  }
  entry_count_ -= removed;
  return removed;
}

std::string RuntimePolicy::serialize() const {
  std::string out;
  for (const auto& glob : excludes_) {
    out += "exclude " + glob + "\n";
  }
  for (const auto& [path, hashes] : allow_) {
    for (const crypto::Digest& h : hashes) {
      out += path;
      out += " sha256:";
      crypto::append_digest_hex(out, h);
      out += '\n';
    }
  }
  return out;
}

Result<RuntimePolicy> RuntimePolicy::parse(const std::string& text) {
  RuntimePolicy policy;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (starts_with(line, "exclude ")) {
      policy.exclude(line.substr(8));
      continue;
    }
    const std::size_t sep = line.rfind(" sha256:");
    if (sep == std::string::npos) {
      return err(Errc::kCorrupted, "bad policy line: " + line);
    }
    crypto::Digest hash;
    if (!crypto::digest_from_hex(std::string_view(line).substr(sep + 8),
                                 hash)) {
      return err(Errc::kCorrupted, "bad hash in line: " + line);
    }
    policy.allow(line.substr(0, sep), hash);
  }
  return policy;
}

namespace {

// The canonical form's field names, shared by to_json() and
// write_canonical_json(). The DOM sorts object keys; the writer emits
// them in that order by hand, so the order is pinned here.
constexpr char kDigestsField[] = "digests";
constexpr char kExcludesField[] = "excludes";
constexpr char kMetaField[] = "meta";
constexpr char kGeneratorField[] = "generator";
constexpr char kVersionField[] = "version";
constexpr char kGenerator[] = "cia-dynamic-policy-generator";
constexpr int kFormatVersion = 1;
static_assert(std::string_view(kDigestsField) < kExcludesField &&
              std::string_view(kExcludesField) < kMetaField);
static_assert(std::string_view(kGeneratorField) < kVersionField);

}  // namespace

json::Value RuntimePolicy::to_json() const {
  json::Value doc;
  json::Value meta;
  meta.set(kVersionField, kFormatVersion);
  meta.set(kGeneratorField, kGenerator);
  doc.set(kMetaField, std::move(meta));
  json::Value digests{json::Object{}};
  for (const auto& [path, hashes] : allow_) {
    json::Value list{json::Array{}};
    for (const crypto::Digest& h : hashes) {
      list.push_back(crypto::digest_hex(h));
    }
    digests.set(path, std::move(list));
  }
  doc.set(kDigestsField, std::move(digests));
  json::Value excludes{json::Array{}};
  for (const auto& glob : excludes_) excludes.push_back(glob);
  doc.set(kExcludesField, std::move(excludes));
  return doc;
}

void RuntimePolicy::write_canonical_json(
    const std::function<void(std::string_view)>& sink) const {
  std::string buf;
  buf.reserve(kCanonicalChunkBytes + 1024);
  // The buffer is handed on once it holds a chunk, checked after every
  // string or digest, so it outgrows its reserve by at most one escaped
  // string.
  const auto flush_full = [&] {
    if (buf.size() >= kCanonicalChunkBytes) {
      sink(buf);
      buf.clear();
    }
  };
  const auto str = [&](std::string_view s) {
    buf += '"';
    json::escape(buf, s);
    buf += '"';
    flush_full();
  };
  const auto key = [&](std::string_view k) {
    str(k);
    buf += ':';
  };
  const auto list = [&](const auto& items, const auto& item) {
    buf += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) buf += ',';
      item(items[i]);
    }
    buf += ']';
  };
  // A digest's hex needs no escaping: it is rendered straight into the
  // buffer, with no string of its own.
  const auto hex = [&](const crypto::Digest& d) {
    buf += '"';
    crypto::append_digest_hex(buf, d);
    buf += '"';
    flush_full();
  };

  buf += '{';
  key(kDigestsField);
  buf += '{';
  bool first = true;
  for (const auto& [path, hashes] : allow_) {
    if (!first) buf += ',';
    first = false;
    key(path);
    list(hashes, hex);
  }
  buf += "},";
  key(kExcludesField);
  list(excludes_, str);
  buf += ',';
  key(kMetaField);
  buf += '{';
  key(kGeneratorField);
  str(kGenerator);
  buf += ',';
  key(kVersionField);
  buf += std::to_string(kFormatVersion);
  buf += "}}";
  sink(buf);
}

Result<RuntimePolicy> RuntimePolicy::from_json(const json::Value& doc) {
  RuntimePolicy policy;
  if (!doc.is_object()) {
    return err(Errc::kCorrupted, "policy document is not an object");
  }
  if (const json::Value* excludes = doc.find(kExcludesField)) {
    if (!excludes->is_array()) {
      return err(Errc::kCorrupted, "excludes is not an array");
    }
    for (const auto& glob : excludes->as_array()) {
      if (!glob.is_string()) {
        return err(Errc::kCorrupted, "exclude entry is not a string");
      }
      policy.exclude(glob.as_string());
    }
  }
  const json::Value* digests = doc.find(kDigestsField);
  if (!digests || !digests->is_object()) {
    return err(Errc::kCorrupted, "missing digests object");
  }
  for (const auto& [path, hashes] : digests->as_object()) {
    if (!hashes.is_array()) {
      return err(Errc::kCorrupted, "digest list for " + path + " is not an array");
    }
    for (const auto& h : hashes.as_array()) {
      if (!h.is_string() || !policy.allow(path, h.as_string())) {
        return err(Errc::kCorrupted, "bad digest for " + path);
      }
    }
  }
  return policy;
}

void RuntimePolicy::for_each_path(
    const std::function<void(const std::string&,
                             const std::vector<crypto::Digest>&)>& fn) const {
  for (const auto& [path, hashes] : allow_) fn(path, hashes);
}

const std::vector<crypto::Digest>* RuntimePolicy::hashes_for(
    std::string_view path) const {
  auto it = allow_.find(path);
  return it == allow_.end() ? nullptr : &it->second;
}

void RuntimePolicy::set_hashes(const std::string& path,
                               std::vector<crypto::Digest> hashes) {
  if (hashes.empty()) {
    remove_path(path);
    return;
  }
  auto& slot = allow_[path];
  entry_count_ += hashes.size();
  entry_count_ -= slot.size();
  slot = std::move(hashes);
}

bool RuntimePolicy::set_hashes(const std::string& path,
                               const std::vector<std::string>& hashes_hex) {
  std::vector<crypto::Digest> hashes(hashes_hex.size());
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    if (!crypto::digest_from_hex(hashes_hex[i], hashes[i])) return false;
  }
  set_hashes(path, std::move(hashes));
  return true;
}

std::size_t RuntimePolicy::remove_path(const std::string& path) {
  auto it = allow_.find(path);
  if (it == allow_.end()) return 0;
  const std::size_t removed = it->second.size();
  entry_count_ -= removed;
  allow_.erase(it);
  return removed;
}

void RuntimePolicy::set_excludes(std::vector<std::string> globs) {
  excludes_ = std::move(globs);
}

void RuntimePolicy::merge(const RuntimePolicy& other) {
  for (const auto& glob : other.excludes_) {
    if (std::find(excludes_.begin(), excludes_.end(), glob) == excludes_.end()) {
      excludes_.push_back(glob);
    }
  }
  for (const auto& [path, hashes] : other.allow_) {
    for (const auto& h : hashes) allow(path, h);
  }
}

}  // namespace cia::keylime
