#include "keylime/policy_store/store.hpp"

#include <algorithm>
#include <atomic>

#include "crypto/sha256.hpp"

namespace cia::keylime::policy_store {

namespace {

/// streamed_digest_count()'s source.
std::atomic<std::uint64_t> g_streamed_digests{0};

Status check_hashes(const std::vector<crypto::Digest>& hashes,
                    const std::string& path) {
  if (hashes.empty()) {
    return err(Errc::kCorrupted, "delta entry for " + path + " has no hashes");
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    // RuntimePolicy::allow dedups, so a duplicated hash could never
    // reproduce the target digest — reject it at the decode boundary.
    for (std::size_t j = 0; j < i; ++j) {
      if (hashes[j] == hashes[i]) {
        return err(Errc::kCorrupted, "duplicate delta hash for " + path);
      }
    }
  }
  return Status::ok_status();
}

}  // namespace

std::string policy_digest(const RuntimePolicy& policy) {
  crypto::Digest digest;
  if (!policy.digest_memo_.load(digest)) {
    crypto::Sha256 ctx;
    policy.write_canonical_json([&ctx](std::string_view chunk) {
      ctx.update(chunk);
    });
    digest = ctx.finish();
    g_streamed_digests.fetch_add(1, std::memory_order_relaxed);
    policy.digest_memo_.store(digest);
  }
  return crypto::digest_hex(digest);
}

std::uint64_t streamed_digest_count() {
  return g_streamed_digests.load(std::memory_order_relaxed);
}

const char* delta_op_name(DeltaEntry::Op op) {
  switch (op) {
    case DeltaEntry::Op::kAdd: return "add";
    case DeltaEntry::Op::kRemove: return "remove";
    case DeltaEntry::Op::kReplace: return "replace";
  }
  return "?";
}

std::size_t PolicyDelta::entry_count() const {
  std::size_t lines = 0;
  for (const DeltaEntry& e : entries) {
    lines += e.op == DeltaEntry::Op::kRemove ? 1 : e.hashes.size();
  }
  return lines;
}

json::Value PolicyDelta::to_json() const {
  json::Value doc;
  doc.set("version", 1);
  doc.set("base", base_digest);
  doc.set("target", target_digest);
  json::Value list{json::Array{}};
  for (const DeltaEntry& e : entries) {
    json::Value entry;
    entry.set("op", delta_op_name(e.op));
    entry.set("path", e.path);
    if (e.op != DeltaEntry::Op::kRemove) {
      json::Value hashes{json::Array{}};
      for (const crypto::Digest& h : e.hashes) {
        hashes.push_back(crypto::digest_hex(h));
      }
      entry.set("hashes", std::move(hashes));
    }
    list.push_back(std::move(entry));
  }
  doc.set("entries", std::move(list));
  if (excludes) {
    json::Value globs{json::Array{}};
    for (const std::string& g : *excludes) globs.push_back(g);
    doc.set("excludes", std::move(globs));
  }
  return doc;
}

std::string PolicyDelta::serialize() const { return to_json().dump(); }

std::uint64_t PolicyDelta::byte_size() const { return serialize().size(); }

Result<PolicyDelta> PolicyDelta::from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    return err(Errc::kCorrupted, "delta document is not an object");
  }
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "version" && key != "base" && key != "target" &&
        key != "entries" && key != "excludes") {
      return err(Errc::kCorrupted, "delta has unknown field " + key);
    }
  }
  const json::Value* version = doc.find("version");
  if (!version || !version->is_number() || version->as_number() != 1) {
    return err(Errc::kCorrupted, "delta version is not 1");
  }
  PolicyDelta delta;
  for (const char* which : {"base", "target"}) {
    const json::Value* digest = doc.find(which);
    if (!digest || !digest->is_string() ||
        !crypto::is_digest_hex(digest->as_string())) {
      return err(Errc::kCorrupted,
                 std::string("delta ") + which + " is not a sha256 digest");
    }
    (which[0] == 'b' ? delta.base_digest : delta.target_digest) =
        digest->as_string();
  }
  if (delta.base_digest == delta.target_digest) {
    return err(Errc::kCorrupted, "delta base and target are identical");
  }
  const json::Value* entries = doc.find("entries");
  if (!entries || !entries->is_array()) {
    return err(Errc::kCorrupted, "delta entries is not an array");
  }
  for (const json::Value& item : entries->as_array()) {
    if (!item.is_object()) {
      return err(Errc::kCorrupted, "delta entry is not an object");
    }
    for (const auto& [key, value] : item.as_object()) {
      (void)value;
      if (key != "op" && key != "path" && key != "hashes") {
        return err(Errc::kCorrupted, "delta entry has unknown field " + key);
      }
    }
    DeltaEntry entry;
    const json::Value* op = item.find("op");
    if (!op || !op->is_string()) {
      return err(Errc::kCorrupted, "delta entry has no op");
    }
    if (op->as_string() == "add") {
      entry.op = DeltaEntry::Op::kAdd;
    } else if (op->as_string() == "remove") {
      entry.op = DeltaEntry::Op::kRemove;
    } else if (op->as_string() == "replace") {
      entry.op = DeltaEntry::Op::kReplace;
    } else {
      return err(Errc::kCorrupted, "bad delta op " + op->as_string());
    }
    const json::Value* path = item.find("path");
    if (!path || !path->is_string() || path->as_string().empty()) {
      return err(Errc::kCorrupted, "delta entry has no path");
    }
    entry.path = path->as_string();
    // Strictly increasing path order: the canonical form diff() emits,
    // and what makes an incremental index patch a single ordered sweep.
    if (!delta.entries.empty() && delta.entries.back().path >= entry.path) {
      return err(Errc::kCorrupted,
                 "delta entries not in strict path order at " + entry.path);
    }
    const json::Value* hashes = item.find("hashes");
    if (entry.op == DeltaEntry::Op::kRemove) {
      if (hashes != nullptr) {
        return err(Errc::kCorrupted,
                   "remove entry for " + entry.path + " carries hashes");
      }
    } else {
      if (!hashes || !hashes->is_array()) {
        return err(Errc::kCorrupted,
                   "delta entry for " + entry.path + " has no hashes array");
      }
      for (const json::Value& h : hashes->as_array()) {
        if (!h.is_string()) {
          return err(Errc::kCorrupted, "delta hash is not a string");
        }
        if (!crypto::digest_from_hex(h.as_string(),
                                     entry.hashes.emplace_back())) {
          return err(Errc::kCorrupted, "bad delta hash for " + entry.path);
        }
      }
      if (Status st = check_hashes(entry.hashes, entry.path); !st.ok()) {
        return st.error();
      }
    }
    delta.entries.push_back(std::move(entry));
  }
  if (const json::Value* globs = doc.find("excludes")) {
    if (!globs->is_array()) {
      return err(Errc::kCorrupted, "delta excludes is not an array");
    }
    std::vector<std::string> excludes;
    for (const json::Value& g : globs->as_array()) {
      if (!g.is_string() || g.as_string().empty()) {
        return err(Errc::kCorrupted, "delta exclude is not a glob string");
      }
      excludes.push_back(g.as_string());
    }
    delta.excludes = std::move(excludes);
  }
  if (delta.entries.empty() && !delta.excludes) {
    return err(Errc::kCorrupted, "delta patches nothing");
  }
  return delta;
}

Result<PolicyDelta> PolicyDelta::parse(const std::string& text) {
  auto doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return from_json(doc.value());
}

PolicyDelta diff(const RuntimePolicy& base, const RuntimePolicy& target) {
  PolicyDelta delta;
  delta.base_digest = policy_digest(base);
  delta.target_digest = policy_digest(target);

  // Both visit in sorted path order (the allow map is ordered), so one
  // merge walk over snapshots yields the patch already canonically
  // sorted.
  using PathRef =
      std::pair<const std::string*, const std::vector<crypto::Digest>*>;
  std::vector<PathRef> lhs, rhs;
  lhs.reserve(base.path_count());
  rhs.reserve(target.path_count());
  base.for_each_path([&](const std::string& path,
                         const std::vector<crypto::Digest>& hashes) {
    lhs.emplace_back(&path, &hashes);
  });
  target.for_each_path([&](const std::string& path,
                           const std::vector<crypto::Digest>& hashes) {
    rhs.emplace_back(&path, &hashes);
  });

  std::size_t i = 0, j = 0;
  while (i < lhs.size() || j < rhs.size()) {
    if (j == rhs.size() ||
        (i < lhs.size() && *lhs[i].first < *rhs[j].first)) {
      delta.entries.push_back(
          {DeltaEntry::Op::kRemove, *lhs[i].first, {}});
      ++i;
    } else if (i == lhs.size() || *rhs[j].first < *lhs[i].first) {
      delta.entries.push_back(
          {DeltaEntry::Op::kAdd, *rhs[j].first, *rhs[j].second});
      ++j;
    } else {
      if (*lhs[i].second != *rhs[j].second) {
        delta.entries.push_back(
            {DeltaEntry::Op::kReplace, *rhs[j].first, *rhs[j].second});
      }
      ++i;
      ++j;
    }
  }

  if (base.excludes() != target.excludes()) {
    delta.excludes = target.excludes();
  }
  return delta;
}

Result<RuntimePolicy> apply(const RuntimePolicy& base,
                            const PolicyDelta& delta) {
  // Provenance, incoming side: the delta must name the policy it is
  // applied to. A wrong-base delta dies here with the base untouched.
  if (policy_digest(base) != delta.base_digest) {
    return err(Errc::kProtocolViolation,
               "delta base digest does not match the installed revision");
  }
  RuntimePolicy patched = base;  // apply is pure: mutate a copy only
  for (const DeltaEntry& e : delta.entries) {
    const bool present = patched.hashes_for(e.path) != nullptr;
    switch (e.op) {
      case DeltaEntry::Op::kAdd:
        if (present) {
          return err(Errc::kProtocolViolation,
                     "delta adds existing path " + e.path);
        }
        patched.set_hashes(e.path, e.hashes);
        break;
      case DeltaEntry::Op::kReplace:
        if (!present) {
          return err(Errc::kProtocolViolation,
                     "delta replaces unknown path " + e.path);
        }
        patched.set_hashes(e.path, e.hashes);
        break;
      case DeltaEntry::Op::kRemove:
        if (patched.remove_path(e.path) == 0) {
          return err(Errc::kProtocolViolation,
                     "delta removes unknown path " + e.path);
        }
        break;
    }
  }
  if (delta.excludes) patched.set_excludes(*delta.excludes);
  // Provenance, outgoing side: the patched policy must hash to the
  // claimed target, or the delta lied about what it builds.
  if (policy_digest(patched) != delta.target_digest) {
    return err(Errc::kProtocolViolation,
               "patched policy does not hash to the delta target digest");
  }
  return patched;
}

std::string PolicyStore::put(const RuntimePolicy& policy) {
  std::string digest = policy_digest(policy);
  revisions_.emplace(digest, policy);  // idempotent: content addressed
  head_ = digest;
  return digest;
}

void PolicyStore::put_delta(const PolicyDelta& delta) {
  deltas_[{delta.base_digest, delta.target_digest}] = delta;
}

const RuntimePolicy* PolicyStore::get(const std::string& digest) const {
  auto it = revisions_.find(digest);
  return it == revisions_.end() ? nullptr : &it->second;
}

const PolicyDelta* PolicyStore::delta_between(
    const std::string& base_digest, const std::string& target_digest) const {
  auto it = deltas_.find({base_digest, target_digest});
  return it == deltas_.end() ? nullptr : &it->second;
}

}  // namespace cia::keylime::policy_store
