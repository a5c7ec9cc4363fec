// The full-vs-delta equivalence battery for the content-addressed policy
// store (src/keylime/policy_store/).
//
// The battery's core claim: for ANY base policy and ANY edit script,
// shipping the edit as a digest-bound PolicyDelta and patching the
// installed index incrementally is observably identical to shipping the
// full target policy and rebuilding from scratch — same canonical JSON,
// same digest, same index probe verdicts, same appraisal alerts, same
// telemetry books. 60 seeded random (policy, edit-script) pairs drive
// diff/apply/build_incremental against the full-rebuild oracle; a
// failing seed is greedily shrunk to a minimal edit script before it is
// reported, so a red run names the one edit that broke equivalence
// instead of a 13-op blob.
//
// Alongside the battery: the strict-decode rejection table for the delta
// wire format, the apply() provenance gates (wrong base, tampered
// target, structural conflicts — all rejected with the base untouched),
// the PolicyStore content-addressing contract, canary-slice determinism,
// and the pool-level dedupe pins — a bulk push to N shards costs exactly
// one index build, a delta push zero full builds, and a same-digest
// repush zero builds of any kind (the promote path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/rollout.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/runtime_policy.hpp"
#include "telemetry/metrics.hpp"
#include "testkit/generators.hpp"

namespace cia {
namespace {

namespace ps = keylime::policy_store;
using experiments::PoolFleet;
using experiments::PoolFleetOptions;
using keylime::PolicyIndex;
using keylime::PolicyMatch;
using keylime::RuntimePolicy;

std::string hex_of(const std::string& seed_text) {
  return crypto::digest_hex(crypto::sha256(seed_text));
}

// Does index->appraise() on digest `d`, with the template hash the
// verifier would compute, give the oracle's verdict and the same `known`
// flag as index->check()?
bool appraise_agrees(const PolicyIndex& index, const RuntimePolicy& oracle,
                     const std::string& path, const crypto::Digest& d) {
  bool known_check = false, known_appraise = false;
  const PolicyMatch checked = index.check(path, d, &known_check);
  const PolicyMatch appraised = index.appraise(
      path, crypto::template_hash_of(d, path), &known_appraise);
  return appraised == oracle.check(path, d) && appraised == checked &&
         known_appraise == known_check;
}

// ----------------------------------------------------------- edit scripts

// One mutation of a policy. The generator draws scripts of these; the
// shrinker deletes them one at a time while the failure persists.
struct Edit {
  enum class Kind { kAdd, kRemove, kReplace, kExclude };
  Kind kind = Kind::kAdd;
  std::string path;                 // add/remove/replace
  std::vector<crypto::Digest> hashes;  // add/replace
  std::string glob;                 // exclude
};

const char* edit_kind_name(Edit::Kind k) {
  switch (k) {
    case Edit::Kind::kAdd: return "add";
    case Edit::Kind::kRemove: return "remove";
    case Edit::Kind::kReplace: return "replace";
    case Edit::Kind::kExclude: return "exclude";
  }
  return "?";
}

std::string describe(const std::vector<Edit>& edits) {
  std::ostringstream out;
  for (const Edit& e : edits) {
    out << "  " << edit_kind_name(e.kind) << " "
        << (e.kind == Edit::Kind::kExclude ? e.glob : e.path);
    if (!e.hashes.empty()) out << " (" << e.hashes.size() << " hashes)";
    out << "\n";
  }
  return out.str();
}

RuntimePolicy apply_edits(const RuntimePolicy& base,
                          const std::vector<Edit>& edits) {
  RuntimePolicy target = base;
  for (const Edit& e : edits) {
    switch (e.kind) {
      case Edit::Kind::kAdd:
      case Edit::Kind::kReplace:
        target.set_hashes(e.path, e.hashes);
        break;
      case Edit::Kind::kRemove:
        target.remove_path(e.path);
        break;
      case Edit::Kind::kExclude:
        target.exclude(e.glob);
        break;
    }
  }
  return target;
}

std::vector<crypto::Digest> fresh_hashes(Rng& rng) {
  std::vector<crypto::Digest> hashes;
  const std::size_t n = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n; ++i) {
    hashes.push_back(crypto::sha256(rng.ident(12)));
  }
  return hashes;
}

// A random edit script against `base`: adds, removals and hash swaps in
// the §III-C daily-update shape, with an occasional exclude-list edit to
// force build_incremental through its full-rebuild fallback. The leading
// add targets a reserved path no other edit touches, so a script can
// never cancel to the identity (diff() of identical policies is not a
// valid delta, and rightly so).
std::vector<Edit> gen_edits(Rng& rng, const RuntimePolicy& base,
                            std::uint64_t tag) {
  std::vector<std::string> paths;
  base.for_each_path([&](const std::string& path,
                         const std::vector<crypto::Digest>&) {
    paths.push_back(path);
  });

  std::vector<Edit> edits;
  edits.push_back({Edit::Kind::kAdd,
                   strformat("/gen/keep-%llu",
                             static_cast<unsigned long long>(tag)),
                   fresh_hashes(rng), ""});
  const std::size_t n = 1 + rng.uniform(12);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.uniform(10);
    if (pick < 4) {
      edits.push_back({Edit::Kind::kAdd, "/gen/extra-" + rng.ident(6),
                       fresh_hashes(rng), ""});
    } else if (pick < 7 && !paths.empty()) {
      edits.push_back({Edit::Kind::kReplace,
                       paths[rng.uniform(paths.size())], fresh_hashes(rng),
                       ""});
    } else if (pick < 9 && !paths.empty()) {
      edits.push_back({Edit::Kind::kRemove, paths[rng.uniform(paths.size())],
                       {},
                       ""});
    } else {
      edits.push_back({Edit::Kind::kExclude, "", {},
                       "/var/gen-" + rng.ident(4) + "/*"});
    }
  }
  return edits;
}

// ------------------------------------------------- the equivalence oracle

// Empty string = the edit script round-trips exactly; otherwise a
// description of the first divergence. A script that cancels out to the
// identity policy vacuously passes (there is no delta to ship then).
std::string round_trip_failure(const RuntimePolicy& base,
                               const std::vector<Edit>& edits) {
  const RuntimePolicy target = apply_edits(base, edits);
  const std::string base_digest = ps::policy_digest(base);
  const std::string target_digest = ps::policy_digest(target);
  if (base_digest == target_digest) return "";

  // diff -> apply reproduces the target bit-for-bit.
  const ps::PolicyDelta delta = ps::diff(base, target);
  if (delta.base_digest != base_digest || delta.target_digest != target_digest)
    return "diff() mislabeled its digest binding";
  auto applied = ps::apply(base, delta);
  if (!applied.ok()) return "apply() rejected its own diff: " +
                            applied.error().message;
  if (applied.value().to_json().dump() != target.to_json().dump())
    return "apply(diff()) is not the identity on canonical JSON";
  if (ps::policy_digest(applied.value()) != target_digest)
    return "applied policy does not hash to the target digest";

  // Wire fixed point: everything diff() mints survives strict decode.
  auto reparsed = ps::PolicyDelta::parse(delta.serialize());
  if (!reparsed.ok())
    return "strict decoder rejected diff() output: " +
           reparsed.error().message;
  if (!(reparsed.value() == delta))
    return "parse(serialize()) is not the identity";

  // Index equivalence: the incremental patch of the base index must be
  // observably identical to a from-scratch build of the target.
  const auto base_index = PolicyIndex::build(base, 1);
  const auto full_index = PolicyIndex::build(target, 2);
  const auto incr_index =
      PolicyIndex::build_incremental(base_index, target, delta, 2);
  if (full_index->entry_count() != incr_index->entry_count())
    return "entry_count diverged between full and incremental build";
  if (full_index->path_count() != incr_index->path_count())
    return "path_count diverged between full and incremental build";
  if (incr_index->entry_count() != target.entry_count())
    return "incremental index lost entries vs the target policy";

  std::vector<std::string> probes;
  base.for_each_path([&](const std::string& path,
                         const std::vector<crypto::Digest>&) {
    probes.push_back(path);
  });
  target.for_each_path([&](const std::string& path,
                           const std::vector<crypto::Digest>&) {
    probes.push_back(path);
  });
  Rng probe_rng(ps::policy_digest(target).size() + target.entry_count());
  for (int i = 0; i < 16; ++i) probes.push_back(testkit::gen_path(probe_rng));

  const crypto::Digest bogus{};  // all zero
  for (const std::string& path : probes) {
    std::vector<crypto::Digest> hashes{bogus};
    if (const auto* h = target.hashes_for(path); h && !h->empty())
      hashes.push_back(h->front());
    if (const auto* h = base.hashes_for(path); h && !h->empty())
      hashes.push_back(h->front());
    for (const crypto::Digest& d : hashes) {
      bool known_full = false, known_incr = false;
      const PolicyMatch oracle = target.check(path, d);
      const PolicyMatch full = full_index->check(path, d, &known_full);
      const PolicyMatch incr = incr_index->check(path, d, &known_incr);
      if (full != oracle)
        return "full index disagrees with RuntimePolicy::check on " + path;
      if (incr != full || known_incr != known_full)
        return "incremental index diverged from full build on " + path;
      if (!appraise_agrees(*full_index, target, path, d))
        return "full index appraise() disagrees with check() on " + path;
      if (!appraise_agrees(*incr_index, target, path, d))
        return "incremental index appraise() disagrees with check() on " +
               path;
    }
  }
  return "";
}

// Greedy delta-debugging: drop one edit at a time while the failure
// persists, so the reported script is locally minimal.
std::vector<Edit> shrink_edits(const RuntimePolicy& base,
                               std::vector<Edit> edits) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < edits.size(); ++i) {
      std::vector<Edit> candidate = edits;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (candidate.empty()) continue;
      if (!round_trip_failure(base, candidate).empty()) {
        edits = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return edits;
}

TEST(PolicyDeltaEquivalence, SixtySeedBattery) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 1000 + 7);
    const RuntimePolicy base = testkit::gen_policy(rng, 48);
    const std::vector<Edit> edits = gen_edits(rng, base, seed);
    const std::string failure = round_trip_failure(base, edits);
    if (!failure.empty()) {
      const std::vector<Edit> minimal = shrink_edits(base, edits);
      FAIL() << "seed " << seed << ": " << round_trip_failure(base, minimal)
             << "\nminimal edit script (" << minimal.size() << " of "
             << edits.size() << " edits):\n"
             << describe(minimal);
    }
  }
}

// A stream of daily deltas builds an overlay chain: each incremental
// index stores only its patch and resolves everything else through the
// shared base. The chain must stay observably identical to a
// from-scratch build at EVERY step, cap its depth at kMaxLayerDepth
// (flattening instead of growing without bound), and never pay a full
// build.
TEST(PolicyDeltaEquivalence, DeltaChainStaysEquivalentAndFlattens) {
  Rng rng(910);
  RuntimePolicy current = testkit::gen_policy(rng, 40);
  auto index = PolicyIndex::build(current, 1);
  ASSERT_EQ(index->layer_depth(), 0u);
  const std::uint64_t full_builds_before = PolicyIndex::full_build_count();

  bool flattened = false;
  std::uint64_t oracle_builds = 0;
  // Every (path, hash) line any revision of the chain ever carried. The
  // old lines of replaced and removed paths are where a stale allow
  // would show: an overlay that fails to shadow its paths lets
  // appraise() find one in an older layer, or the flatten keeps it.
  std::map<std::string, std::vector<crypto::Digest>> history;
  const auto remember = [&](const RuntimePolicy& p) {
    p.for_each_path([&](const std::string& path,
                        const std::vector<crypto::Digest>& hashes) {
      std::vector<crypto::Digest>& seen = history[path];
      for (const crypto::Digest& h : hashes) {
        if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
          seen.push_back(h);
        }
      }
    });
  };
  remember(current);
  const std::size_t steps = 2 * PolicyIndex::kMaxLayerDepth + 3;
  for (std::size_t step = 1; step <= steps; ++step) {
    // Exclude edits force the full-rebuild fallback (which resets the
    // chain anyway); drop them so this stream exercises pure layering.
    std::vector<Edit> edits = gen_edits(rng, current, 1000 + step);
    edits.erase(std::remove_if(edits.begin(), edits.end(),
                               [](const Edit& e) {
                                 return e.kind == Edit::Kind::kExclude;
                               }),
                edits.end());
    const RuntimePolicy target = apply_edits(current, edits);
    if (ps::policy_digest(target) == ps::policy_digest(current)) continue;
    const ps::PolicyDelta delta = ps::diff(current, target);

    const std::size_t prev_depth = index->layer_depth();
    index = PolicyIndex::build_incremental(index, target, delta,
                                           1 + static_cast<std::uint64_t>(step));
    ASSERT_NE(index, nullptr);
    EXPECT_LE(index->layer_depth(), PolicyIndex::kMaxLayerDepth);
    if (prev_depth == PolicyIndex::kMaxLayerDepth) {
      EXPECT_EQ(index->layer_depth(), 0u) << "step " << step
                                          << ": chain did not flatten";
      flattened = true;
    } else {
      EXPECT_EQ(index->layer_depth(), prev_depth + 1) << "step " << step;
    }

    // Equivalent to a from-scratch build over every path the delta
    // touched (including removals, which must shadow older layers down
    // to not-in-policy) and every path the target still carries.
    const auto fresh = PolicyIndex::build(target, 99);
    ++oracle_builds;
    EXPECT_EQ(index->entry_count(), fresh->entry_count()) << "step " << step;
    EXPECT_EQ(index->path_count(), fresh->path_count()) << "step " << step;
    std::vector<std::string> probes;
    for (const ps::DeltaEntry& e : delta.entries) probes.push_back(e.path);
    target.for_each_path([&](const std::string& path,
                             const std::vector<crypto::Digest>&) {
      probes.push_back(path);
    });
    for (const std::string& path : probes) {
      const std::vector<crypto::Digest>* hashes = target.hashes_for(path);
      std::vector<crypto::Digest> candidates = {
          crypto::sha256("bogus:" + path)};
      if (hashes != nullptr && !hashes->empty()) {
        candidates.push_back(hashes->front());
      }
      for (const crypto::Digest& d : candidates) {
        bool layered_known = false, fresh_known = false;
        const PolicyMatch layered = index->check(path, d, &layered_known);
        const PolicyMatch flat = fresh->check(path, d, &fresh_known);
        ASSERT_EQ(layered, flat) << "step " << step << " path " << path;
        ASSERT_EQ(layered_known, fresh_known)
            << "step " << step << " path " << path;
        ASSERT_EQ(layered, target.check(path, d))
            << "step " << step << " path " << path;
      }
    }
    remember(target);
    for (const auto& [path, hashes] : history) {
      for (const crypto::Digest& h : hashes) {
        ASSERT_TRUE(appraise_agrees(*index, target, path, h))
            << "step " << step << " depth " << index->layer_depth()
            << " path " << path << " hash " << crypto::digest_hex(h);
        ASSERT_TRUE(appraise_agrees(*fresh, target, path, h))
            << "step " << step << " path " << path << " hash "
            << crypto::digest_hex(h);
      }
    }
    current = target;
  }
  EXPECT_TRUE(flattened) << "chain never reached the flatten threshold";
  // The fresh oracle builds above are the only full builds; neither the
  // delta stream nor the flatten ever pays one.
  EXPECT_EQ(PolicyIndex::full_build_count(), full_builds_before + oracle_builds);
}

// A path a layer adds under an exclude glob is excluded in that layer,
// and must stay excluded when the flatten rebuilds the root from the
// target: its class comes from the youngest layer that defines it, and
// the old root never saw the path.
TEST(PolicyDeltaEquivalence, FlattenKeepsTheClassesLayersGave) {
  RuntimePolicy current;
  current.allow("/usr/bin/base", hex_of("base"));
  current.exclude("*.log");
  auto index = PolicyIndex::build(current, 1);
  for (std::size_t step = 1; step <= PolicyIndex::kMaxLayerDepth + 1;
       ++step) {
    RuntimePolicy target = current;
    target.allow(strformat("/var/app/run-%zu.log", step),
                 hex_of(strformat("log-%zu", step)));
    target.allow(strformat("/usr/bin/tool-%zu", step),
                 hex_of(strformat("tool-%zu", step)));
    index = PolicyIndex::build_incremental(index, target,
                                           ps::diff(current, target), step + 1);
    current = target;
  }
  ASSERT_EQ(index->layer_depth(), 0u) << "chain did not flatten";
  const auto fresh = PolicyIndex::build(current, 99);
  current.for_each_path([&](const std::string& path,
                            const std::vector<crypto::Digest>& hashes) {
    const crypto::Digest& d = hashes.front();
    bool known = false, fresh_known = false;
    const PolicyMatch flat = index->check(path, d, &known);
    EXPECT_EQ(flat, current.check(path, d)) << path;
    EXPECT_EQ(flat, fresh->check(path, d, &fresh_known)) << path;
    EXPECT_EQ(known, fresh_known) << path;
  });
}

// The flatten takes each path's class from the chain; where two layers
// define a path the youngest must win, as in appraise()'s walk.
// An excluded base path that one layer removes and a later layer adds
// back is excluded again after the flatten, never listed with its lines
// allowed.
TEST(PolicyDeltaEquivalence, FlattenTakesTheYoungestLayersClass) {
  RuntimePolicy current;
  current.allow("/usr/bin/base", hex_of("base"));
  current.allow("/var/app/run.log", hex_of("log-0"));
  current.exclude("*.log");
  auto index = PolicyIndex::build(current, 1);
  for (std::size_t step = 1; step <= PolicyIndex::kMaxLayerDepth + 1;
       ++step) {
    RuntimePolicy target = current;
    if (step == 1) target.remove_path("/var/app/run.log");
    if (step == 2) target.allow("/var/app/run.log", hex_of("log-2"));
    target.allow(strformat("/usr/bin/tool-%zu", step),
                 hex_of(strformat("tool-%zu", step)));
    index = PolicyIndex::build_incremental(index, target,
                                           ps::diff(current, target), step + 1);
    current = target;
  }
  ASSERT_EQ(index->layer_depth(), 0u) << "chain did not flatten";
  const auto fresh = PolicyIndex::build(current, 99);
  const crypto::Digest d = crypto::sha256("log-2");
  bool known = false, fresh_known = false;
  EXPECT_EQ(index->check("/var/app/run.log", d, &known),
            PolicyMatch::kExcluded);
  EXPECT_EQ(fresh->check("/var/app/run.log", d, &fresh_known),
            PolicyMatch::kExcluded);
  EXPECT_EQ(known, fresh_known);
}

// The digest really is content addressing over canonical JSON.
TEST(PolicyDigestTest, ContentAddressed) {
  RuntimePolicy a;
  a.allow("/bin/x", hex_of("x"));
  a.exclude("/tmp/*");
  RuntimePolicy b;
  b.allow("/bin/x", hex_of("x"));
  b.exclude("/tmp/*");
  EXPECT_EQ(ps::policy_digest(a), ps::policy_digest(b));
  EXPECT_EQ(ps::policy_digest(a).size(), 64u);

  b.allow("/bin/y", hex_of("y"));
  EXPECT_NE(ps::policy_digest(a), ps::policy_digest(b));
}

// policy_digest streams the canonical bytes into SHA-256 without building
// the JSON tree; the tree's dump() is the oracle it must match byte for
// byte. Each case compares both the digests and the streamed bytes, so a
// failure names the first diverging offset.
std::string dom_digest(const RuntimePolicy& p) {
  return crypto::digest_hex(crypto::sha256(p.to_json().dump()));
}

struct Streamed {
  std::string bytes;
  std::size_t chunks = 0;
};

Streamed stream_canonical(const RuntimePolicy& p) {
  Streamed out;
  p.write_canonical_json([&](std::string_view chunk) {
    EXPECT_FALSE(chunk.empty());
    out.bytes.append(chunk);
    ++out.chunks;
  });
  return out;
}

void expect_streamed_equals_dom(const RuntimePolicy& p,
                                const std::string& what) {
  const std::string dom = p.to_json().dump();
  const std::string streamed = stream_canonical(p).bytes;
  if (streamed != dom) {
    std::size_t at = 0;
    while (at < dom.size() && at < streamed.size() && dom[at] == streamed[at])
      ++at;
    ADD_FAILURE() << what << ": streamed bytes diverge from dump() at offset "
                  << at << " of " << dom.size();
  }
  EXPECT_EQ(ps::policy_digest(p), dom_digest(p)) << what;
}

TEST(PolicyDigestTest, StreamedDigestMatchesCanonicalJsonEdgeCases) {
  expect_streamed_equals_dom(RuntimePolicy{}, "empty policy");

  RuntimePolicy excludes_only;
  excludes_only.exclude("/tmp/*");
  excludes_only.exclude("*.pyc");
  expect_streamed_equals_dom(excludes_only, "excludes only");

  RuntimePolicy paths_only;
  paths_only.allow("/usr/bin/a", hex_of("a"));
  paths_only.allow("/usr/bin/a", hex_of("a2"));
  paths_only.allow("/usr/bin/b", hex_of("b"));
  expect_streamed_equals_dom(paths_only, "paths only");

  // Every byte the escaper treats specially, in paths, hashes and globs.
  RuntimePolicy hostile;
  hostile.allow("/q\"uote", hex_of("quote"));
  hostile.allow("/back\\slash\\", hex_of("backslash"));
  for (int c = 0x00; c < 0x20; ++c) {
    const std::string path = "/ctl/" + std::string(1, static_cast<char>(c)) +
                             "x" + std::string(1, static_cast<char>(c));
    hostile.allow(path, hex_of(path));
  }
  hostile.allow("/del/\x7f", hex_of("del"));
  hostile.allow("/high/\x80\xc3\xa9\xfe\xff", hex_of("high"));
  hostile.allow(std::string("/nul\0mid", 9), hex_of("nul"));
  hostile.allow("", hex_of("empty path"));
  hostile.exclude("/g\"lob\\\n*");
  hostile.exclude(std::string(1, '\x1f'));
  expect_streamed_equals_dom(hostile, "escape-heavy paths and globs");

  // set_hashes() refuses hash strings that name no digest, as allow()
  // does, so no canonical form carries one.
  RuntimePolicy odd_hashes;
  EXPECT_FALSE(odd_hashes.set_hashes("/bin/upper", {std::string(64, 'A')}));
  EXPECT_FALSE(odd_hashes.set_hashes("/bin/short", {"abc"}));
  EXPECT_FALSE(odd_hashes.set_hashes("/bin/empty", {""}));
  EXPECT_FALSE(odd_hashes.set_hashes(
      "/bin/escapes", {"\"\\\t\x01\x7f\xff" + std::string(58, 'z')}));
  EXPECT_EQ(odd_hashes.entry_count(), 0u);
  expect_streamed_equals_dom(odd_hashes, "hash strings that are not hex");
}

// A policy several write buffers long, with runs of six-byte \u00XX
// escapes laid so that a buffer boundary (every kCanonicalChunkBytes of
// output) falls at each offset inside an escape sequence across the
// shifts, and a key longer than the buffer itself.
TEST(PolicyDigestTest, StreamedDigestAcrossWriteBufferBoundaries) {
  constexpr std::size_t kChunk = RuntimePolicy::kCanonicalChunkBytes;
  for (std::size_t shift = 0; shift < 8; ++shift) {
    RuntimePolicy p;
    p.allow("/a" + std::string(shift, 's'), hex_of("shift"));
    for (std::size_t i = 0; i < 700; ++i) {
      p.allow(strformat("/b/fill-%04zu", i), hex_of(strformat("f%zu", i)));
    }
    p.allow("/c/" + std::string(4000, '\x01'), hex_of("escapes"));
    p.allow("/d/" + std::string(kChunk + 17, '\x02'), hex_of("long key"));
    for (std::size_t i = 0; i < 900; ++i) {
      p.allow(strformat("/e/%04zu-\x03\"\\", i), hex_of(strformat("e%zu", i)));
    }
    const std::string dom = p.to_json().dump();
    ASSERT_GT(dom.size(), 3 * kChunk);
    // The first buffer boundary lands inside the /c/ escape run.
    const std::size_t run = dom.find("/c/");
    ASSERT_LT(run, kChunk);
    ASSERT_GT(run + 3 + 6 * 4000, kChunk) << "shift " << shift;
    const Streamed streamed = stream_canonical(p);
    EXPECT_GE(streamed.chunks, 3u) << "shift " << shift;
    EXPECT_TRUE(streamed.bytes == dom) << "shift " << shift;
    EXPECT_EQ(ps::policy_digest(p), dom_digest(p)) << "shift " << shift;
  }
}

TEST(PolicyDigestTest, StreamedDigestMatchesCanonicalJsonAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919 + 3);
    const RuntimePolicy p = testkit::gen_policy(rng, 96);
    expect_streamed_equals_dom(p, strformat("seed %llu",
                                            static_cast<unsigned long long>(seed)));
  }
}

// One literal digest, recorded when the digest was still computed from
// the JSON tree: guards against the tree's dump() (the oracle above)
// drifting together with the streamed writer. The tab path's hash was
// 64 uppercase 'F's until set_hashes() began refusing hex that names no
// digest; its lowercase form (the same 32 bytes 0xff) was pinned from
// the last build that stored hex strings.
TEST(PolicyDigestTest, PinnedDigestOfAFixedPolicy) {
  RuntimePolicy p;
  p.allow("/usr/bin/bash", hex_of("bash"));
  p.allow("/usr/bin/bash", hex_of("bash-2"));
  p.allow("/usr/lib/x86_64-linux-gnu/libc.so.6", hex_of("libc"));
  p.allow("/usr/share/we\"ird\\dir/\x01\x1f\x7f\xc3\xa9", hex_of("weird"));
  ASSERT_TRUE(p.set_hashes("/tmp/tab\there", {std::string(64, 'f')}));
  p.exclude("/tmp/*");
  p.exclude("*.pyc");
  EXPECT_EQ(ps::policy_digest(p),
            "c8d89ae36917cc68a327b012ac1f92040e7bd39013f2cb57b5a1ea6174983fe1");
}

// ------------------------------------------------ strict-decode rejections

ps::PolicyDelta sample_delta() {
  RuntimePolicy base;
  base.allow("/bin/a", hex_of("a"));
  base.allow("/bin/b", hex_of("b"));
  base.exclude("/tmp/*");
  RuntimePolicy target = base;
  target.set_hashes("/bin/b", {hex_of("b2")});
  target.set_hashes("/bin/c", {hex_of("c")});
  return ps::diff(base, target);
}

void expect_rejected(const json::Value& doc, const std::string& why) {
  auto decoded = ps::PolicyDelta::parse(doc.dump());
  EXPECT_FALSE(decoded.ok()) << "decoder accepted " << why << ": "
                             << doc.dump();
}

TEST(PolicyDeltaDecodeTest, AcceptsItsOwnWireForm) {
  const ps::PolicyDelta delta = sample_delta();
  auto decoded = ps::PolicyDelta::parse(delta.serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_TRUE(decoded.value() == delta);
  EXPECT_EQ(decoded.value().serialize(), delta.serialize())
      << "decode must be a serialization fixed point";
}

// diff() copies hashes verbatim, so a parser that admitted a hash the
// delta decoder rejects let diff() mint a delta its own decoder refused:
// a base "/bin/a sha256:aaa…" and a target adding "/bin/b sha256:BBB…"
// both parsed, diffed and applied, and the delta then failed
// PolicyDelta::parse(serialize()). Both policy parsers now admit exactly
// what the decoder admits (crypto::is_digest_hex).
TEST(PolicyDeltaDecodeTest, ParsersAdmitOnlyWhatTheDeltaDecoderAdmits) {
  const std::string lower_a(64, 'a');
  const std::string upper_b(64, 'B');
  auto base = RuntimePolicy::parse("/bin/a sha256:" + lower_a + "\n");
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(RuntimePolicy::parse("/bin/a sha256:" + lower_a +
                                    "\n/bin/b sha256:" + upper_b + "\n")
                   .ok());
  for (const std::string& bad :
       {upper_b, std::string(64, 'g'), std::string(63, 'b'),
        std::string(65, 'b'), "0x" + std::string(62, 'b')}) {
    EXPECT_FALSE(RuntimePolicy::parse("/bin/b sha256:" + bad + "\n").ok())
        << bad;
    json::Value doc = base.value().to_json();
    json::Value list{json::Array{}};
    list.push_back(bad);
    doc.as_object().at("digests").set("/bin/b", std::move(list));
    EXPECT_FALSE(RuntimePolicy::from_json(doc).ok()) << bad;
  }
  EXPECT_TRUE(RuntimePolicy::parse("/bin/b sha256:" + std::string(64, 'b') +
                                   "\n")
                  .ok());
}

// Property: two policies the parsers admit always diff to a delta that
// survives its own strict decoder and applies back to the target.
TEST(PolicyDeltaDecodeTest, DiffOfParsedPoliciesRoundTrips) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919 + 3);
    const RuntimePolicy a_gen = testkit::gen_policy(rng, 24);
    RuntimePolicy b_gen = testkit::gen_policy(rng, 24);
    if (seed % 2 == 0) {
      // Overlapping pairs, so the delta also keeps and replaces paths.
      a_gen.for_each_path([&](const std::string& path,
                              const std::vector<crypto::Digest>& hashes) {
        if (rng.chance(0.5)) b_gen.set_hashes(path, hashes);
      });
    }
    // Through the JSON parser (any path bytes survive it), so both sides
    // hold only what a parser admits.
    auto a = RuntimePolicy::from_json(a_gen.to_json());
    auto b = RuntimePolicy::from_json(b_gen.to_json());
    ASSERT_TRUE(a.ok() && b.ok()) << "seed " << seed;
    if (ps::policy_digest(a.value()) == ps::policy_digest(b.value())) continue;
    const ps::PolicyDelta delta = ps::diff(a.value(), b.value());
    auto decoded = ps::PolicyDelta::parse(delta.serialize());
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.error().message;
    EXPECT_TRUE(decoded.value() == delta) << "seed " << seed;
    auto applied = ps::apply(a.value(), decoded.value());
    ASSERT_TRUE(applied.ok()) << "seed " << seed << ": "
                              << applied.error().message;
    EXPECT_EQ(ps::policy_digest(applied.value()), ps::policy_digest(b.value()))
        << "seed " << seed;
    ++checked;
  }
  EXPECT_GE(checked, 50u);
}

TEST(PolicyDeltaDecodeTest, RejectionTable) {
  const ps::PolicyDelta delta = sample_delta();

  {
    json::Value doc = delta.to_json();
    doc.set("extra", 1);
    expect_rejected(doc, "an unknown top-level field");
  }
  {
    json::Value doc = delta.to_json();
    doc.set("version", 2);
    expect_rejected(doc, "a wrong version");
  }
  {
    json::Value doc = delta.to_json();
    doc.as_object().erase("version");
    expect_rejected(doc, "a missing version");
  }
  {
    json::Value doc = delta.to_json();
    doc.set("base", "ABCDEF");  // short and uppercase
    expect_rejected(doc, "a malformed base digest");
  }
  {
    json::Value doc = delta.to_json();
    doc.set("target", delta.base_digest);
    expect_rejected(doc, "identical base and target digests");
  }
  {
    json::Value doc = delta.to_json();
    doc.set("entries", 3);
    expect_rejected(doc, "a non-array entries field");
  }
  {
    json::Value doc = delta.to_json();
    doc.set("entries", json::Value{json::Array{}});
    doc.as_object().erase("excludes");
    expect_rejected(doc, "a delta that patches nothing");
  }
  {
    ps::PolicyDelta swapped = delta;
    ASSERT_GE(swapped.entries.size(), 2u);
    std::swap(swapped.entries.front(), swapped.entries.back());
    expect_rejected(swapped.to_json(), "out-of-order entries");
  }
  {
    ps::PolicyDelta dup = delta;
    dup.entries.push_back(dup.entries.back());
    expect_rejected(dup.to_json(), "a duplicated entry path");
  }
  {
    json::Value doc = delta.to_json();
    json::Value hashes{json::Array{}};
    hashes.push_back("zz");
    doc.as_object().at("entries").as_array().front().set("hashes",
                                                         std::move(hashes));
    expect_rejected(doc, "a non-hex entry hash");
  }
  {
    ps::PolicyDelta bad = delta;
    bad.entries.front().hashes = {crypto::sha256("h"), crypto::sha256("h")};
    expect_rejected(bad.to_json(), "a duplicated entry hash");
  }
  {
    ps::PolicyDelta bad = delta;
    bad.entries.front().hashes.clear();
    expect_rejected(bad.to_json(), "an add entry with no hashes");
  }
  {
    // A remove entry must not carry a hashes key at all.
    json::Value doc = delta.to_json();
    json::Value entry;
    entry.set("op", "remove");
    entry.set("path", "/zzz/last");
    entry.set("hashes", json::Value{json::Array{}});
    doc.as_object()["entries"].push_back(std::move(entry));
    expect_rejected(doc, "a remove entry carrying hashes");
  }
  {
    json::Value doc = delta.to_json();
    json::Value entry;
    entry.set("op", "upsert");
    entry.set("path", "/zzz/last");
    doc.as_object()["entries"].push_back(std::move(entry));
    expect_rejected(doc, "an unknown op");
  }
  {
    json::Value doc = delta.to_json();
    json::Value& entry = doc.as_object()["entries"].as_array().front();
    entry.set("note", "tamper");
    expect_rejected(doc, "an unknown per-entry field");
  }
  {
    json::Value doc = delta.to_json();
    json::Value globs{json::Array{}};
    globs.push_back("");
    doc.set("excludes", std::move(globs));
    expect_rejected(doc, "an empty exclude glob");
  }
}

// --------------------------------------------------- apply() provenance

TEST(PolicyApplyTest, WrongBaseRejectedWithNoPartialState) {
  const ps::PolicyDelta delta = sample_delta();
  RuntimePolicy other;
  other.allow("/bin/a", hex_of("a"));  // different content, different digest
  const std::string before = other.to_json().dump();

  auto applied = ps::apply(other, delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().code, Errc::kProtocolViolation);
  EXPECT_EQ(other.to_json().dump(), before)
      << "a rejected delta must leave the base policy untouched";
}

TEST(PolicyApplyTest, TamperedTargetDigestRejected) {
  RuntimePolicy base;
  base.allow("/bin/a", hex_of("a"));
  RuntimePolicy target = base;
  target.allow("/bin/b", hex_of("b"));
  ps::PolicyDelta delta = ps::diff(base, target);
  delta.target_digest[0] = delta.target_digest[0] == '0' ? '1' : '0';
  auto applied = ps::apply(base, delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().code, Errc::kProtocolViolation);
}

TEST(PolicyApplyTest, TamperedEntryHashRejected) {
  RuntimePolicy base;
  base.allow("/bin/a", hex_of("a"));
  RuntimePolicy target = base;
  target.allow("/bin/b", hex_of("b"));
  ps::PolicyDelta delta = ps::diff(base, target);
  ASSERT_EQ(delta.entries.size(), 1u);
  delta.entries.front().hashes = {crypto::sha256("evil")};  // wrong content
  auto applied = ps::apply(base, delta);
  ASSERT_FALSE(applied.ok())
      << "a patched policy that does not hash to the target must die";
}

TEST(PolicyApplyTest, StructuralConflictsRejectedBeforeDigestCheck) {
  RuntimePolicy base;
  base.allow("/bin/a", hex_of("a"));
  const std::string base_digest = ps::policy_digest(base);

  ps::PolicyDelta add_existing;
  add_existing.base_digest = base_digest;
  add_existing.target_digest = std::string(64, 'f');
  add_existing.entries.push_back(
      {ps::DeltaEntry::Op::kAdd, "/bin/a", {crypto::sha256("x")}});
  EXPECT_FALSE(ps::apply(base, add_existing).ok());

  ps::PolicyDelta replace_missing;
  replace_missing.base_digest = base_digest;
  replace_missing.target_digest = std::string(64, 'f');
  replace_missing.entries.push_back(
      {ps::DeltaEntry::Op::kReplace, "/bin/zz", {crypto::sha256("x")}});
  EXPECT_FALSE(ps::apply(base, replace_missing).ok());

  ps::PolicyDelta remove_missing;
  remove_missing.base_digest = base_digest;
  remove_missing.target_digest = std::string(64, 'f');
  remove_missing.entries.push_back({ps::DeltaEntry::Op::kRemove, "/bin/zz", {}});
  EXPECT_FALSE(ps::apply(base, remove_missing).ok());
}

// ------------------------------------------------------------ PolicyStore

TEST(PolicyStoreTest, ContentAddressingContract) {
  ps::PolicyStore store;
  EXPECT_TRUE(store.head().empty());

  RuntimePolicy v1;
  v1.allow("/bin/a", hex_of("a"));
  RuntimePolicy v2 = v1;
  v2.allow("/bin/b", hex_of("b"));

  const std::string d1 = store.put(v1);
  EXPECT_EQ(store.head(), d1);
  EXPECT_EQ(store.put(v1), d1) << "put must be idempotent on content";
  EXPECT_EQ(store.revision_count(), 1u);

  const std::string d2 = store.put(v2);
  EXPECT_NE(d1, d2);
  EXPECT_EQ(store.head(), d2);
  EXPECT_EQ(store.revision_count(), 2u);

  ASSERT_NE(store.get(d1), nullptr);
  EXPECT_EQ(ps::policy_digest(*store.get(d1)), d1);
  EXPECT_EQ(store.get(std::string(64, '9')), nullptr);

  const ps::PolicyDelta delta = ps::diff(v1, v2);
  store.put_delta(delta);
  EXPECT_EQ(store.delta_count(), 1u);
  ASSERT_NE(store.delta_between(d1, d2), nullptr);
  EXPECT_TRUE(*store.delta_between(d1, d2) == delta);
  EXPECT_EQ(store.delta_between(d2, d1), nullptr);
}

// ------------------------------------------------------------ canary slice

TEST(CanarySliceTest, DeterministicProperSlice) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < 100; ++i)
    ids.push_back(strformat("agent-%04zu", i));

  const auto slice = ps::canary_slice(ids, 0.25, 7);
  EXPECT_EQ(slice, ps::canary_slice(ids, 0.25, 7)) << "must be deterministic";
  EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
  EXPECT_GT(slice.size(), 0u);
  EXPECT_LT(slice.size(), ids.size());
  for (const std::string& id : slice)
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), id));

  // A quarter of the hash space should catch very roughly a quarter of
  // the fleet (the hash is avalanche-mixed, not a modulo).
  EXPECT_GT(slice.size(), 10u);
  EXPECT_LT(slice.size(), 45u);

  EXPECT_NE(ps::canary_slice(ids, 0.25, 8), slice)
      << "the seed must reshuffle the slice";
  EXPECT_EQ(ps::canary_slice(ids, 1.0, 7).size(), ids.size());
  EXPECT_EQ(ps::canary_slice(ids, 1e-9, 7).size(), 1u)
      << "a non-zero fraction must never select an empty canary";
}

// ------------------------------------------------- pool-level dedupe pins

// The N-shard duplicate-build fix: however many shards a revision fans
// out to, it costs exactly one index build — full for a cold push,
// incremental for a rebasing delta, zero for a same-digest repush.
TEST(PoolPushDedupTest, OneBuildPerRevisionAcrossShards) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = 6;
  options.seed = 99;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok()) << fleet.init_status().error().message;

  const std::uint64_t full0 = PolicyIndex::full_build_count();
  const std::uint64_t incr0 = PolicyIndex::incremental_build_count();

  // Cold content-addressed push: one full build for all 6 shards.
  const RuntimePolicy v1 = fleet.fleet_policy();
  const std::string d1 = ps::policy_digest(v1);
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), v1, d1, nullptr)
                  .ok());
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 1u);
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 0u);

  // Rebasing delta push: one incremental patch, zero full builds.
  RuntimePolicy v2 = v1;
  v2.set_hashes("/gen/daily-update", {hex_of("daily")});
  const std::string d2 = ps::policy_digest(v2);
  const ps::PolicyDelta delta = ps::diff(v1, v2);
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), v2, d2, &delta)
                  .ok());
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 1u)
      << "a rebasing delta must never pay a full rebuild";
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 1u);

  // Same-digest repush (the promote path): zero builds, no revision bump.
  const std::uint64_t revision = fleet.pool().policy_revision();
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), v2, d2, nullptr)
                  .ok());
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 1u);
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 1u);
  EXPECT_EQ(fleet.pool().policy_revision(), revision)
      << "reusing the cached index must not mint a new revision";

  // The telemetry books agree with the process-wide counters.
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "full"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "incremental"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "reused"}}),
            1u);

  // A delta minted against a policy that is not the head cannot prove
  // the base it would patch: it must fall back to a full build.
  RuntimePolicy other = v1;
  other.set_hashes("/gen/other-branch", {hex_of("other")});
  RuntimePolicy v3 = other;
  v3.set_hashes("/gen/daily-update-2", {hex_of("daily2")});
  const ps::PolicyDelta off_head = ps::diff(other, v3);
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), v3, ps::policy_digest(v3),
                                 &off_head)
                  .ok());
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 1u)
      << "a delta must not rebase onto an unproven base";
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 2u);

  // The staged revisions actually land on the fleet.
  fleet.run_workload_round(0);
  fleet.pool().run_round();
  EXPECT_EQ(fleet.pool().policy_revision_of(fleet.agent_ids().front()),
            fleet.pool().policy_revision());
}

// ------------------------------------------- fleet-level full vs delta

struct FleetOutcome {
  std::string alerts;
  std::string chains;
  std::string books;
};

std::string dump_alerts(std::vector<keylime::Alert> alerts) {
  std::sort(alerts.begin(), alerts.end(),
            [](const keylime::Alert& a, const keylime::Alert& b) {
              return std::tie(a.time, a.agent_id, a.log_index, a.path) <
                     std::tie(b.time, b.agent_id, b.log_index, b.path);
            });
  std::ostringstream out;
  for (const keylime::Alert& a : alerts) {
    out << a.time << " " << a.agent_id << " "
        << keylime::alert_type_name(a.type) << " " << a.path << " "
        << a.observed_hash_hex << " " << a.log_index << " rev="
        << a.policy_revision << "\n";
  }
  return out.str();
}

// Counters and gauges only: histograms record wall-clock micros, which
// legitimately differ between two otherwise identical runs. The two
// mode-distinguishing families are excluded too — they are the
// independent variable of the experiment, everything else is not
// allowed to move.
std::string dump_books(const telemetry::MetricsRegistry& metrics) {
  std::ostringstream out;
  for (const telemetry::MetricPoint& p : metrics.snapshot().points) {
    if (p.kind == telemetry::MetricKind::kHistogram) continue;
    if (p.name == "cia_policy_index_builds_total" ||
        p.name == "cia_policy_delta_entries_total") {
      continue;
    }
    out << p.name << "{";
    for (const auto& [k, v] : p.labels) out << k << "=" << v << ",";
    out << "}=" << p.value << "\n";
  }
  return out.str();
}

FleetOutcome run_fleet_push(bool use_delta, std::uint64_t seed) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 18;
  options.shards = 3;
  options.seed = seed;
  options.verifier.continue_on_failure = true;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  EXPECT_TRUE(fleet.init_status().ok());

  const RuntimePolicy v1 = fleet.fleet_policy();
  EXPECT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), v1, ps::policy_digest(v1),
                                 nullptr)
                  .ok());
  for (std::uint64_t round = 0; round < 2; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }

  // The "daily update": corrupt the digest of the binary first-executed
  // in round 2 (slot 8 = 2 rounds x 4 execs) and add one fresh path, so
  // every agent trips the corrupted digest under the new revision.
  RuntimePolicy v2;
  v1.for_each_path([&](const std::string& path,
                       const std::vector<crypto::Digest>& hashes) {
    if (path == "/usr/bin/tool-008") {
      v2.allow(path, crypto::sha256("equiv:corrupt:" + path));
    } else {
      for (const crypto::Digest& h : hashes) v2.allow(path, h);
    }
  });
  for (const std::string& glob : v1.excludes()) v2.exclude(glob);
  v2.allow("/gen/daily-extra", hex_of("extra"));

  const std::string d2 = ps::policy_digest(v2);
  if (use_delta) {
    const ps::PolicyDelta delta = ps::diff(v1, v2);
    EXPECT_TRUE(
        fleet.pool().push_revision(fleet.agent_ids(), v2, d2, &delta).ok());
    EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                    {{"mode", "incremental"}}),
              1u);
  } else {
    EXPECT_TRUE(
        fleet.pool().push_revision(fleet.agent_ids(), v2, d2, nullptr).ok());
    EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                    {{"mode", "incremental"}}),
              0u);
  }

  for (std::uint64_t round = 2; round < 5; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }

  FleetOutcome outcome;
  outcome.alerts = dump_alerts(fleet.pool().alerts());
  std::ostringstream chains;
  for (const auto& [agent, digest] :
       experiments::per_agent_chain_digests(fleet.pool())) {
    chains << agent << "=" << digest << "\n";
  }
  outcome.chains = chains.str();
  outcome.books = dump_books(metrics);
  return outcome;
}

// The tentpole's observable-equivalence claim at fleet level: a delta
// push and a full push of the same target revision produce the same
// alerts (same timestamps, same revision tags), the same per-agent audit
// chains, and the same telemetry books.
TEST(FleetFullVsDeltaTest, ObservablyIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const FleetOutcome full = run_fleet_push(false, seed);
    const FleetOutcome delta = run_fleet_push(true, seed);
    EXPECT_FALSE(full.alerts.empty())
        << "seed " << seed << ": the corrupted digest must alert";
    EXPECT_EQ(full.alerts, delta.alerts) << "seed " << seed;
    EXPECT_EQ(full.chains, delta.chains) << "seed " << seed;
    EXPECT_EQ(full.books, delta.books) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cia
