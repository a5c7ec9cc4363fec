// Property-based suites (parameterized over seeds / sizes) asserting the
// library's core invariants:
//
//   * IMA/TPM: replaying the measurement list always reproduces PCR 10,
//     no matter what the machine did;
//   * VFS: inode identity is unique per filesystem and stable across
//     in-filesystem renames, under arbitrary operation sequences;
//   * policy: serialize/parse and JSON round-trips for generated
//     policies; merge is a union; dedup never removes the ability to
//     match the newest hash;
//   * wire: arbitrary truncations of valid messages fail cleanly, and
//     bit-flipped frames never break the decode/re-encode contract;
//   * checkpoint: generated verifier checkpoints restore and round-trip;
//   * crypto: streaming hashing equals one-shot for any chunking; every
//     signed message verifies and no tampered one does.
//
// Random instances come from src/testkit's generators (the same sources
// the fuzz targets use), and failing policy round trips are minimized
// with the testkit shrinker before being reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/schnorr.hpp"
#include "keylime/messages.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/runtime_policy.hpp"
#include "oskernel/machine.hpp"
#include "testkit/generators.hpp"
#include "testkit/shrink.hpp"
#include "testkit/targets.hpp"

namespace cia {
namespace {

// ----------------------------------------------- IMA replay invariant

class ImaReplayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImaReplayProperty, RandomActivityAlwaysReplaysToPcr10) {
  Rng rng(GetParam());
  crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  SimClock clock;
  oskernel::MachineConfig config;
  config.seed = GetParam();
  oskernel::Machine machine(config, ca, &clock);
  auto& fs = machine.fs();

  std::vector<std::string> files;
  for (int step = 0; step < 300; ++step) {
    const auto action = rng.uniform(8);
    if (action <= 2 || files.empty()) {
      // Create an executable somewhere — half the time at a generated
      // adversarial path (SNAP shapes, spaces, deep nesting, tmpfs),
      // half at the classic mount points (incl. IMA-excluded ones).
      std::string path;
      if (rng.chance(0.5)) {
        path = testkit::gen_path(rng);
      } else {
        static const char* kDirs[] = {"/usr/bin", "/tmp", "/dev/shm",
                                      "/opt", "/proc", "/home"};
        path = std::string(kDirs[rng.uniform(6)]) + "/f" +
               std::to_string(step);
      }
      if (fs.create_file(path, rng.bytes(16), true).ok()) {
        files.push_back(path);
      }
    } else if (action == 3) {
      (void)machine.exec(files[rng.uniform(files.size())]);
    } else if (action == 4) {
      machine.mmap_library(files[rng.uniform(files.size())]);
    } else if (action == 5) {
      (void)fs.write_file(files[rng.uniform(files.size())], rng.bytes(16));
    } else if (action == 6) {
      const std::size_t idx = rng.uniform(files.size());
      const std::string dst = "/moved/f" + std::to_string(step);
      if (fs.rename(files[idx], dst).ok()) files[idx] = dst;
    } else {
      (void)machine.load_kernel_module(files[rng.uniform(files.size())]);
    }

    if (step % 50 == 0) {
      ASSERT_EQ(ima::replay_log(machine.ima().log()),
                machine.tpm().pcr_value(tpm::kImaPcr))
          << "seed " << GetParam() << " step " << step;
    }
  }
  EXPECT_EQ(ima::replay_log(machine.ima().log()),
            machine.tpm().pcr_value(tpm::kImaPcr));

  // The invariant must survive a reboot as well.
  machine.reboot();
  for (const auto& f : files) (void)machine.exec(f);
  EXPECT_EQ(ima::replay_log(machine.ima().log()),
            machine.tpm().pcr_value(tpm::kImaPcr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImaReplayProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ----------------------------------------------------- VFS invariants

class VfsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VfsProperty, InodesUniquePerFilesystemUnderRandomOps) {
  Rng rng(GetParam());
  vfs::Vfs fs;
  ASSERT_TRUE(fs.mount("/tmp2", vfs::FsType::kTmpfs).ok());
  ASSERT_TRUE(fs.mount("/data", vfs::FsType::kExt4).ok());

  std::vector<std::string> files;
  for (int step = 0; step < 400; ++step) {
    const auto action = rng.uniform(5);
    if (action <= 1 || files.empty()) {
      static const char* kDirs[] = {"/usr", "/tmp2", "/data", "/home"};
      const std::string path = std::string(kDirs[rng.uniform(4)]) + "/f" +
                               std::to_string(step);
      if (fs.create_file(path, rng.bytes(8), rng.chance(0.5)).ok()) {
        files.push_back(path);
      }
    } else if (action == 2) {
      const std::size_t idx = rng.uniform(files.size());
      static const char* kDirs[] = {"/usr", "/tmp2", "/data"};
      const std::string dst = std::string(kDirs[rng.uniform(3)]) + "/m" +
                              std::to_string(step);
      if (fs.rename(files[idx], dst).ok()) files[idx] = dst;
    } else if (action == 3) {
      const std::size_t idx = rng.uniform(files.size());
      if (fs.unlink(files[idx]).ok()) {
        files.erase(files.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else {
      (void)fs.write_file(files[rng.uniform(files.size())], rng.bytes(8));
    }
  }

  // Invariants: listing agrees with our bookkeeping, and no two files on
  // one filesystem share an inode.
  EXPECT_EQ(fs.list_files("/").size(), files.size());
  std::set<vfs::FileIdentity> identities;
  for (const auto& path : files) {
    const auto st = fs.stat(path);
    ASSERT_TRUE(st.ok()) << path;
    EXPECT_TRUE(identities.insert(st.value().id).second)
        << "duplicate identity for " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ------------------------------------------------- policy round trips

class PolicyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyProperty, GeneratedPoliciesRoundTripThroughTextAndJson) {
  Rng rng(GetParam());
  for (int i = 0; i < 4; ++i) {
    const keylime::RuntimePolicy policy = testkit::gen_policy(rng);
    const std::string text = policy.serialize();

    auto parsed = keylime::RuntimePolicy::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed.value().entry_count(), policy.entry_count());
    EXPECT_EQ(parsed.value().path_count(), policy.path_count());
    if (parsed.value().serialize() != text) {
      // Minimize before reporting: the shrunken text is a committable
      // reproducer for tests/corpus/regressions/.
      const std::string minimized = testkit::shrink_text(
          text, [](const std::string& t) {
            auto p = keylime::RuntimePolicy::parse(t);
            return p.ok() && p.value().serialize() != t;
          });
      FAIL() << "serialize round-trip diverged; minimized reproducer:\n"
             << minimized;
    }

    auto from_json = keylime::RuntimePolicy::from_json(policy.to_json());
    ASSERT_TRUE(from_json.ok());
    EXPECT_EQ(from_json.value().serialize(), text);
  }
}

TEST_P(PolicyProperty, MergeIsAUnionOfAllowsAndExcludes) {
  Rng rng(GetParam() ^ 0x6d657267);
  const keylime::RuntimePolicy ours = testkit::gen_policy(rng, 24);
  const keylime::RuntimePolicy theirs = testkit::gen_policy(rng, 24);

  // Every (path, hash) pair either side accepted must still be
  // acceptable after the merge (modulo the other side's excludes).
  const auto pairs_of = [](const keylime::RuntimePolicy& p) {
    std::vector<std::pair<std::string, std::string>> out;
    const json::Value doc = p.to_json();
    for (const auto& [path, hashes] : doc.find("digests")->as_object()) {
      for (const auto& h : hashes.as_array()) {
        out.emplace_back(path, h.as_string());
      }
    }
    return out;
  };

  keylime::RuntimePolicy merged = ours;
  merged.merge(theirs);
  for (const auto& source : {ours, theirs}) {
    for (const auto& [path, hash] : pairs_of(source)) {
      const auto match = merged.check(path, hash);
      EXPECT_TRUE(match == keylime::PolicyMatch::kAllowed ||
                  match == keylime::PolicyMatch::kExcluded)
          << path << " " << keylime::policy_match_name(match);
    }
    for (const auto& glob : source.excludes()) {
      EXPECT_EQ(std::count(merged.excludes().begin(), merged.excludes().end(),
                           glob),
                1)
          << glob;
    }
  }
  EXPECT_LE(merged.entry_count(),
            ours.entry_count() + theirs.entry_count());
  EXPECT_GE(merged.path_count(),
            std::max(ours.path_count(), theirs.path_count()));

  // Post-update dedup on the merged policy keeps exactly the newest
  // hash per path: the last of theirs when they brought a new one,
  // otherwise the last of ours.
  const auto last_hash_per_path = [&](const keylime::RuntimePolicy& p) {
    std::map<std::string, std::vector<std::string>> hashes;
    for (const auto& [path, hash] : pairs_of(p)) hashes[path].push_back(hash);
    return hashes;
  };
  const auto our_hashes = last_hash_per_path(ours);
  const auto their_hashes = last_hash_per_path(theirs);
  keylime::RuntimePolicy deduped = merged;
  deduped.dedup();
  EXPECT_EQ(deduped.entry_count(), deduped.path_count());
  for (const auto& [path, hashes] : last_hash_per_path(merged)) {
    // Reconstruct the merged insertion order: ours, then any of theirs
    // not already present (allow() skips duplicates).
    std::vector<std::string> combined;
    if (auto it = our_hashes.find(path); it != our_hashes.end()) {
      combined = it->second;
    }
    if (auto it = their_hashes.find(path); it != their_hashes.end()) {
      for (const auto& h : it->second) {
        if (std::find(combined.begin(), combined.end(), h) == combined.end()) {
          combined.push_back(h);
        }
      }
    }
    ASSERT_FALSE(combined.empty()) << path;
    if (deduped.is_excluded(path)) continue;
    EXPECT_EQ(deduped.check(path, combined.back()),
              keylime::PolicyMatch::kAllowed)
        << path;
    (void)hashes;
  }
}

TEST_P(PolicyProperty, DedupKeepsExactlyTheNewestHash) {
  Rng rng(GetParam());
  keylime::RuntimePolicy policy;
  std::map<std::string, std::string> newest;
  for (int i = 0; i < 300; ++i) {
    const std::string path = "/bin/" + rng.ident(2);
    const std::string hash = to_hex(rng.bytes(32));
    policy.allow(path, hash);
    newest[path] = hash;
  }
  policy.dedup();
  EXPECT_EQ(policy.entry_count(), newest.size());
  for (const auto& [path, hash] : newest) {
    EXPECT_EQ(policy.check(path, hash), keylime::PolicyMatch::kAllowed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyProperty,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------ policy index / linear agreement

class PolicyIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyIndexProperty, IndexAgreesWithLinearScanEverywhere) {
  Rng rng(GetParam() ^ 0x1d3f);
  for (int iter = 0; iter < 4; ++iter) {
    keylime::RuntimePolicy policy = testkit::gen_policy(rng, 48);
    // gen_policy emits few excludes; stack on the shapes PolicyIndex
    // compiles specially (directory prefixes), the ones it cannot
    // (suffix and infix globs), and a prefix glob ending mid-component,
    // which must NOT take the compiled path.
    policy.exclude("/" + rng.ident(3) + "/*");
    policy.exclude("/usr/" + rng.ident(2) + "/*");
    policy.exclude("*." + rng.ident(2));
    policy.exclude("/opt/" + rng.ident(2) + "*");
    // Lines no measured digest could match are refused, so they cannot
    // reach appraise()'s template-hash set: a hash in uppercase (the same
    // digest, in a form digest_from_hex rejects) and one with a non-hex
    // digit. An allowed-looking line under an excluded path is kept.
    const std::string digest_hex = to_hex(rng.bytes(32));
    std::string upper = digest_hex;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    std::string non_hex = digest_hex;
    non_hex[5] = 'x';
    const std::string upper_path = "/usr/bin/upper-" + rng.ident(3);
    const std::string non_hex_path = "/usr/bin/nonhex-" + rng.ident(3);
    const std::string before = policy.serialize();
    EXPECT_FALSE(policy.set_hashes(upper_path, {upper}));
    EXPECT_FALSE(policy.set_hashes(non_hex_path, {non_hex}));
    EXPECT_EQ(policy.serialize(), before);
    policy.allow("/srv/excluded-" + rng.ident(3) + "/tool", digest_hex);
    policy.exclude("/srv/excluded-*");
    const auto index =
        keylime::PolicyIndex::build(policy, static_cast<std::uint64_t>(iter));

    std::vector<std::pair<std::string, std::string>> probes;
    const std::string random_hash = to_hex(rng.bytes(32));
    probes.emplace_back(upper_path, digest_hex);  // the refused lines' paths
    probes.emplace_back(non_hex_path, digest_hex);
    policy.for_each_path(
        [&](const std::string& path,
            const std::vector<crypto::Digest>& hashes) {
          // policy hit
          probes.emplace_back(path, crypto::digest_hex(hashes.front()));
          probes.emplace_back(path, random_hash);     // hash mismatch
          probes.emplace_back(path + "x", random_hash);  // near miss
          probes.emplace_back(path, digest_hex);  // the odd lines' digest
        });
    for (int i = 0; i < 64; ++i) {
      probes.emplace_back(testkit::gen_path(rng), random_hash);
    }

    // The index must be indistinguishable from the linear scan on every
    // measured digest: check() and appraise() — verdict and `known` flag
    // against check() — on the digest each probe's hash names, whenever
    // one does.
    const auto diverges = [&](const keylime::PolicyIndex& idx,
                              const std::string& path,
                              const std::string& hash) {
      crypto::Digest d{};
      if (!hex_decode(hash, d.data(), d.size())) return false;
      bool known_check = false, known_appraise = false;
      const keylime::PolicyMatch checked = idx.check(path, d, &known_check);
      const keylime::PolicyMatch appraised = idx.appraise(
          path, crypto::template_hash_of(d, path), &known_appraise);
      return checked != policy.check(path, d) || appraised != checked ||
             known_appraise != known_check;
    };
    for (const auto& [path, hash] : probes) {
      if (!diverges(*index, path, hash)) continue;
      // Minimize the disagreeing path before reporting.
      const std::string h = hash;
      const std::string minimized = testkit::shrink_text(
          path, [&](const std::string& p) {
            return diverges(*keylime::PolicyIndex::build(policy), p, h);
          });
      FAIL() << "PolicyIndex diverged from RuntimePolicy; minimized path:\n"
             << minimized << "\nhash: " << hash << "\npolicy:\n"
             << policy.serialize();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyIndexProperty,
                         ::testing::Values(501, 502, 503, 504, 505, 506));

// ---------------------------------------------------- wire truncation

class WireTruncationProperty : public ::testing::TestWithParam<int> {};

TEST_P(WireTruncationProperty, TruncatedQuoteResponsesFailCleanly) {
  crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  tpm::Tpm2 tpm("dev", to_bytes("seed"), ca);
  keylime::QuoteResponse resp;
  resp.quote = tpm.quote(to_bytes("nonce"), {tpm::kImaPcr});
  for (int i = 0; i < 5; ++i) {
    ima::LogEntry e;
    e.path = "/usr/bin/tool" + std::to_string(i);
    e.file_hash = crypto::sha256(std::to_string(i));
    e.template_hash = crypto::sha256("t" + std::to_string(i));
    resp.entries.push_back(e);
  }
  resp.total_log_length = 5;
  resp.boot_count = 1;
  const Bytes encoded = resp.encode();

  // Truncate at a fraction of the length (parameter = percent).
  const std::size_t cut = encoded.size() * static_cast<std::size_t>(GetParam()) / 100;
  const Bytes truncated(encoded.begin(),
                        encoded.begin() + static_cast<std::ptrdiff_t>(cut));
  const auto decoded = keylime::QuoteResponse::decode(truncated);
  if (cut == encoded.size()) {
    EXPECT_TRUE(decoded.ok());
  } else {
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut << "/" << encoded.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Cuts, WireTruncationProperty,
                         ::testing::Values(0, 5, 17, 33, 50, 66, 80, 95, 99,
                                           100));

TEST(WireFuzzTest, BitFlippedFramesNeverBreakTheDecodeContract) {
  // The wire fuzz target enforces the full contract (clean reject or
  // byte-identical re-encode) across every message decoder; here it is
  // driven with bit-flipped generated quote responses, historically the
  // richest frame shape.
  Rng rng(7);
  const testkit::FuzzTarget* wire = testkit::find_target("wire");
  ASSERT_NE(wire, nullptr);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes frame =
        testkit::gen_quote_response(rng, rng.uniform(4)).encode();
    const std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t i = 0; i < flips; ++i) {
      frame[rng.uniform(frame.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    const auto outcome = wire->run(frame);
    EXPECT_NE(outcome.verdict, testkit::FuzzVerdict::kViolation)
        << "trial " << trial << ": " << outcome.detail;
  }
}

// ------------------------------------------- checkpoint round trips

class CheckpointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProperty, GeneratedCheckpointsRestoreAndRoundTrip) {
  // The checkpoint fuzz target restores a generated checkpoint document
  // into a live verifier, re-dumps it, and demands a fixed point — the
  // crash-recovery contract from the robustness PR, now property-tested.
  const testkit::FuzzTarget* checkpoint = testkit::find_target("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  Rng rng(GetParam());
  for (int i = 0; i < 3; ++i) {
    const Bytes doc = checkpoint->generate(rng);
    const auto outcome = checkpoint->run(doc);
    EXPECT_NE(outcome.verdict, testkit::FuzzVerdict::kViolation)
        << outcome.detail;
  }
  // Mutated documents must reject cleanly, never half-restore.
  testkit::ByteMutator mutator(GetParam() ^ 0x636b7074);
  const Bytes base = checkpoint->generate(rng);
  for (int i = 0; i < 40; ++i) {
    const auto outcome = checkpoint->run(mutator.mutate(base));
    EXPECT_NE(outcome.verdict, testkit::FuzzVerdict::kViolation)
        << outcome.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProperty,
                         ::testing::Values(61, 62, 63));

// -------------------------------------------------- crypto properties

class HashChunkingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashChunkingProperty, StreamingEqualsOneShotForAnyChunkSize) {
  Rng rng(99);
  const Bytes data = rng.bytes(4096 + 77);
  const auto expected = crypto::sha256(data);
  crypto::Sha256 ctx;
  for (std::size_t off = 0; off < data.size(); off += GetParam()) {
    const std::size_t len = std::min(GetParam(), data.size() - off);
    ctx.update(data.data() + off, len);
  }
  EXPECT_EQ(ctx.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(Chunks, HashChunkingProperty,
                         ::testing::Values(1, 3, 7, 32, 63, 64, 65, 127, 128,
                                           1000, 4096));

class SignVerifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignVerifyProperty, EverySignatureVerifiesAndTamperedOnesDoNot) {
  Rng rng(GetParam());
  const auto key = crypto::derive_keypair(rng.bytes(32), "prop");
  for (int i = 0; i < 5; ++i) {
    const Bytes msg = rng.bytes(1 + rng.uniform(256));
    const auto sig = crypto::sign(key, msg);
    EXPECT_TRUE(crypto::verify(key.pub, msg, sig));
    Bytes tampered = msg;
    tampered[rng.uniform(tampered.size())] ^= 0x01;
    EXPECT_FALSE(crypto::verify(key.pub, tampered, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignVerifyProperty,
                         ::testing::Values(1, 2, 3, 4));

// -------------------------------------------------- P4 inode property

class RenameMeasurementProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RenameMeasurementProperty, StockImaNeverRemeasuresAfterRename) {
  // For any file measured once, any chain of same-filesystem renames
  // followed by re-execution adds no log entry (the P4 guarantee the
  // attacks rely on); any *content change* always re-measures.
  Rng rng(GetParam());
  crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  SimClock clock;
  oskernel::Machine machine(oskernel::MachineConfig{}, ca, &clock);
  auto& fs = machine.fs();

  std::string path = "/home/f0";
  ASSERT_TRUE(fs.create_file(path, rng.bytes(8), true).ok());
  ASSERT_TRUE(machine.exec(path).ok());
  const std::size_t measured = machine.ima().log().size();

  for (int i = 1; i <= 10; ++i) {
    const std::string dst = "/usr/dir" + std::to_string(rng.uniform(4)) +
                            "/f" + std::to_string(i);
    ASSERT_TRUE(fs.rename(path, dst).ok());
    path = dst;
    ASSERT_TRUE(machine.exec(path).ok());
    EXPECT_EQ(machine.ima().log().size(), measured) << "rename " << i;
  }

  ASSERT_TRUE(fs.write_file(path, rng.bytes(8)).ok());
  ASSERT_TRUE(machine.exec(path).ok());
  EXPECT_EQ(machine.ima().log().size(), measured + 1)
      << "content change must always re-measure";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenameMeasurementProperty,
                         ::testing::Values(17, 29, 41));

}  // namespace
}  // namespace cia
