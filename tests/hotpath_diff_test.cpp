// Differential coverage for the appraisal hot path.
//
// The verifier's appraisal pipeline is built for throughput: fused
// single-pass verify+fold over zero-copy decoded entries, and one
// template-hash probe per allowed entry through PolicyIndex::appraise.
// None of that may move a verdict or an alert by a single byte. These
// tests hold the fast path against the pre-existing slow path two ways:
//
//   * verdict parity, property-style: RuntimePolicy::check (the linear
//     reference), PolicyIndex::check, PolicyIndex::appraise (with its
//     `known` flag) and the AppraisalCache-layered probe must agree on
//     testkit-generated policies and adversarial entries — including
//     the SNAP/container truncated-path shapes gen_path emits, paths
//     whose lines were refused for hashes no digest renders to, and
//     excluded lines — with shrink-on-failure minimizing any offending
//     path;
//   * alert parity, end-to-end: two verifiers attest the SAME agent over
//     the same workload (P1-style /tmp implants, modified binaries,
//     unknown files, reboot re-measurement), one on the indexed fast
//     path and one on the plain linear path; their rounds and full
//     alert streams must render byte-identically, under both P2 failure
//     semantics.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "ima/ima.hpp"
#include "keylime/agent.hpp"
#include "keylime/appraisal_cache.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/registrar.hpp"
#include "keylime/runtime_policy.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "oskernel/machine.hpp"
#include "testkit/generators.hpp"
#include "testkit/shrink.hpp"

namespace cia::testkit {
namespace {

using keylime::AppraisalCache;
using keylime::PolicyIndex;
using keylime::PolicyMatch;
using keylime::RuntimePolicy;

// The cache-layered probe the verifier ran before PolicyIndex::appraise
// (fleetbench's appraisal replay still times this shape).
PolicyMatch cached_check(AppraisalCache& cache, const PolicyIndex& index,
                         const std::string& path,
                         const crypto::Digest& file_hash) {
  const crypto::Digest key = crypto::template_hash_of(file_hash, path);
  if (const auto cached = cache.lookup(key, index.uid())) return *cached;
  const PolicyMatch match = index.check(path, file_hash);
  cache.insert(key, index.uid(), match);
  return match;
}

// One (path, hash) probe across all three implementations; on
// divergence, shrink the path to a minimal reproducer before failing.
void expect_parity(const RuntimePolicy& policy, const PolicyIndex& index,
                   AppraisalCache& cache, const std::string& path,
                   const crypto::Digest& hash, std::uint64_t seed) {
  const PolicyMatch slow = policy.check(path, hash);
  bool known_indexed = false, known_appraised = false;
  const PolicyMatch indexed = index.check(path, hash, &known_indexed);
  const PolicyMatch appraised = index.appraise(
      path, crypto::template_hash_of(hash, path), &known_appraised);
  const PolicyMatch cached = cached_check(cache, index, path, hash);
  // A second probe must now be served from the cache, with the verdict
  // unchanged.
  const PolicyMatch cached_again = cached_check(cache, index, path, hash);
  if (slow == indexed && slow == appraised &&
      known_indexed == known_appraised && slow == cached &&
      slow == cached_again) {
    return;
  }

  const auto diverges = [&](const std::string& p) {
    if (p.empty()) return false;
    const PolicyMatch s = policy.check(p, hash);
    bool k_check = false, k_appraise = false;
    return index.check(p, hash, &k_check) != s ||
           index.appraise(p, crypto::template_hash_of(hash, p),
                          &k_appraise) != s ||
           k_check != k_appraise || cached_check(cache, index, p, hash) != s;
  };
  const std::string minimized = shrink_text(path, diverges);
  ADD_FAILURE() << "verdict divergence (seed " << seed << ") on path \""
                << path << "\" (minimized: \"" << minimized << "\"): slow="
                << keylime::policy_match_name(slow)
                << " indexed=" << keylime::policy_match_name(indexed)
                << " appraised=" << keylime::policy_match_name(appraised)
                << " known=" << known_indexed << "/" << known_appraised
                << " cached=" << keylime::policy_match_name(cached);
}

// Lines no measured digest could match — hashes digest_hex never
// renders — are refused by set_hashes() as by allow() and the parsers,
// so they never reach appraise()'s template-hash set; an excluded line
// whose hash does render is kept. Returns the digests to probe each
// path with.
std::vector<std::pair<std::string, crypto::Digest>> add_unmatchable_lines(
    RuntimePolicy& policy, Rng& rng) {
  std::vector<std::pair<std::string, crypto::Digest>> probes;
  for (int i = 0; i < 6; ++i) {
    const crypto::Digest d = crypto::sha256(rng.ident(8));
    std::string hex = crypto::digest_hex(d);
    const std::string path = "/usr/bin/odd-" + std::to_string(i);
    switch (i % 3) {
      case 0:  // the same digest, uppercase
        for (char& c : hex) c = static_cast<char>(std::toupper(c));
        break;
      case 1:  // one non-hex digit
        hex[17] = 'g';
        break;
      default:  // 63 digits
        hex.pop_back();
        break;
    }
    EXPECT_FALSE(policy.set_hashes(path, {hex})) << hex;
    EXPECT_EQ(policy.hashes_for(path), nullptr) << hex;
    probes.emplace_back(path, d);
  }
  const crypto::Digest d = crypto::sha256("excluded-line");
  policy.allow("/var/spool/odd/excluded", d);
  policy.exclude("/var/spool/odd/*");
  probes.emplace_back("/var/spool/odd/excluded", d);
  return probes;
}

TEST(HotpathVerdictParity, GeneratedPoliciesAndAdversarialPaths) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1337u}) {
    Rng rng(seed);
    RuntimePolicy policy = gen_policy(rng, 48);
    const auto odd = add_unmatchable_lines(policy, rng);
    const auto index = PolicyIndex::build(policy);
    AppraisalCache cache;
    for (const auto& [path, digest] : odd) {
      expect_parity(policy, *index, cache, path, digest, seed);
    }

    // Paths the policy knows: probe with an acceptable hash, a wrong
    // hash, and a random digest.
    policy.for_each_path([&](const std::string& path,
                             const std::vector<crypto::Digest>& hashes) {
      if (!hashes.empty()) {
        expect_parity(policy, *index, cache, path, hashes[0], seed);
      }
      expect_parity(policy, *index, cache, path,
                    crypto::sha256("wrong:" + path), seed);
    });

    // Adversarial generated paths (SNAP/container truncation, embedded
    // spaces, deep nesting, raw high bytes) the policy has never seen —
    // these exercise the exclude-glob fallback scan.
    for (int i = 0; i < 400; ++i) {
      const std::string path = gen_path(rng);
      expect_parity(policy, *index, cache, path,
                    crypto::sha256("h:" + path), seed);
    }
  }
}

TEST(HotpathVerdictParity, DistilledLogPoliciesWithImplants) {
  // The P1-P5 shape: a policy distilled from a golden generated log,
  // stock /tmp exclusion, then implants at generated adversarial paths.
  for (std::uint64_t seed : {3u, 11u, 99u}) {
    Rng rng(seed);
    const auto golden = gen_log(rng, 64);
    RuntimePolicy policy;
    for (const auto& e : golden) policy.allow(e.path, e.file_hash);
    policy.exclude("/tmp/*");
    policy.exclude("*/__pycache__/*");
    const auto index = PolicyIndex::build(policy);
    AppraisalCache cache;

    // Every golden entry must appraise kAllowed identically...
    for (const auto& e : golden) {
      expect_parity(policy, *index, cache, e.path, e.file_hash, seed);
    }
    // ...and re-appraising the whole log (a reboot replay) must serve
    // from the cache without moving a verdict.
    const std::uint64_t hits_before = cache.stats().hits;
    for (const auto& e : golden) {
      expect_parity(policy, *index, cache, e.path, e.file_hash, seed);
    }
    EXPECT_GT(cache.stats().hits, hits_before);

    // Implants: measured entries the policy never saw, tampered hashes
    // for paths it did see.
    for (int i = 0; i < 200; ++i) {
      const std::string path = gen_path(rng);
      expect_parity(policy, *index, cache, path,
                    crypto::sha256("implant:" + path), seed);
    }
    for (const auto& e : golden) {
      expect_parity(policy, *index, cache, e.path,
                    crypto::sha256("tampered:" + e.path), seed);
    }
  }
}

TEST(HotpathVerdictParity, PolicySwapInvalidatesCachedVerdicts) {
  // Copy-on-write swap contract: a rebuilt index has a fresh uid, so a
  // verdict cached under the old revision can never be served under the
  // new one — even for the same template hash.
  RuntimePolicy v1;
  v1.allow("/usr/bin/tool", crypto::sha256("v1"));
  RuntimePolicy v2 = v1;
  v2.allow("/usr/bin/tool", crypto::sha256("v2"));

  const auto index1 = PolicyIndex::build(v1, 1);
  const auto index2 = PolicyIndex::build(v2, 2);
  ASSERT_NE(index1->uid(), index2->uid());

  AppraisalCache cache;
  const crypto::Digest probe = crypto::sha256("v2");
  // Under v1 the hash is a mismatch; the verdict is cached.
  EXPECT_EQ(cached_check(cache, *index1, "/usr/bin/tool", probe),
            PolicyMatch::kHashMismatch);
  // Under v2 the same (path, hash) is allowed — the v1 slot must miss.
  EXPECT_EQ(cached_check(cache, *index2, "/usr/bin/tool", probe),
            PolicyMatch::kAllowed);
  // And the verdicts stay revision-correct on repeat lookups.
  EXPECT_EQ(cached_check(cache, *index1, "/usr/bin/tool", probe),
            PolicyMatch::kHashMismatch);
  EXPECT_EQ(cached_check(cache, *index2, "/usr/bin/tool", probe),
            PolicyMatch::kAllowed);
}

// ----------------------------------------------------------- end-to-end

std::string render_alerts(const std::vector<keylime::Alert>& alerts) {
  std::string out;
  for (const auto& a : alerts) {
    out += std::to_string(a.time) + "|" + a.agent_id + "|" +
           keylime::alert_type_name(a.type) + "|" + a.path + "|" +
           a.observed_hash_hex + "|" + a.detail + "|" +
           std::to_string(a.log_index) + "\n";
  }
  return out;
}

keylime::VerifierConfig config_for(bool continue_on_failure) {
  keylime::VerifierConfig config;
  config.continue_on_failure = continue_on_failure;
  return config;
}

// Two verifiers — fast (indexed policy) and slow (plain linear
// RuntimePolicy) — attesting one real agent over one workload.
struct DiffRig {
  explicit DiffRig(bool continue_on_failure)
      : ca("mfg", to_bytes("diff-seed")),
        network(&clock, 1),
        registrar(&network, &clock, 2),
        fast(&network, &clock, 3, config_for(continue_on_failure)),
        slow(&network, &clock, 4, config_for(continue_on_failure)) {
    registrar.trust_manufacturer(ca.public_key());
    oskernel::MachineConfig cfg;
    cfg.hostname = "diff-node";
    cfg.seed = 7;
    machine = std::make_unique<oskernel::Machine>(cfg, ca, &clock);
    agent = std::make_unique<keylime::Agent>(machine.get(), &network);
    EXPECT_TRUE(agent->register_with(keylime::Registrar::address()).ok());
    EXPECT_TRUE(fast.add_agent(cfg.hostname, agent->address()).ok());
    EXPECT_TRUE(slow.add_agent(cfg.hostname, agent->address()).ok());
  }

  void install_policy(const RuntimePolicy& policy) {
    ASSERT_TRUE(slow.set_policy("diff-node", policy).ok());
    ASSERT_TRUE(fast.set_revision("diff-node",
                                  keylime::PolicyRevision::make(
                                      policy, PolicyIndex::build(policy)))
                    .ok());
  }

  // Attest on both stacks (no clock movement in between, so alert
  // timestamps line up) and require identical round results.
  void attest_and_compare() {
    auto fast_round = fast.attest_once("diff-node");
    auto slow_round = slow.attest_once("diff-node");
    ASSERT_EQ(fast_round.ok(), slow_round.ok());
    if (!fast_round.ok()) return;
    const auto& f = fast_round.value();
    const auto& s = slow_round.value();
    EXPECT_EQ(f.new_entries, s.new_entries);
    EXPECT_EQ(f.evaluated, s.evaluated);
    EXPECT_EQ(f.state, s.state);
    EXPECT_EQ(f.reboot_detected, s.reboot_detected);
    EXPECT_EQ(render_alerts(f.alerts), render_alerts(s.alerts));
    EXPECT_EQ(render_alerts(fast.alerts()), render_alerts(slow.alerts()));
    EXPECT_EQ(fast.pending_entries("diff-node"),
              slow.pending_entries("diff-node"));
  }

  SimClock clock;
  crypto::CertificateAuthority ca;
  netsim::SimNetwork network;
  keylime::Registrar registrar;
  keylime::Verifier fast;
  keylime::Verifier slow;
  std::unique_ptr<oskernel::Machine> machine;
  std::unique_ptr<keylime::Agent> agent;
};

// Returns the fast verifier's rendered alert stream so callers can also
// pin it byte-for-byte across SHA-256 backends.
void run_workload_parity(bool continue_on_failure,
                         std::string* rendered_out = nullptr) {
  DiffRig rig(continue_on_failure);
  auto& machine = *rig.machine;

  // Golden workload: binaries the policy will bless.
  std::vector<std::string> golden = {"/usr/bin/svc-a", "/usr/bin/svc-b",
                                     "/usr/lib/helper.so",
                                     "/opt/app/bin/daemon"};
  for (const auto& p : golden) {
    ASSERT_TRUE(machine.fs().create_file(p, to_bytes("elf:" + p), true).ok());
    ASSERT_TRUE(machine.exec(p).ok());
  }

  // Distill the policy from the measured log (boot aggregate entries are
  // skipped by appraisal) and keep the stock /tmp exclusion.
  RuntimePolicy policy;
  for (const auto& e : machine.ima().log()) {
    if (e.path == "boot_aggregate") continue;
    policy.allow(e.path, e.file_hash);
  }
  policy.exclude("/tmp/*");
  rig.install_policy(policy);

  // Phase 1: clean log — no alerts on either stack.
  rig.attest_and_compare();
  EXPECT_TRUE(rig.fast.alerts().empty());

  // Phase 2: a /tmp implant (P1: rides the exclude), an unknown binary
  // (not-in-policy), and a modified golden binary (hash mismatch).
  ASSERT_TRUE(
      machine.fs().create_file("/tmp/implant", to_bytes("payload"), true).ok());
  ASSERT_TRUE(machine.exec("/tmp/implant").ok());
  ASSERT_TRUE(
      machine.fs().create_file("/usr/bin/rogue", to_bytes("rogue"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/rogue").ok());
  ASSERT_TRUE(
      machine.fs().write_file("/usr/bin/svc-a", to_bytes("trojaned")).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/svc-a").ok());
  rig.attest_and_compare();
  EXPECT_FALSE(rig.slow.alerts().empty());

  // Phase 3: recover (both stacks resolve identically) and reboot — the
  // whole list re-measures, the fast path re-appraises through its index.
  if (!continue_on_failure) {
    ASSERT_TRUE(rig.fast.resolve_failure("diff-node").ok());
    ASSERT_TRUE(rig.slow.resolve_failure("diff-node").ok());
  }
  machine.reboot();
  for (const auto& p : golden) ASSERT_TRUE(machine.exec(p).ok());
  rig.attest_and_compare();  // reboot detection round
  rig.attest_and_compare();  // re-appraisal (stock: halts at svc-a again)
  if (!continue_on_failure) {
    // Resolve once more so the backlog behind the trojaned binary —
    // entries appraised before the reboot — gets drained.
    ASSERT_TRUE(rig.fast.resolve_failure("diff-node").ok());
    ASSERT_TRUE(rig.slow.resolve_failure("diff-node").ok());
  }
  rig.attest_and_compare();  // steady state / backlog drain
  // Every entry the fast verifier judged went through the index, once.
  const keylime::Verifier::IndexStats& stats = rig.fast.index_stats();
  EXPECT_GT(stats.hits, 0u) << "appraisal must be served by the index";
  EXPECT_GT(stats.misses, 0u) << "the rogue binary is not in the index";
  if (rendered_out) *rendered_out = render_alerts(rig.fast.alerts());
}

TEST(HotpathEndToEnd, AlertStreamsIdenticalUnderStockSemantics) {
  run_workload_parity(/*continue_on_failure=*/false);
}

TEST(HotpathEndToEnd, AlertStreamsIdenticalUnderContinueOnFailure) {
  run_workload_parity(/*continue_on_failure=*/true);
}

// ------------------------------------------------- multi-lane SHA-256

// Pin a SHA-256 backend for a scope, restoring auto-dispatch after.
class BackendGuard {
 public:
  explicit BackendGuard(crypto::Sha256Backend b) {
    ok_ = crypto::force_backend(b);
  }
  ~BackendGuard() { crypto::force_backend(crypto::Sha256Backend::kAuto); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

struct NamedBackend {
  crypto::Sha256Backend backend;
  const char* name;
};

std::vector<NamedBackend> supported_backends() {
  std::vector<NamedBackend> out = {{crypto::Sha256Backend::kScalar, "scalar"}};
  const NamedBackend hw[] = {{crypto::Sha256Backend::kShaNi, "shani"},
                             {crypto::Sha256Backend::kShaNi2, "shani2"},
                             {crypto::Sha256Backend::kAvx2, "avx2"}};
  for (const NamedBackend& b : hw) {
    if (crypto::sha256_backend_supported(b.backend)) out.push_back(b);
  }
  return out;
}

TEST(HotpathEndToEnd, AlertStreamsIdenticalOnEveryBackend) {
  // The full workload parity run, once per supported backend (always
  // including forced scalar), and the rendered alert stream of each run
  // pinned byte-for-byte against the first: the lane kernels may change
  // how template hashes are computed, never what any round concludes.
  std::string reference;
  const char* reference_backend = nullptr;
  for (const NamedBackend& b : supported_backends()) {
    SCOPED_TRACE(b.name);
    BackendGuard guard(b.backend);
    ASSERT_TRUE(guard.ok());
    std::string rendered;
    run_workload_parity(/*continue_on_failure=*/false, &rendered);
    if (::testing::Test::HasFatalFailure()) return;
    if (reference_backend == nullptr) {
      reference = rendered;
      reference_backend = b.name;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(rendered, reference)
          << "alert stream diverges between backends " << reference_backend
          << " and " << b.name;
    }
  }
}

TEST(HotpathEndToEnd, LaneBoundaryLogSizes) {
  // Fragment sizes straddling every grouping boundary of the batched
  // verify+fold: the 2-wide and 8-wide lane widths (±1), the ragged
  // partial buckets, and the 128-entry pipeline block (±1). Each round
  // ships exactly one batch as the new log fragment; fast and slow
  // verifiers must agree round by round, and two rogue rounds place an
  // unknown binary exactly at a lane boundary (index 8 of 17) and at the
  // pipeline-block boundary (index 128 of 129) to pin first-bad-entry
  // ordering through the batched compare.
  DiffRig rig(/*continue_on_failure=*/false);
  auto& machine = *rig.machine;

  const std::vector<std::size_t> sizes = {1, 2, 3, 7, 8, 9, 16, 17, 127, 128};
  struct RogueRound {
    std::size_t size;
    std::size_t rogue_at;
  };
  const std::vector<RogueRound> rogue_rounds = {{17, 8}, {129, 128}};

  // Plan every file up front so the policy can bless the golden ones
  // before any round runs (the measured file hash is the hash of the
  // file's content). Rogue files are planned too — just never blessed.
  RuntimePolicy policy;
  int file_no = 0;
  std::vector<std::vector<std::string>> batches;
  for (const std::size_t k : sizes) {
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < k; ++i) {
      const std::string path = "/opt/lane/bin-" + std::to_string(file_no++);
      policy.allow(path, crypto::sha256("elf:" + path));
      batch.push_back(path);
    }
    batches.push_back(std::move(batch));
  }
  std::vector<std::vector<std::string>> rogue_batches;
  for (const RogueRound& rr : rogue_rounds) {
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < rr.size; ++i) {
      const bool rogue = i == rr.rogue_at;
      const std::string path =
          std::string(rogue ? "/opt/lane/rogue-" : "/opt/lane/bin-") +
          std::to_string(file_no++);
      if (!rogue) policy.allow(path, crypto::sha256("elf:" + path));
      batch.push_back(path);
    }
    rogue_batches.push_back(std::move(batch));
  }
  // Bless whatever the boot itself measured (init units and friends) so
  // the only judged entries are the ones this test plants deliberately.
  for (const auto& e : machine.ima().log()) {
    if (e.path == "boot_aggregate") continue;
    policy.allow(e.path, e.file_hash);
  }
  policy.exclude("/tmp/*");
  rig.install_policy(policy);

  // Round 0 consumes the boot-time measurements cleanly.
  rig.attest_and_compare();
  EXPECT_TRUE(rig.fast.alerts().empty());

  for (const auto& batch : batches) {
    for (const std::string& p : batch) {
      ASSERT_TRUE(
          machine.fs().create_file(p, to_bytes("elf:" + p), true).ok());
      ASSERT_TRUE(machine.exec(p).ok());
    }
    rig.attest_and_compare();
  }

  for (std::size_t r = 0; r < rogue_batches.size(); ++r) {
    const auto& batch = rogue_batches[r];
    for (const std::string& p : batch) {
      ASSERT_TRUE(
          machine.fs().create_file(p, to_bytes("elf:" + p), true).ok());
      ASSERT_TRUE(machine.exec(p).ok());
    }
    const std::size_t alerts_before = rig.fast.alerts().size();
    rig.attest_and_compare();
    // Exactly one new alert, and it names the planted rogue — proof the
    // batched compare still judges entries first-bad-first.
    ASSERT_EQ(rig.fast.alerts().size(), alerts_before + 1);
    const keylime::Alert& a = rig.fast.alerts().back();
    EXPECT_EQ(a.type, keylime::AlertType::kNotInPolicy);
    EXPECT_EQ(a.path, batch[rogue_rounds[r].rogue_at]);
    ASSERT_TRUE(rig.fast.resolve_failure("diff-node").ok());
    ASSERT_TRUE(rig.slow.resolve_failure("diff-node").ok());
    rig.attest_and_compare();  // backlog drain after the halt
    EXPECT_EQ(rig.fast.pending_entries("diff-node"), 0u);
  }
}

}  // namespace
}  // namespace cia::testkit
