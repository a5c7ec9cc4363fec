// Hot-path appraisal benchmark: the verifier-side stages rebuilt for
// throughput, each measured against the pre-rebuild shape on the same
// 300k-entry log.
//
// Appraisal stages (reported as entries/second):
//   parse        zero-copy QuoteResponseView::decode vs the owning
//                QuoteResponse::decode (per-entry string allocations)
//   hash_batch   sha256_batch on template-hash-shaped records, multi-lane
//                auto dispatch vs the same harness pinned to the scalar
//                backend — isolates the lane kernels' contribution
//   verify_fold  block-pipelined template-check + PCR fold (gather →
//                sha256_batch → compare → fused pcr_fold)
//                vs the old two-loop shape: a fresh scalar Sha256 and a
//                digest_bytes() heap copy per record
//   policy_probe PolicyIndex + AppraisalCache verdict lookup vs
//                digest_hex() + RuntimePolicy::check per record
//   end_to_end   all of the above chained, one appraisal round
//
// The legacy side reproduces the pre-rebuild implementation faithfully,
// including the scalar compression function (SHA-NI dispatch landed with
// the rebuild) and the byte-at-a-time finish() padding.
//
// Per-poll EC stages (reported as operations/second), the library against
// testkit's reference EC layer (the textbook secp256k1 code the library
// started from) on the same inputs, cross-checked byte for byte:
//   quote_sign   Tpm2::quote vs the same quote signed by the reference
//   quote_verify Quote::verify vs the reference verify, a quarter of the
//                quotes tampered so both verdicts occur
//   audit_append AuditLog::append vs the record hashes plus a reference
//                signature over record_hash
//
// Emits BENCH_hotpath.json (schema below). `--check <baseline.json>
// [--tolerance 0.30]` re-runs the suite and exits non-zero when any
// stage's fast-vs-legacy speedup regressed more than the tolerance
// against the checked-in baseline — speedups are same-host ratios, so
// the gate is meaningful across machines of different absolute speed.
// Hash-bound stages are skipped when the host's SHA-NI availability
// differs from the baseline's (the ratio is not comparable then).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/strutil.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "ima/ima.hpp"
#include "keylime/appraisal_cache.hpp"
#include "keylime/audit.hpp"
#include "keylime/messages.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/runtime_policy.hpp"
#include "testkit/ec_reference.hpp"
#include "tpm/tpm.hpp"

namespace {

using namespace cia;

double wall_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

// ---------------------------------------------------------------------
// The pre-rebuild SHA-256: scalar compression only (no SHA-NI dispatch)
// and finish() padding fed through update() one byte at a time. This is
// what every legacy-side hash below runs on, so the crypto rework's
// contribution is part of the measured delta.
class ScalarSha256 {
 public:
  ScalarSha256() { reset(); }

  void reset() {
    static constexpr std::uint32_t kInit[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::memcpy(state_, kInit, sizeof(state_));
    total_len_ = 0;
    buffer_len_ = 0;
  }

  void update(const std::uint8_t* data, std::size_t len) {
    total_len_ += len;
    while (len > 0) {
      if (buffer_len_ == 0 && len >= 64) {
        const std::size_t blocks = len / 64;
        crypto::detail::sha256_compress_scalar(state_, data, blocks);
        data += blocks * 64;
        len -= blocks * 64;
        continue;
      }
      const std::size_t take = std::min(len, 64 - buffer_len_);
      std::memcpy(buffer_ + buffer_len_, data, take);
      buffer_len_ += take;
      data += take;
      len -= take;
      if (buffer_len_ == 64) {
        crypto::detail::sha256_compress_scalar(state_, buffer_, 1);
        buffer_len_ = 0;
      }
    }
  }
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  crypto::Digest finish() {
    const std::uint64_t bits = total_len_ * 8;
    std::uint8_t byte = 0x80;
    update(&byte, 1);
    byte = 0;
    while (buffer_len_ != 56) update(&byte, 1);
    for (int shift = 56; shift >= 0; shift -= 8) {
      byte = static_cast<std::uint8_t>(bits >> shift);
      update(&byte, 1);
    }
    crypto::Digest out{};
    for (std::size_t i = 0; i < 8; ++i) {
      out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
      out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

// ---------------------------------------------------------------------
// Workload: one appraisal round's worth of log entries. Paths repeat
// (a fleet of machines built from the same image re-measures the same
// binaries), which is exactly the redundancy the verdict cache exploits.
// The probe mix mirrors bench_pool: overwhelmingly policy hits, a few
// stale hashes, a sprinkle of unknown and excluded paths.

struct Workload {
  std::vector<ima::LogEntry> log;
  keylime::RuntimePolicy policy;
  std::shared_ptr<const keylime::PolicyIndex> index;
  Bytes encoded;  // the wire form of the whole round
  std::size_t unique_files = 0;
};

void add_exclude_list(keylime::RuntimePolicy& policy, std::size_t globs) {
  for (std::size_t i = 0; i < globs; ++i) {
    switch (i % 4) {
      case 0:
        policy.exclude(strformat("*.cache-%03zu.tmp", i));
        break;
      case 1:
        policy.exclude(strformat("*/spool-%03zu/*", i));
        break;
      case 2:
        policy.exclude(strformat("*/tool-scratch-%03zu/*", i));
        break;
      default:
        policy.exclude(strformat("/var/cache/app-%03zu/*", i));
        break;
    }
  }
}

Workload build_workload(std::size_t entries) {
  Workload w;
  w.unique_files = std::max<std::size_t>(1, entries / 6);

  std::vector<std::string> paths(w.unique_files);
  std::vector<crypto::Digest> hashes(w.unique_files);
  for (std::size_t i = 0; i < w.unique_files; ++i) {
    paths[i] = strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                         i / 4, i % 4);
    hashes[i] = crypto::sha256(strformat("content-%zu", i));
  }

  add_exclude_list(w.policy, 64);
  for (std::size_t i = 0; i < w.unique_files; ++i) {
    w.policy.allow(paths[i], crypto::digest_hex(hashes[i]));
  }
  w.index = keylime::PolicyIndex::build(w.policy, 1);

  w.log.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    ima::LogEntry e;
    const std::size_t r = i % 40;
    if (r < 36) {  // known path, acceptable hash
      const std::size_t p = (i * 7919) % w.unique_files;
      e.path = paths[p];
      e.file_hash = hashes[p];
    } else if (r < 38) {  // known path, stale hash
      const std::size_t p = (i * 104729) % w.unique_files;
      e.path = paths[p];
      e.file_hash = crypto::sha256(strformat("stale-%zu", i));
    } else if (r == 38) {  // unknown path
      e.path = strformat("/opt/unknown/bin-%zu", i);
      e.file_hash = crypto::sha256("x");
    } else {  // excluded path (a compiled directory glob)
      e.path = strformat("/var/cache/app-%03zu/obj-%zu", (i % 16) * 4 + 3, i);
      e.file_hash = crypto::sha256("x");
    }
    e.template_hash = crypto::template_hash_of(e.file_hash, e.path);
    w.log.push_back(std::move(e));
  }

  const crypto::CertificateAuthority ca("mfg", to_bytes("bench-seed"));
  tpm::Tpm2 tpm("bench", to_bytes("bench-seed"), ca);
  w.encoded = keylime::encode_quote_response(
      tpm.quote(to_bytes("nonce"), {tpm::kImaPcr}), w.log, w.log.size(), 1);
  return w;
}

// ---------------------------------------------------------------------
// Stage measurements. Every loop folds its outcome into a checksum so
// the compiler cannot elide work, and so fast/legacy agreement can be
// cross-checked where the stage produces verdicts.

struct StageResult {
  double fast_ms = 0;
  double legacy_ms = 0;
  std::uint64_t fast_sum = 0;
  std::uint64_t legacy_sum = 0;
};

std::uint64_t digest_word(const crypto::Digest& d) {
  std::uint64_t word = 0;
  std::memcpy(&word, d.data(), sizeof(word));
  return word;
}

StageResult bench_parse(const Workload& w, std::size_t reps) {
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto view = keylime::QuoteResponseView::decode(w.encoded);
    double ms = wall_ms(start);
    std::uint64_t sum = 0;
    if (view.ok()) {
      for (const keylime::LogEntryView& e : view.value().entries) {
        sum = sum * 31 + e.path.size() + digest_word(e.file_hash);
      }
    }
    r.fast_ms = std::min(r.fast_ms, ms);
    r.fast_sum = sum;

    start = std::chrono::steady_clock::now();
    auto owned = keylime::QuoteResponse::decode(w.encoded);
    ms = wall_ms(start);
    sum = 0;
    if (owned.ok()) {
      for (const ima::LogEntry& e : owned.value().entries) {
        sum = sum * 31 + e.path.size() + digest_word(e.file_hash);
      }
    }
    r.legacy_ms = std::min(r.legacy_ms, ms);
    r.legacy_sum = sum;
  }
  return r;
}

// The lane-dispatch contribution in isolation: the same sha256_batch
// harness over template-hash-shaped records, multi-lane auto dispatch vs
// the batch API pinned to the scalar backend. This is the ratio CI gates
// to catch a lane kernel silently falling back to single-stream.
StageResult bench_hash_batch(const Workload& w, std::size_t reps) {
  constexpr std::size_t kBlock = 128;
  crypto::HashInput inputs[kBlock];
  crypto::Digest computed[kBlock];
  const std::size_t total = w.log.size();

  const auto run = [&]() {
    std::uint64_t sum = 0;
    for (std::size_t base = 0; base < total; base += kBlock) {
      const std::size_t count = std::min(kBlock, total - base);
      for (std::size_t i = 0; i < count; ++i) {
        const ima::LogEntry& e = w.log[base + i];
        inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                     reinterpret_cast<const std::uint8_t*>(e.path.data()),
                     e.path.size()};
      }
      crypto::sha256_batch(inputs, count, computed);
      for (std::size_t i = 0; i < count; ++i) {
        sum = sum * 31 + digest_word(computed[i]);
      }
    }
    return sum;
  };

  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    r.fast_sum = run();
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));

    crypto::force_backend(crypto::Sha256Backend::kScalar);
    start = std::chrono::steady_clock::now();
    r.legacy_sum = run();
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    crypto::force_backend(crypto::Sha256Backend::kAuto);
  }
  return r;
}

StageResult bench_verify_fold(const Workload& w, std::size_t reps) {
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Fast: the block-pipelined shape attest_once runs now — gather a
    // block, batch-hash it across lanes, compare in order, fold.
    constexpr std::size_t kBlock = 128;
    crypto::HashInput inputs[kBlock];
    crypto::Digest computed[kBlock];
    auto start = std::chrono::steady_clock::now();
    crypto::Digest folded = crypto::zero_digest();
    std::uint64_t mismatches = 0;
    const std::size_t total = w.log.size();
    for (std::size_t base = 0; base < total; base += kBlock) {
      const std::size_t count = std::min(kBlock, total - base);
      for (std::size_t i = 0; i < count; ++i) {
        const ima::LogEntry& e = w.log[base + i];
        inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                     reinterpret_cast<const std::uint8_t*>(e.path.data()),
                     e.path.size()};
      }
      crypto::sha256_batch(inputs, count, computed);
      for (std::size_t i = 0; i < count; ++i) {
        if (computed[i] != w.log[base + i].template_hash) ++mismatches;
      }
      for (std::size_t i = 0; i < count; ++i) {
        folded = crypto::pcr_fold(folded, computed[i]);
      }
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = digest_word(folded) + mismatches;

    // Legacy: two separate loops, a fresh scalar context and a
    // digest_bytes() heap copy per record — the pre-rebuild shape.
    start = std::chrono::steady_clock::now();
    mismatches = 0;
    for (const ima::LogEntry& e : w.log) {
      ScalarSha256 ctx;
      ctx.update(crypto::digest_bytes(e.file_hash));
      ctx.update(e.path);
      if (ctx.finish() != e.template_hash) ++mismatches;
    }
    crypto::Digest pcr = crypto::zero_digest();
    for (const ima::LogEntry& e : w.log) {
      ScalarSha256 ctx;
      ctx.update(crypto::digest_bytes(pcr));
      ctx.update(crypto::digest_bytes(e.template_hash));
      pcr = ctx.finish();
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = digest_word(pcr) + mismatches;
  }
  return r;
}

StageResult bench_policy_probe(const Workload& w, std::size_t reps) {
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Fast: verdict cache keyed on (template_hash, index uid), cold at
    // the start of every rep; misses fall through to the PolicyIndex.
    keylime::AppraisalCache cache;
    const std::uint64_t uid = w.index->uid();
    auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (const ima::LogEntry& e : w.log) {
      keylime::PolicyMatch verdict;
      if (const auto cached = cache.lookup(e.template_hash, uid)) {
        verdict = *cached;
      } else {
        bool known = false;
        verdict = w.index->check(e.path, e.file_hash, &known);
        cache.insert(e.template_hash, uid, verdict);
      }
      sum = sum * 31 + static_cast<std::uint64_t>(verdict);
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = sum;

    // Legacy: hex-encode the hash and take the ordered-map + glob-scan
    // RuntimePolicy::check on every record.
    start = std::chrono::steady_clock::now();
    sum = 0;
    for (const ima::LogEntry& e : w.log) {
      sum = sum * 31 + static_cast<std::uint64_t>(w.policy.check(
                           e.path, crypto::digest_hex(e.file_hash)));
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = sum;
  }
  return r;
}

StageResult bench_end_to_end(const Workload& w, std::size_t reps) {
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Fast: decode views, fused verify+fold, cached indexed appraisal —
    // the round shape Verifier::attest_once runs now.
    keylime::AppraisalCache cache;
    const std::uint64_t uid = w.index->uid();
    constexpr std::size_t kBlock = 128;
    crypto::HashInput inputs[kBlock];
    crypto::Digest computed[kBlock];
    auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    auto view = keylime::QuoteResponseView::decode(w.encoded);
    if (view.ok()) {
      const auto& entries = view.value().entries;
      crypto::Digest folded = crypto::zero_digest();
      for (std::size_t base = 0; base < entries.size(); base += kBlock) {
        const std::size_t count = std::min(kBlock, entries.size() - base);
        for (std::size_t i = 0; i < count; ++i) {
          const keylime::LogEntryView& e = entries[base + i];
          inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                       reinterpret_cast<const std::uint8_t*>(e.path.data()),
                       e.path.size()};
        }
        crypto::sha256_batch(inputs, count, computed);
        for (std::size_t i = 0; i < count; ++i) {
          const keylime::LogEntryView& e = entries[base + i];
          if (computed[i] != e.template_hash) ++sum;
          keylime::PolicyMatch verdict;
          if (const auto cached = cache.lookup(computed[i], uid)) {
            verdict = *cached;
          } else {
            bool known = false;
            verdict = w.index->check(e.path, e.file_hash, &known);
            cache.insert(computed[i], uid, verdict);
          }
          sum = sum * 31 + static_cast<std::uint64_t>(verdict);
        }
        for (std::size_t i = 0; i < count; ++i) {
          folded = crypto::pcr_fold(folded, computed[i]);
        }
      }
      sum += digest_word(folded);
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = sum;

    // Legacy: owning decode, two-loop scalar verify with per-record
    // allocations, hex + linear policy check — the pre-rebuild round.
    start = std::chrono::steady_clock::now();
    sum = 0;
    auto owned = keylime::QuoteResponse::decode(w.encoded);
    if (owned.ok()) {
      std::uint64_t mismatches = 0;
      for (const ima::LogEntry& e : owned.value().entries) {
        ScalarSha256 ctx;
        ctx.update(crypto::digest_bytes(e.file_hash));
        ctx.update(e.path);
        if (ctx.finish() != e.template_hash) ++mismatches;
      }
      crypto::Digest pcr = crypto::zero_digest();
      for (const ima::LogEntry& e : owned.value().entries) {
        ScalarSha256 ctx;
        ctx.update(crypto::digest_bytes(pcr));
        ctx.update(crypto::digest_bytes(e.template_hash));
        pcr = ctx.finish();
      }
      sum = mismatches;
      for (const ima::LogEntry& e : owned.value().entries) {
        sum = sum * 31 + static_cast<std::uint64_t>(w.policy.check(
                             e.path, crypto::digest_hex(e.file_hash)));
      }
      sum += digest_word(pcr);
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = sum;
  }
  return r;
}

// ---------------------------------------------------------------------
// Per-poll EC stages. Each pass runs kEcOps operations; the checksums fold
// every signature encoding or verdict, so the two sides must agree.

constexpr std::size_t kEcOps = 192;

std::uint64_t bytes_word(const Bytes& b) {
  std::uint64_t word = 1469598103934665603ULL;  // FNV-1a
  for (std::uint8_t v : b) word = (word ^ v) * 1099511628211ULL;
  return word;
}

struct EcFixture {
  crypto::CertificateAuthority ca{"mfg", to_bytes("bench-seed")};
  tpm::Tpm2 tpm{"bench-ec", to_bytes("bench-seed"), ca};
  // Tpm2 derives its AK this way; the reference signs with the same key,
  // and the signature cross-check fails if the derivation ever drifts.
  crypto::KeyPair ak = crypto::derive_keypair(to_bytes("bench-seed"),
                                              "ak:bench-ec");
  crypto::KeyPair audit_key =
      crypto::derive_keypair(to_bytes("bench-seed"), "verifier-audit");
  std::vector<Bytes> nonces;

  EcFixture() {
    tpm.extend(tpm::kImaPcr, crypto::sha256(std::string("boot_aggregate")));
    for (std::size_t i = 0; i < kEcOps; ++i) {
      nonces.push_back(to_bytes(strformat("nonce-%zu", i)));
    }
  }
};

StageResult bench_quote_sign(const EcFixture& f, std::size_t reps) {
  const std::vector<int> pcrs = {tpm::kImaPcr};
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (const Bytes& nonce : f.nonces) {
      sum = sum * 31 + bytes_word(f.tpm.quote(nonce, pcrs).signature.encode());
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = sum;

    start = std::chrono::steady_clock::now();
    sum = 0;
    for (const Bytes& nonce : f.nonces) {
      tpm::Quote q;
      q.device_id = f.tpm.device_id();
      q.nonce = nonce;
      q.pcr_indices = pcrs;
      q.pcr_values.push_back(f.tpm.pcr_value(tpm::kImaPcr));
      q.signature = testkit::ecref::sign(f.ak, q.attested_message());
      sum = sum * 31 + bytes_word(q.signature.encode());
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = sum;
  }
  return r;
}

StageResult bench_quote_verify(const EcFixture& f, std::size_t reps) {
  std::vector<tpm::Quote> quotes;
  for (std::size_t i = 0; i < f.nonces.size(); ++i) {
    tpm::Quote q = f.tpm.quote(f.nonces[i], {tpm::kImaPcr});
    if (i % 4 == 3) q.nonce.push_back(0x01);  // replayed under a new nonce
    quotes.push_back(std::move(q));
  }
  const crypto::PublicKey& ak_pub = f.tpm.ak_public();
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (const tpm::Quote& q : quotes) {
      sum = sum * 2 + (q.verify(ak_pub) ? 1 : 0);
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = sum;

    start = std::chrono::steady_clock::now();
    sum = 0;
    for (const tpm::Quote& q : quotes) {
      const bool ok =
          q.pcr_indices.size() == q.pcr_values.size() &&
          testkit::ecref::verify(ak_pub, q.attested_message(), q.signature);
      sum = sum * 2 + (ok ? 1 : 0);
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = sum;
  }
  return r;
}

StageResult bench_audit_append(const EcFixture& f, std::size_t reps) {
  const auto quote_digest = [](std::size_t i) {
    return crypto::sha256(strformat("quote-%zu", i));
  };
  StageResult r;
  r.fast_ms = r.legacy_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    keylime::AuditLog log(f.audit_key);
    auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kEcOps; ++i) {
      const keylime::AuditRecord& rec =
          log.append(static_cast<SimTime>(i), strformat("agent-%zu", i % 16),
                     keylime::AuditVerdict::kPassed, 0, 4, quote_digest(i));
      sum = sum * 31 + bytes_word(rec.signature.encode());
    }
    r.fast_ms = std::min(r.fast_ms, wall_ms(start));
    r.fast_sum = sum;

    // The records append() built, re-hashed and re-signed by the
    // reference. append() also hashes the sub-chain link and keeps the
    // tail map, which this side skips, so the ratio understates a little.
    std::vector<keylime::AuditRecord> records = log.records();
    start = std::chrono::steady_clock::now();
    sum = 0;
    for (keylime::AuditRecord& rec : records) {
      rec.record_hash = rec.compute_hash();
      rec.signature = testkit::ecref::sign(
          f.audit_key, crypto::digest_bytes(rec.record_hash));
      sum = sum * 31 + bytes_word(rec.signature.encode());
    }
    r.legacy_ms = std::min(r.legacy_ms, wall_ms(start));
    r.legacy_sum = sum;
  }
  return r;
}

// ---------------------------------------------------------------------

struct StageReport {
  const char* name;
  bool hash_bound;  // ratio not comparable across SHA-NI availability
  const char* unit;  // what one pass counts: "entries" or "ops"
  std::size_t count;  // units per pass
  StageResult result;
  double fast_rate = 0;
  double legacy_rate = 0;
  double speedup = 0;
};

json::Value to_json(const StageReport& s) {
  json::Value v;
  v.set(strformat("fast_%s_per_sec", s.unit), s.fast_rate);
  v.set(strformat("legacy_%s_per_sec", s.unit), s.legacy_rate);
  v.set("speedup", s.speedup);
  v.set("hash_bound", s.hash_bound);
  return v;
}

int run_check(const std::string& baseline_path, double tolerance,
              const std::vector<StageReport>& stages, bool hw) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "bench_hotpath: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = json::parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_hotpath: baseline is not valid JSON: %s\n",
                 parsed.error().message.c_str());
    return 2;
  }
  const json::Value& base = parsed.value();
  const json::Value* base_hw = base.find("sha256_hw_accelerated");
  const bool hw_matches =
      base_hw != nullptr && base_hw->is_bool() && base_hw->as_bool() == hw;
  const json::Value* base_stages = base.find("stages");
  if (base_stages == nullptr || !base_stages->is_object()) {
    std::fprintf(stderr, "bench_hotpath: baseline has no stages object\n");
    return 2;
  }

  std::printf("\nRegression check vs %s (tolerance %.0f%%)\n",
              baseline_path.c_str(), tolerance * 100);
  int failures = 0;
  for (const StageReport& s : stages) {
    const json::Value* bs = base_stages->find(s.name);
    const json::Value* bspeed =
        bs != nullptr ? bs->find("speedup") : nullptr;
    if (bspeed == nullptr || !bspeed->is_number()) {
      std::printf("  %-12s SKIP (not in baseline)\n", s.name);
      continue;
    }
    if (s.hash_bound && !hw_matches) {
      std::printf("  %-12s SKIP (SHA-NI availability differs from baseline;"
                  " hash-bound ratio not comparable)\n", s.name);
      continue;
    }
    const double floor = bspeed->as_number() * (1.0 - tolerance);
    const bool ok = s.speedup >= floor;
    std::printf("  %-12s %s  speedup %.2fx vs baseline %.2fx (floor %.2fx)\n",
                s.name, ok ? "PASS" : "FAIL", s.speedup, bspeed->as_number(),
                floor);
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_hotpath: %d stage(s) regressed beyond tolerance\n",
                 failures);
    return 1;
  }
  std::printf("  all stages within tolerance\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(cia::LogLevel::kError);

  std::string baseline_path;
  std::string out_path = "BENCH_hotpath.json";
  double tolerance = 0.30;
  bool check_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_mode = true;
      baseline_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--check baseline.json]"
                   " [--tolerance 0.30] [--out BENCH_hotpath.json]\n");
      return 2;
    }
  }

  const std::size_t entries = env_size("CIA_BENCH_HOTPATH_ENTRIES", 300000);
  const std::size_t reps = env_size("CIA_BENCH_HOTPATH_REPS", 3);
  const bool hw = crypto::sha256_hw_accelerated();

  std::printf("Hot-path appraisal stages, %zu-entry round (%zu reps, best)\n",
              entries, reps);
  std::printf("SHA-NI: %s\n\n", hw ? "yes" : "no (scalar dispatch)");

  const Workload w = build_workload(entries);
  const EcFixture ec;

  std::vector<StageReport> stages = {
      {"parse", false, "entries", entries, bench_parse(w, reps)},
      {"hash_batch", true, "entries", entries, bench_hash_batch(w, reps)},
      {"verify_fold", true, "entries", entries, bench_verify_fold(w, reps)},
      {"policy_probe", false, "entries", entries, bench_policy_probe(w, reps)},
      {"end_to_end", true, "entries", entries, bench_end_to_end(w, reps)},
      {"quote_sign", false, "ops", kEcOps, bench_quote_sign(ec, reps)},
      {"quote_verify", false, "ops", kEcOps, bench_quote_verify(ec, reps)},
      {"audit_append", false, "ops", kEcOps, bench_audit_append(ec, reps)},
  };

  std::printf(
      "  stage            fast /s       legacy /s   unit     speedup\n");
  bool diverged = false;
  for (StageReport& s : stages) {
    const double n = static_cast<double>(s.count);
    s.fast_rate = s.result.fast_ms > 0 ? n / (s.result.fast_ms / 1000.0) : 0;
    s.legacy_rate =
        s.result.legacy_ms > 0 ? n / (s.result.legacy_ms / 1000.0) : 0;
    s.speedup = s.legacy_rate > 0 ? s.fast_rate / s.legacy_rate : 0;
    std::printf("  %-12s %12.0f %14.0f   %-7s %6.1fx\n", s.name, s.fast_rate,
                s.legacy_rate, s.unit, s.speedup);
    // parse/policy_probe checksums are verdict/content folds computed
    // identically on both sides; divergence means the fast path changed
    // observable behaviour, which the differential tests forbid.
    if (std::strcmp(s.name, "policy_probe") == 0 &&
        s.result.fast_sum != s.result.legacy_sum) {
      std::printf("  !! DIVERGENCE: cached/indexed and linear verdicts"
                  " differ\n");
      diverged = true;
    }
    if (std::strcmp(s.name, "parse") == 0 &&
        s.result.fast_sum != s.result.legacy_sum) {
      std::printf("  !! DIVERGENCE: view and owning decode differ\n");
      diverged = true;
    }
    // hash_batch runs the same records through the lane kernels and the
    // scalar backend; any digest difference is a broken kernel.
    if (std::strcmp(s.name, "hash_batch") == 0 &&
        s.result.fast_sum != s.result.legacy_sum) {
      std::printf("  !! DIVERGENCE: lane kernels and scalar backend"
                  " disagree\n");
      diverged = true;
    }
    // The EC stages fold signature encodings or verdicts; the library and
    // the reference must produce the same bytes and the same verdicts.
    if (std::strcmp(s.unit, "ops") == 0 &&
        s.result.fast_sum != s.result.legacy_sum) {
      std::printf("  !! DIVERGENCE: library and reference EC layer"
                  " disagree\n");
      diverged = true;
    }
  }
  if (diverged) return 1;

  if (check_mode) {
    return run_check(baseline_path, tolerance, stages, hw);
  }

  json::Value doc;
  doc.set("bench", "hotpath");
  doc.set("entries", entries);
  doc.set("unique_files", w.unique_files);
  doc.set("sha256_hw_accelerated", hw);
  json::Value stage_obj;
  for (const StageReport& s : stages) stage_obj.set(s.name, to_json(s));
  doc.set("stages", stage_obj);
  std::ofstream out(out_path);
  out << doc.pretty() << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
