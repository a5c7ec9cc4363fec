// Scaling the verifier: sharded pool + indexed appraisal vs the single
// linear verifier, plus a PolicyIndex microbenchmark at production policy
// scale (hundreds of thousands of entries, a long exclude-glob list).
//
// Two effects compound here:
//   * PolicyIndex turns every IMA appraisal from "scan the whole exclude
//     list, then walk a std::map" into one hash probe with the exclusion
//     bit precomputed — this is the per-entry win, visible on any host;
//   * sharding runs N verification stacks concurrently — this multiplies
//     by up to the core count, so single-core CI shows ~1x from it while
//     a production host shows ~N x.
//
// Part 4 measures the policy-store delta pipeline at the paper's §III-C
// shape (a ~1.3k-line daily update against a ~300k-entry base) and emits
// a BENCH_policy.json baseline; `bench_pool --check BENCH_policy.json`
// runs only that part and gates both the hard §III-C ratios (delta push
// must move <2% of the bytes and take <10% of the index-build time of a
// full push), the push fan-out (a push plus its install round on 16
// agents must cost <2x the same on one agent), the policy digest (the
// streamed digest must equal SHA-256 of the dumped JSON tree and cost
// <0.5x of it), the heap the base policy holds (<150 B per policy line,
// glibc builds), the heap a full index of it holds (<180 B per line) and
// drift against the checked-in baseline.
// It also runs Part 3 and gates the handoff size: a moved agent's
// payload carries its state, never its policy, so it must stay under
// 1 KB.
//
// The shapes are fixed (the k* sizes below): BENCH_policy.json was
// recorded at them, so --check always gates the workload its baseline
// measured.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/store.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace cia;
using namespace cia::experiments;

double wall_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Part 2's fleet, Part 3's resized fleet, and Part 4's policy base.
constexpr std::size_t kFleetAgents = 1000;
constexpr std::size_t kFleetRounds = 2;
constexpr std::size_t kResizeAgents = 400;
constexpr std::size_t kPolicyEntries = 300000;
constexpr std::size_t kPolicyReps = 3;

/// A production-shaped exclude list. Real deployments accumulate long
/// lists of suffix and infix patterns (churn files: logs, caches,
/// editor backups, bytecode) — each one forces the backtracking matcher
/// to walk the whole path, and RuntimePolicy::check runs the full list
/// on EVERY appraisal, policy hits included. PolicyIndex precomputes the
/// exclusion bit per indexed path and compiles "DIR/*" patterns to hash
/// probes, so appraisal stops paying for the list's length.
void add_exclude_list(keylime::RuntimePolicy& policy, std::size_t globs) {
  const char* suffixes[] = {"log", "tmp", "swp", "pyc", "bak", "cache",
                            "old", "lock"};
  for (std::size_t i = 0; i < globs; ++i) {
    switch (i % 4) {
      case 0:  // churn-file suffixes: *.log.3, *.pyc.17, ...
        policy.exclude(strformat("*.%s.%zu", suffixes[i % 8], i / 4));
        break;
      case 1:  // per-service spool/cache trees anywhere in the fs
        policy.exclude(strformat("*/spool-%03zu/*", i));
        break;
      case 2:  // tool-versioned scratch dirs (shares "tool-" with the
               // fleet's binary paths, so partial matches backtrack)
        policy.exclude(strformat("*/tool-scratch-%03zu/*", i));
        break;
      default:  // plain directory excludes (compiled to prefix probes)
        policy.exclude(strformat("/var/cache/app-%03zu/*", i));
        break;
    }
  }
}

// ---------------------------------------------------------------------
// Part 1: PolicyIndex vs linear RuntimePolicy::check at 300k entries.

struct IndexBenchResult {
  double linear_ms = 0;
  double indexed_ms = 0;
  double build_ms = 0;
  std::size_t probes = 0;
  std::size_t entries = 0;
};

IndexBenchResult bench_policy_index() {
  IndexBenchResult result;
  const std::size_t kPaths = 150000;
  const std::size_t kHashesPerPath = 2;
  const std::size_t kGlobs = 96;

  keylime::RuntimePolicy policy;
  add_exclude_list(policy, kGlobs);
  for (std::size_t i = 0; i < kPaths; ++i) {
    const std::string path =
        strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                  i / 4, i % 4);
    for (std::size_t h = 0; h < kHashesPerPath; ++h) {
      policy.allow(path, crypto::sha256(strformat("content-%zu-%zu", i, h)));
    }
  }
  result.entries = policy.entry_count();

  auto start = std::chrono::steady_clock::now();
  const auto index = keylime::PolicyIndex::build(policy, 1);
  result.build_ms = wall_ms(start);

  // Probe mix modelled on a real appraisal stream: overwhelmingly
  // policy hits (installed files being re-measured), a few stale hashes,
  // a sprinkle of unknown and excluded paths.
  struct Probe {
    std::string path;
    crypto::Digest hash;
  };
  std::vector<Probe> probes;
  const std::size_t kProbes = 200000;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const std::size_t r = i % 40;
    if (r < 36) {  // hit: known path, acceptable hash
      const std::size_t p = (i * 7919) % kPaths;
      probes.push_back(
          {strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                     p / 4, p % 4),
           crypto::sha256(
               strformat("content-%zu-%zu", p, i % kHashesPerPath))});
    } else if (r < 38) {  // known path, stale hash
      const std::size_t p = (i * 104729) % kPaths;
      probes.push_back(
          {strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                     p / 4, p % 4),
           crypto::sha256("stale")});
    } else if (r == 38) {  // unknown path
      probes.push_back(
          {strformat("/opt/unknown/bin-%zu", i), crypto::sha256("x")});
    } else {  // excluded path (a compiled directory glob)
      probes.push_back({strformat("/var/cache/app-%03zu/obj-%zu",
                                  (i % 8) * 4 + 3, i),
                        crypto::sha256("x")});
    }
  }
  result.probes = probes.size();

  // Fold match outcomes into a checksum so the compiler cannot elide
  // either loop, and so both paths can be cross-checked for agreement.
  std::uint64_t linear_sum = 0, indexed_sum = 0;
  start = std::chrono::steady_clock::now();
  for (const Probe& probe : probes) {
    linear_sum = linear_sum * 31 +
                 static_cast<std::uint64_t>(policy.check(probe.path, probe.hash));
  }
  result.linear_ms = wall_ms(start);

  start = std::chrono::steady_clock::now();
  for (const Probe& probe : probes) {
    indexed_sum = indexed_sum * 31 +
                  static_cast<std::uint64_t>(index->check(probe.path, probe.hash));
  }
  result.indexed_ms = wall_ms(start);

  if (linear_sum != indexed_sum) {
    std::printf("  !! DIVERGENCE: linear and indexed verdicts differ\n");
  }
  return result;
}

// ---------------------------------------------------------------------
// Part 2: fleet throughput, single linear verifier vs sharded pool.

struct FleetBenchResult {
  std::size_t polls = 0;
  std::uint64_t appraised = 0;
  double ms = 0;
  /// Virtual seconds the slowest shard needed to complete the rounds —
  /// the fleet's attestation round latency. Network latency is charged
  /// per call to the owning shard's clock, so N shards polling
  /// concurrently finish a fleet round in ~1/N the virtual time of one
  /// verifier polling everyone back to back. Deterministic (independent
  /// of host core count): this is the sharding win, where wall-clock
  /// polls/s is the indexed-appraisal win.
  SimTime virtual_elapsed = 0;
};

FleetBenchResult bench_fleet(std::size_t shards, bool indexed,
                             std::size_t agents, std::size_t rounds) {
  PoolFleetOptions options;
  options.agents = agents;
  options.shards = shards;
  options.seed = 7;
  // An update-heavy day: every round each agent measures a few hundred
  // fresh files (a dist-upgrade rewrites thousands), so appraisal — not
  // the fixed per-quote crypto — is what the verifier spends time on.
  options.binaries_per_machine = 480;
  options.execs_per_round = 240;
  options.retrying_transport = false;  // no faults; measure the verifier
  PoolFleet fleet(options);
  FleetBenchResult result;
  if (!fleet.init_status().ok()) {
    std::printf("  !! fleet construction failed: %s\n",
                fleet.init_status().error().message.c_str());
    return result;
  }

  keylime::RuntimePolicy policy = fleet.fleet_policy();
  add_exclude_list(policy, 128);
  if (indexed) {
    const std::string digest = keylime::policy_store::policy_digest(policy);
    (void)fleet.pool().push_revision(fleet.pool().agent_ids(), policy, digest,
                                     nullptr);
  } else {
    // The pre-pool architecture: per-agent pushes through the legacy
    // path, linear appraisal on every entry.
    for (const std::string& id : fleet.agent_ids()) {
      (void)fleet.pool().verifier(fleet.pool().shard_for(id))
          .set_policy(id, policy);
    }
  }

  // Every quote RPC costs one virtual second of network latency, charged
  // to the owning shard's clock — round latency is how long the fleet
  // actually goes between attestations of the same agent.
  netsim::FaultProfile latency_only;
  latency_only.latency = 1;
  fleet.pool().set_fleet_faults(latency_only);

  std::vector<SimTime> clock_start(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    clock_start[s] = fleet.pool().clock(s).now();
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    fleet.run_workload_round(r);
    fleet.pool().run_round();
  }
  result.ms = wall_ms(start);
  for (std::size_t s = 0; s < shards; ++s) {
    result.virtual_elapsed = std::max(
        result.virtual_elapsed, fleet.pool().clock(s).now() - clock_start[s]);
  }
  result.polls = fleet.pool().stats().polls;
  const auto stats = fleet.pool().stats();
  result.appraised = stats.index_hits + stats.index_misses;
  return result;
}

// ---------------------------------------------------------------------
// Part 3: live resharding cost — what one ring resize charges the fleet.

struct ResizeBenchResult {
  std::size_t moved = 0;
  std::size_t agents = 0;
  double ms = 0;
  std::uint64_t bytes = 0;
};

ResizeBenchResult bench_resize(std::size_t from, std::size_t to,
                               std::size_t agents) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = agents;
  options.shards = from;
  options.seed = 7;
  options.binaries_per_machine = 64;
  options.execs_per_round = 16;
  options.retrying_transport = false;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ResizeBenchResult result;
  result.agents = agents;
  if (!fleet.init_status().ok()) {
    std::printf("  !! fleet construction failed: %s\n",
                fleet.init_status().error().message.c_str());
    return result;
  }
  (void)fleet.push_fleet_policy();
  // Give every agent real state to carry: log cursors past boot, audit
  // sub-chains, scheduler history — the resize serializes all of it.
  for (std::size_t r = 0; r < 2; ++r) {
    fleet.run_workload_round(r);
    fleet.pool().run_round();
  }

  const auto start = std::chrono::steady_clock::now();
  if (Status s = fleet.pool().resize(to); !s.ok()) {
    std::printf("  !! resize failed: %s\n", s.error().message.c_str());
    return result;
  }
  result.ms = wall_ms(start);
  const auto& mig = fleet.pool().migration_stats();
  result.moved = mig.ok + mig.fallback;
  const auto snap = metrics.snapshot();
  if (const auto* p = snap.find("cia_pool_migration_bytes")) {
    result.bytes = static_cast<std::uint64_t>(p->histogram.sum);
  }
  return result;
}

/// Handoff payload a moved agent may cost at most. The bench policy is
/// small, but a slice that embedded it would still read ~6 KB.
constexpr double kMaxHandoffKbPerMoved = 1.0;

struct HandoffBenchResult {
  std::size_t agents = 0;
  std::size_t moved = 0;    // over the three ring moves
  double kb_per_moved = 0;  // the largest over the three ring moves
};

/// Part 3 over three ring moves, printed as a table.
HandoffBenchResult bench_handoffs(std::size_t agents) {
  std::printf("Live resharding cost (%zu agents with warm state)\n\n",
              agents);
  std::printf(
      "  resize      moved    wall_ms   ms/moved   payload_KB   KB/moved\n");
  struct Shape {
    std::size_t from, to;
  };
  HandoffBenchResult result;
  result.agents = agents;
  for (const Shape shape : {Shape{2, 4}, Shape{4, 8}, Shape{8, 2}}) {
    const ResizeBenchResult r = bench_resize(shape.from, shape.to, agents);
    const double kb = static_cast<double>(r.bytes) / 1024.0;
    const double kb_per_moved =
        r.moved > 0 ? kb / static_cast<double>(r.moved) : 0.0;
    result.moved += r.moved;
    result.kb_per_moved = std::max(result.kb_per_moved, kb_per_moved);
    std::printf(
        "  %zu -> %-5zu %6zu   %8.1f   %8.2f   %10.1f   %8.2f\n",
        shape.from, shape.to, r.moved, r.ms,
        r.moved > 0 ? r.ms / static_cast<double>(r.moved) : 0.0, kb,
        kb_per_moved);
  }
  std::printf("\n");
  return result;
}

// ---------------------------------------------------------------------
// Part 4: delta push vs full push at the paper's §III-C shape.
//
// A daily runtime-policy update is ~1,271 lines (0.16 MB) against a
// 323,734-line (46 MB) base, yet the pre-store pipeline moved the full
// policy and rebuilt the index from scratch on every push. Both costs
// side by side: bytes on the wire (canonical JSON of the full policy vs
// the serialized PolicyDelta) and index time (PolicyIndex::build vs
// apply() + build_incremental). Ratios are what matters — they are
// host-independent, so the --check gate pins them hard.
//
// The index patch is only part of what a push costs the pool: the
// revision must also reach every agent. `fanout` times push_revision
// plus the install run_round() end to end on a 16-agent fleet against a
// 1-agent fleet. With one shared revision per push it stays near 1; a
// per-agent policy copy makes it grow with the fleet.
//
// `digest` times policy_digest of the target against the tree-then-hash
// shape it replaced; apply() pays two policy digests and diff() two, so
// this is most of a daily update's ingestion cost.

struct DeltaBenchResult {
  std::size_t base_entries = 0;
  std::size_t delta_lines = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t delta_bytes = 0;
  double full_build_ms = 0;
  double delta_push_ms = 0;  // build_incremental: the index half of a push
  /// One-time delta-ingestion cost upstream of the pool: apply() with
  /// both provenance digests recomputed over the canonical JSON (the
  /// whole 46 MB base serialized + hashed twice). Informational — it is
  /// paid once per update at the orchestrator, not per shard push, and
  /// digest-binding is the point of the subsystem.
  double apply_verify_ms = 0;
  /// Best policy_digest of the target (streamed canonical bytes) and
  /// best SHA-256 of the same bytes built as a JSON tree and dumped —
  /// the digest's cost before streaming, and its oracle.
  double digest_ms = 0;
  double dom_digest_ms = 0;
  /// Heap bytes the base RuntimePolicy and PolicyIndex::build of it
  /// hold, per policy line (mallinfo2 in-use bytes before and after;
  /// glibc only).
  double policy_bytes_per_line = 0;
  double index_bytes_per_line = 0;
  double bytes_ratio = 0;
  double build_ratio = 0;
  double digest_ratio = 0;
  /// Best push_revision + install run_round() wall time on a 1-agent and
  /// a kFanoutAgents-agent fleet, and their quotient.
  double push_install_1_ms = 0;
  double push_install_n_ms = 0;
  double fanout = 0;
  bool diverged = false;
};

constexpr std::size_t kFanoutAgents = 16;
/// Hard ceilings for full_push.policy_bytes_per_line, the policy holding
/// each line's hash as a 32-byte digest rather than 64 hex characters,
/// and for full_push.index_bytes_per_line, the index keeping path classes
/// and template hashes, never a copy of the policy's paths or digests.
constexpr double kMaxPolicyBytesPerLine = 150;
constexpr double kMaxIndexBytesPerLine = 180;

#ifdef __GLIBC__
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

PoolFleetOptions fanout_fleet_options(std::size_t agents) {
  PoolFleetOptions options;
  options.agents = agents;
  options.shards = 4;
  options.seed = 7;
  options.retrying_transport = false;  // no faults; measure the pool
  return options;
}

/// Bind every agent of `fleet` to `base` (one full build, untimed) and
/// drain the boot logs, so timed rounds carry only the install.
void seed_fanout_fleet(PoolFleet& fleet, const keylime::RuntimePolicy& base,
                       const std::string& base_digest) {
  (void)fleet.pool().push_revision(fleet.agent_ids(), base, base_digest,
                                   nullptr);
  fleet.run_workload_round(0);
  fleet.pool().run_round();
}

/// Wall time of one delta push of `target` to every agent of `fleet` plus
/// the round that installs it; `reverse` then restores the base, untimed.
/// The allocator is trimmed first so every sample starts from the same
/// heap state: a 300k-entry policy copy costs 2-3x more when it is served
/// from the fragments of the revision the last round freed.
double push_install_ms(PoolFleet& fleet, const keylime::RuntimePolicy& base,
                       const keylime::RuntimePolicy& target,
                       const keylime::policy_store::PolicyDelta& forward,
                       const keylime::policy_store::PolicyDelta& reverse) {
  keylime::VerifierPool& pool = fleet.pool();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  const auto start = std::chrono::steady_clock::now();
  (void)pool.push_revision(fleet.agent_ids(), target, forward.target_digest,
                           &forward);
  pool.run_round();
  const double ms = wall_ms(start);
  (void)pool.push_revision(fleet.agent_ids(), base, reverse.target_digest,
                           &reverse);
  pool.run_round();
  return ms;
}

DeltaBenchResult bench_policy_delta(std::size_t entries, std::size_t reps) {
  using namespace cia::keylime;
  DeltaBenchResult result;

  // Same base shape as Part 1: entries/2 paths with two acceptable
  // hashes each, plus a production-length exclude list (the exclude scan
  // is the dominant full-build cost the incremental path skips).
  const std::size_t paths = entries / 2;
#ifdef __GLIBC__
  const std::size_t policy_heap_before = heap_in_use();
#endif
  RuntimePolicy base;
  add_exclude_list(base, 96);
  for (std::size_t i = 0; i < paths; ++i) {
    const std::string path =
        strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                  i / 4, i % 4);
    for (std::size_t h = 0; h < 2; ++h) {
      base.allow(path, crypto::sha256(strformat("content-%zu-%zu", i, h)));
    }
  }
  result.base_entries = base.entry_count();
#ifdef __GLIBC__
  result.policy_bytes_per_line =
      static_cast<double>(heap_in_use() - policy_heap_before) /
      static_cast<double>(result.base_entries);
#endif

  // A daily-update-shaped edit script, scaled to the base in the
  // paper's 1271-vs-323734 proportion: mostly replaced hash lists
  // (upgraded packages), some new files, a few removals.
  const std::size_t delta_lines =
      std::max<std::size_t>(4, (result.base_entries * 1271) / 323734);
  const std::size_t removes = std::max<std::size_t>(1, delta_lines / 10);
  const std::size_t adds = std::max<std::size_t>(1, (delta_lines * 3) / 10);
  const std::size_t replaces =
      std::max<std::size_t>(1, (delta_lines - removes - adds) / 2);

  RuntimePolicy target = base;
  const std::size_t unique_paths = paths / 4;  // 4 libs share a pkg dir
  for (std::size_t i = 0; i < replaces; ++i) {
    const std::size_t p = (i * 7919) % unique_paths;
    const std::string path = strformat(
        "/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-0.so.0", p);
    target.set_hashes(path, {crypto::sha256(strformat("upgraded-%zu-0", p)),
                             crypto::sha256(strformat("upgraded-%zu-1", p))});
  }
  for (std::size_t i = 0; i < adds; ++i) {
    target.allow(strformat("/opt/daily/new-%05zu", i),
                 crypto::sha256(strformat("fresh-%zu", i)));
  }
  for (std::size_t i = 0; i < removes; ++i) {
    (void)target.remove_path(strformat(
        "/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-3.so.0", i * 13 + 1));
  }

  const policy_store::PolicyDelta delta = policy_store::diff(base, target);
  result.delta_lines = delta.entry_count();
  result.full_bytes = target.to_json().dump().size();
  result.delta_bytes = delta.byte_size();

  // Ingestion: apply() once, provenance-verified — the orchestrator
  // does this when the delta arrives, before any shard sees it.
  auto ingest_start = std::chrono::steady_clock::now();
  auto applied = policy_store::apply(base, delta);
  result.apply_verify_ms = wall_ms(ingest_start);
  if (!applied.ok()) {
    std::printf("  !! delta apply failed: %s\n",
                applied.error().message.c_str());
    result.diverged = true;
    return result;
  }

  // The canonical digest, streamed, against the tree-then-hash oracle.
  std::string digest, dom_digest;
  result.digest_ms = result.dom_digest_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    digest = policy_store::policy_digest(target);
    result.digest_ms = std::min(result.digest_ms, wall_ms(start));
    start = std::chrono::steady_clock::now();
    dom_digest =
        crypto::digest_hex(crypto::sha256(target.to_json().dump()));
    result.dom_digest_ms = std::min(result.dom_digest_ms, wall_ms(start));
  }
  result.digest_ratio = result.digest_ms / result.dom_digest_ms;
  if (digest != dom_digest || digest != delta.target_digest) {
    std::printf("  !! DIVERGENCE: streamed digest %s, canonical JSON %s\n",
                digest.c_str(), dom_digest.c_str());
    result.diverged = true;
    return result;
  }

#ifdef __GLIBC__
  const std::size_t heap_before = heap_in_use();
#endif
  const auto base_index = PolicyIndex::build(base, 1);
#ifdef __GLIBC__
  result.index_bytes_per_line =
      static_cast<double>(heap_in_use() - heap_before) /
      static_cast<double>(result.base_entries);
#endif
  std::shared_ptr<const PolicyIndex> full_index, incr_index;
  result.full_build_ms = 1e300;
  result.delta_push_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    full_index = PolicyIndex::build(target, 2);
    result.full_build_ms = std::min(result.full_build_ms, wall_ms(start));

    // The per-push cost: VerifierPool::push_revision rebases the cached
    // head index by the delta; apply() is NOT re-run per push.
    start = std::chrono::steady_clock::now();
    incr_index =
        PolicyIndex::build_incremental(base_index, applied.value(), delta, 2);
    result.delta_push_ms = std::min(result.delta_push_ms, wall_ms(start));
  }
  result.bytes_ratio = result.full_bytes > 0
                           ? static_cast<double>(result.delta_bytes) /
                                 static_cast<double>(result.full_bytes)
                           : 0;
  result.build_ratio = result.full_build_ms > 0
                           ? result.delta_push_ms / result.full_build_ms
                           : 0;

  // Equivalence spot check (the full battery lives in
  // policy_store_test.cpp): both indexes must agree on every touched
  // path class.
  if (full_index->entry_count() != incr_index->entry_count() ||
      full_index->path_count() != incr_index->path_count()) {
    result.diverged = true;
  }
  for (std::size_t i = 0; i < 64 && !result.diverged; ++i) {
    const std::string path =
        i % 3 == 0 ? strformat("/opt/daily/new-%05zu", i % adds)
        : i % 3 == 1
            ? strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-0.so.0",
                        (i * 7919) % unique_paths)
            : strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-3.so.0",
                        i * 13 + 1);
    const crypto::Digest probe = crypto::sha256("probe");
    if (full_index->check(path, probe) != incr_index->check(path, probe)) {
      result.diverged = true;
    }
  }
  if (result.diverged) {
    std::printf("  !! DIVERGENCE: incremental and full index differ\n");
    return result;
  }

  // Push fan-out: the same update, with the fleet's own image merged in
  // so appraisal stays alert-free, delivered to 1 and to 16 agents.
  PoolFleet one(fanout_fleet_options(1));
  PoolFleet many(fanout_fleet_options(kFanoutAgents));
  if (!one.init_status().ok() || !many.init_status().ok()) {
    std::printf("  !! fan-out fleet construction failed\n");
    result.diverged = true;
    return result;
  }
  RuntimePolicy fleet_base = base;
  fleet_base.merge(one.fleet_policy());
  RuntimePolicy fleet_target = applied.value();
  fleet_target.merge(one.fleet_policy());
  const policy_store::PolicyDelta forward =
      policy_store::diff(fleet_base, fleet_target);
  const policy_store::PolicyDelta reverse =
      policy_store::diff(fleet_target, fleet_base);
  seed_fanout_fleet(one, fleet_base, forward.base_digest);
  seed_fanout_fleet(many, fleet_base, forward.base_digest);
  result.push_install_1_ms = result.push_install_n_ms = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {  // interleaved, best of
    result.push_install_1_ms = std::min(
        result.push_install_1_ms,
        push_install_ms(one, fleet_base, fleet_target, forward, reverse));
    result.push_install_n_ms = std::min(
        result.push_install_n_ms,
        push_install_ms(many, fleet_base, fleet_target, forward, reverse));
  }
  if (!one.pool().alerts().empty() || !many.pool().alerts().empty()) {
    std::printf("  !! fan-out fleet raised alerts under its own policy\n");
    result.diverged = true;
    return result;
  }
  result.fanout = result.push_install_n_ms / result.push_install_1_ms;
  return result;
}

json::Value delta_bench_to_json(const DeltaBenchResult& r,
                                const HandoffBenchResult& h) {
  json::Value doc;
  doc.set("bench", "policy_delta");
  doc.set("base_entries", static_cast<std::int64_t>(r.base_entries));
  doc.set("delta_lines", static_cast<std::int64_t>(r.delta_lines));
  json::Value full;
  full.set("bytes", static_cast<std::int64_t>(r.full_bytes));
  full.set("index_build_ms", r.full_build_ms);
#ifdef __GLIBC__
  full.set("policy_bytes_per_line", r.policy_bytes_per_line);
  full.set("index_bytes_per_line", r.index_bytes_per_line);
#endif
  doc.set("full_push", std::move(full));
  json::Value delta;
  delta.set("bytes", static_cast<std::int64_t>(r.delta_bytes));
  delta.set("incremental_build_ms", r.delta_push_ms);
  delta.set("apply_verify_ms", r.apply_verify_ms);
  delta.set("digest_ms", r.digest_ms);
  doc.set("delta_push", std::move(delta));
  json::Value fanout;
  fanout.set("agents", static_cast<std::int64_t>(kFanoutAgents));
  fanout.set("push_install_1_ms", r.push_install_1_ms);
  fanout.set("push_install_n_ms", r.push_install_n_ms);
  doc.set("push_fanout", std::move(fanout));
  json::Value ratios;
  ratios.set("bytes", r.bytes_ratio);
  ratios.set("build_ms", r.build_ratio);
  ratios.set("fanout", r.fanout);
  ratios.set("digest", r.digest_ratio);
  doc.set("ratios", std::move(ratios));
  json::Value handoff;
  handoff.set("agents", static_cast<std::int64_t>(h.agents));
  handoff.set("kb_per_moved", h.kb_per_moved);
  doc.set("handoff", std::move(handoff));
  return doc;
}

void print_delta_bench(const DeltaBenchResult& r) {
  std::printf(
      "Delta push vs full push (§III-C shape: %zu-line update, %zu-entry "
      "base)\n\n",
      r.delta_lines, r.base_entries);
  std::printf("  path         bytes_moved    index_ms\n");
  std::printf("  full push    %11llu    %8.1f\n",
              static_cast<unsigned long long>(r.full_bytes), r.full_build_ms);
  std::printf("  delta push   %11llu    %8.1f\n",
              static_cast<unsigned long long>(r.delta_bytes), r.delta_push_ms);
  std::printf("  ratio        %10.2f%%    %7.2f%%\n", r.bytes_ratio * 100,
              r.build_ratio * 100);
#ifdef __GLIBC__
  std::printf("  (heap bytes per policy line: base policy %.0f, full index"
              " of it %.0f)\n",
              r.policy_bytes_per_line, r.index_bytes_per_line);
#endif
  std::printf("  (one-time delta ingestion, apply + both provenance digests:"
              " %.1fms)\n",
              r.apply_verify_ms);
  std::printf("  policy digest: streamed %.1fms, JSON tree + dump + hash"
              " %.1fms (%.2fx)\n\n",
              r.digest_ms, r.dom_digest_ms, r.digest_ratio);
  std::printf("  push + install round   1 agent %8.1fms   %zu agents %8.1fms"
              "   fanout %.2fx\n\n",
              r.push_install_1_ms, kFanoutAgents, r.push_install_n_ms,
              r.fanout);
}

// The §III-C acceptance gates are hard-coded (host-independent ratios);
// the baseline adds a drift check on top so a slow regression inside the
// gate still trips CI.
int run_policy_check(const std::string& baseline_path, double tolerance,
                     const DeltaBenchResult& r, const HandoffBenchResult& h) {
  if (r.diverged) return 1;
  std::printf("Gate check vs %s (drift tolerance %.0f%%)\n",
              baseline_path.c_str(), tolerance * 100);
  int failures = 0;
  const auto gate = [&](const char* name, double measured, double limit) {
    const bool ok = measured < limit;
    std::printf("  %-22s %s  %.3f%% vs hard limit %.0f%%\n", name,
                ok ? "PASS" : "FAIL", measured * 100, limit * 100);
    if (!ok) ++failures;
  };
  gate("bytes ratio", r.bytes_ratio, 0.02);
  gate("index-build ratio", r.build_ratio, 0.10);
  gate("push fan-out", r.fanout, 2.0);
  gate("digest ratio", r.digest_ratio, 0.5);
  // A resize that moved nobody would pass vacuously.
  const bool handoff_ok =
      h.moved > 0 && h.kb_per_moved < kMaxHandoffKbPerMoved;
  std::printf("  %-22s %s  %.2f KB vs hard limit %.0f KB\n",
              "handoff per moved", handoff_ok ? "PASS" : "FAIL",
              h.kb_per_moved, kMaxHandoffKbPerMoved);
  if (!handoff_ok) ++failures;
#ifdef __GLIBC__
  const auto bytes_gate = [&](const char* name, double measured,
                              double limit) {
    const bool ok = measured < limit;
    std::printf("  %-22s %s  %.1f B vs hard limit %.0f B\n", name,
                ok ? "PASS" : "FAIL", measured, limit);
    if (!ok) ++failures;
  };
  bytes_gate("policy bytes per line", r.policy_bytes_per_line,
             kMaxPolicyBytesPerLine);
  bytes_gate("index bytes per line", r.index_bytes_per_line,
             kMaxIndexBytesPerLine);
#endif

  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "bench_pool: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = json::parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_pool: baseline is not valid JSON: %s\n",
                 parsed.error().message.c_str());
    return 2;
  }
  const json::Value* ratios = parsed.value().find("ratios");
  if (ratios == nullptr || !ratios->is_object()) {
    std::fprintf(stderr, "bench_pool: baseline has no ratios object\n");
    return 2;
  }
  const auto drift = [&](const char* key, double measured) {
    const json::Value* base = ratios->find(key);
    if (base == nullptr || !base->is_number()) {
      std::printf("  %-22s SKIP (not in baseline)\n", key);
      return;
    }
    const double ceiling = base->as_number() * (1.0 + tolerance);
    const bool ok = measured <= ceiling;
    std::printf("  %-22s %s  %.3f%% vs baseline %.3f%% (ceiling %.3f%%)\n",
                key, ok ? "PASS" : "FAIL", measured * 100,
                base->as_number() * 100, ceiling * 100);
    if (!ok) ++failures;
  };
  drift("bytes", r.bytes_ratio);
  drift("build_ms", r.build_ratio);

  if (failures > 0) {
    std::fprintf(stderr, "bench_pool: %d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("  all gates within limits\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(cia::LogLevel::kError);

  std::string baseline_path;
  std::string out_path = "BENCH_policy.json";
  double tolerance = 1.0;
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
                   "usage: bench_pool [--check BENCH_policy.json]"
                   " [--tolerance 1.0] [--out BENCH_policy.json]\n");
      return 2;
    }
  }

  // --check is the CI gate: only the ratio-pinned Part 4 and the
  // byte-counted Part 3 run (Parts 1-2 report host-dependent throughput
  // with no baseline to gate against).
  if (check_mode) {
    const HandoffBenchResult hr = bench_handoffs(kResizeAgents);
    const DeltaBenchResult dr = bench_policy_delta(kPolicyEntries, kPolicyReps);
    print_delta_bench(dr);
    return run_policy_check(baseline_path, tolerance, dr, hr);
  }

  std::printf("PolicyIndex vs linear scan (one policy revision)\n\n");
  const IndexBenchResult ib = bench_policy_index();
  std::printf("  entries   probes    build     linear     indexed   speedup\n");
  std::printf("  %7zu   %6zu   %5.0fms   %6.0fms   %7.1fms   %6.1fx\n\n",
              ib.entries, ib.probes, ib.build_ms, ib.linear_ms, ib.indexed_ms,
              ib.indexed_ms > 0 ? ib.linear_ms / ib.indexed_ms : 0.0);

  std::printf("Fleet attestation throughput (%zu agents, %zu rounds)\n\n",
              kFleetAgents, kFleetRounds);
  std::printf(
      "  config                        polls   round_virt_s   polls/virt_s"
      "   speedup   wall_ms   polls/s\n");
  const FleetBenchResult base =
      bench_fleet(1, /*indexed=*/false, kFleetAgents, kFleetRounds);
  const double base_vrate =
      base.virtual_elapsed > 0
          ? static_cast<double>(base.polls) / base.virtual_elapsed
          : 0;
  const double base_rate = base.ms > 0 ? base.polls / (base.ms / 1000.0) : 0;
  std::printf(
      "  1 shard, linear (baseline)  %7zu   %12lld   %12.1f     1.0x   %7.0f   %7.0f\n",
      base.polls, static_cast<long long>(base.virtual_elapsed), base_vrate,
      base.ms, base_rate);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const FleetBenchResult r =
        bench_fleet(shards, /*indexed=*/true, kFleetAgents, kFleetRounds);
    const double vrate = r.virtual_elapsed > 0
                             ? static_cast<double>(r.polls) / r.virtual_elapsed
                             : 0;
    const double rate = r.ms > 0 ? r.polls / (r.ms / 1000.0) : 0;
    std::printf(
        "  %zu shards, indexed           %7zu   %12lld   %12.1f   %5.1fx   %7.0f   %7.0f\n",
        shards, r.polls, static_cast<long long>(r.virtual_elapsed), vrate,
        base_vrate > 0 ? vrate / base_vrate : 0, r.ms, rate);
  }
  std::printf(
      "\n  polls/virt_s is fleet round latency: N shards poll concurrently,\n"
      "  so the fleet is re-attested ~N x as often for the same per-link\n"
      "  cost — deterministic, independent of host cores. wall_ms shows the\n"
      "  indexed-appraisal win on this host; on a multi-core verifier the\n"
      "  shard parallelism multiplies it by up to the core count.\n");

  std::printf("\n");
  const HandoffBenchResult hr = bench_handoffs(kResizeAgents);
  std::printf(
      "  only ring-moved agents pay a handoff; the rest of the fleet\n"
      "  never blocks beyond the round-boundary drain. ms/moved is the\n"
      "  marginal cost of migrating one agent's full verification state\n"
      "  (log cursor, audit tail, scheduler slot) over the handoff link;\n"
      "  the policy binding moves by reference, so KB/moved is gated\n"
      "  below %.0f KB by `bench_pool --check`.\n\n",
      kMaxHandoffKbPerMoved);

  const DeltaBenchResult dr = bench_policy_delta(kPolicyEntries, kPolicyReps);
  print_delta_bench(dr);
  std::printf(
      "  a delta push moves the base digest + patched lines and patches\n"
      "  the index in place; the full-push column is what every daily\n"
      "  update used to cost. Ratios are host-independent and gated by\n"
      "  `bench_pool --check BENCH_policy.json` in CI.\n");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_pool: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << delta_bench_to_json(dr, hr).pretty() << "\n";
  std::printf("\n  wrote %s\n", out_path.c_str());
  return dr.diverged ? 1 : 0;
}
