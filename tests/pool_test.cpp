// Tests for the sharded verifier pool: consistent-hash ring behaviour,
// fleet-level attestation through PoolFleet, copy-on-write policy swaps,
// and the pool's two determinism contracts —
//
//   * the same (seed, shard count) reproduces a byte-identical telemetry
//     snapshot and identical per-shard audit chains;
//   * per-agent verdicts are invariant to the shard count, because every
//     shard network is seeded identically and per-link fault streams
//     derive from the agent's address, never from its shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strutil.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/verifier_pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "testkit/invariants.hpp"

namespace cia {
namespace {

using experiments::PoolFleet;
using experiments::PoolFleetOptions;

std::vector<std::string> sequential_ids(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(strformat("agent-%04zu", i));
  return ids;
}

// ------------------------------------------------------ consistent hash

TEST(PoolRingTest, SequentialIdsSpreadAcrossShards) {
  keylime::VerifierPoolConfig config;
  config.shards = 8;
  keylime::VerifierPool pool(7, config);

  std::map<std::size_t, std::size_t> counts;
  for (const std::string& id : sequential_ids(1000)) counts[pool.shard_for(id)]++;

  // Sequentially named fleets are the worst case for a weak ring hash
  // (ids differ only in trailing digits); this pins the avalanche fix.
  ASSERT_EQ(counts.size(), 8u) << "every shard must own part of the fleet";
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, 1000 / 8 / 4) << "shard " << shard << " owns almost nothing";
    EXPECT_LT(n, 1000 / 8 * 4) << "shard " << shard << " owns almost everything";
  }
}

TEST(PoolRingTest, AssignmentIsStableAcrossInstances) {
  keylime::VerifierPoolConfig config;
  config.shards = 6;
  keylime::VerifierPool a(1, config);
  keylime::VerifierPool b(2, config);  // pool seed does not shape the ring
  for (const std::string& id : sequential_ids(200)) {
    EXPECT_EQ(a.shard_for(id), b.shard_for(id)) << id;
  }
}

TEST(PoolRingTest, ResizeMovesOnlyAFractionOfTheFleet) {
  keylime::VerifierPoolConfig small, large;
  small.shards = 8;
  large.shards = 10;
  keylime::VerifierPool a(1, small);
  keylime::VerifierPool b(1, large);

  std::size_t moved = 0;
  const auto ids = sequential_ids(1000);
  for (const std::string& id : ids) {
    if (a.shard_for(id) != b.shard_for(id)) ++moved;
  }
  // Consistent hashing: growing 8 -> 10 shards should move roughly 1/5
  // of the keys, nowhere near the ~9/10 a modulo partition would.
  EXPECT_LT(moved, ids.size() / 2)
      << "resize reshuffled most of the fleet - ring is not consistent";
  EXPECT_GT(moved, 0u) << "new shards must take over some agents";
}

// ------------------------------------------------------ fleet behaviour

TEST(PoolFleetTest, CleanFleetAttestsOnEveryShard) {
  PoolFleetOptions options;
  options.agents = 16;
  options.shards = 4;
  options.seed = 11;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  fleet.run_workload_round(0);
  const std::size_t polls = fleet.pool().run_round();
  EXPECT_EQ(polls, 16u);
  EXPECT_TRUE(fleet.pool().alerts().empty());
  for (const std::string& id : fleet.agent_ids()) {
    ASSERT_TRUE(fleet.pool().state(id).has_value()) << id;
    EXPECT_EQ(*fleet.pool().state(id), keylime::AgentState::kAttesting) << id;
  }
  EXPECT_EQ(fleet.pool().stats().polls, 16u);
  EXPECT_GT(fleet.pool().stats().index_hits, 0u)
      << "appraisal must be served by the PolicyIndex, not the linear scan";
}

TEST(PoolFleetTest, IndexStatsCountEveryAppraisedEntryOnce) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 8;
  options.shards = 4;
  options.seed = 17;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // Three rounds, the first shipping every boot-time log in full, the
  // same binaries re-executed on every machine: every entry but each
  // log's boot_aggregate is appraised under the pushed, indexed revision.
  for (std::size_t r = 0; r < 3; ++r) {
    fleet.run_workload_round(r);
    fleet.pool().run_round();
  }
  ASSERT_TRUE(fleet.pool().alerts().empty());
  std::uint64_t entries = 0;
  for (std::size_t i = 0; i < options.agents; ++i) {
    entries += fleet.machine(i).ima().log().size();
  }
  const keylime::VerifierPool::Stats stats = fleet.pool().stats();
  EXPECT_EQ(stats.index_hits + stats.index_misses, entries - options.agents);
  EXPECT_GT(stats.index_hits, 0u);
  EXPECT_EQ(stats.cache_hits, 0u) << "no shard keeps a verdict cache";
  EXPECT_EQ(stats.cache_misses, 0u);

  const telemetry::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_total("cia_pool_index_hits_total") +
                snap.counter_total("cia_pool_index_misses_total"),
            static_cast<double>(entries - options.agents));
  for (const telemetry::MetricPoint& point : snap.points) {
    EXPECT_NE(point.name.rfind("cia_pool_appraisal_cache_", 0), 0u)
        << point.name;
  }
}

TEST(PoolFleetTest, ViolationFailsOnlyTheOffendingAgent) {
  PoolFleetOptions options;
  options.agents = 12;
  options.shards = 4;
  options.seed = 13;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  fleet.run_workload_round(0);
  fleet.exec_unknown(3);
  fleet.exec_unknown(7);
  fleet.pool().run_round();

  const std::set<std::string> bad = {fleet.agent_ids()[3], fleet.agent_ids()[7]};
  for (const std::string& id : fleet.agent_ids()) {
    const auto state = fleet.pool().state(id);
    ASSERT_TRUE(state.has_value()) << id;
    if (bad.count(id)) {
      EXPECT_EQ(*state, keylime::AgentState::kFailed) << id;
    } else {
      EXPECT_EQ(*state, keylime::AgentState::kAttesting) << id;
    }
  }
  std::set<std::string> alerted;
  for (const keylime::Alert& alert : fleet.pool().alerts()) {
    alerted.insert(alert.agent_id);
    EXPECT_EQ(alert.type, keylime::AlertType::kNotInPolicy);
  }
  EXPECT_EQ(alerted, bad);
}

TEST(PoolFleetTest, MergedAlertsAreDeterministicallyOrdered) {
  PoolFleetOptions options;
  options.agents = 10;
  options.shards = 3;
  options.seed = 17;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  for (std::size_t i = 0; i < options.agents; ++i) fleet.exec_unknown(i);
  fleet.pool().run_round();

  const auto alerts = fleet.pool().alerts();
  ASSERT_EQ(alerts.size(), options.agents);
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    const auto key = [](const keylime::Alert& a) {
      return std::tie(a.time, a.agent_id, a.log_index);
    };
    EXPECT_LE(key(alerts[i - 1]), key(alerts[i]))
        << "alerts() must merge shards into a deterministic order";
  }
}

// -------------------------------------------------- copy-on-write swaps

TEST(PoolPolicyTest, CowSwapAppliesAtTheNextBatchBoundary) {
  PoolFleetOptions options;
  options.agents = 8;
  options.shards = 4;
  options.seed = 23;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  EXPECT_EQ(fleet.pool().policy_revision(), 1u);

  fleet.run_workload_round(0);
  fleet.pool().run_round();
  ASSERT_TRUE(fleet.pool().alerts().empty());

  // A new tool rolls out fleet-wide. Under the old revision it would
  // alert; the updated policy must win because the swap is applied
  // before the round's batch starts.
  for (std::size_t i = 0; i < options.agents; ++i) {
    ASSERT_TRUE(fleet.machine(i)
                    .fs()
                    .create_file("/usr/bin/rolled-out", to_bytes("elf:new"), true)
                    .ok());
    ASSERT_TRUE(fleet.machine(i).exec("/usr/bin/rolled-out").ok());
  }
  keylime::RuntimePolicy updated = fleet.fleet_policy();
  updated.allow("/usr/bin/rolled-out", crypto::sha256(std::string("elf:new")));
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.pool().agent_ids(), updated,
                                 keylime::policy_store::policy_digest(updated),
                                 nullptr)
                  .ok());
  EXPECT_EQ(fleet.pool().policy_revision(), 2u);

  fleet.pool().run_round();
  EXPECT_TRUE(fleet.pool().alerts().empty())
      << "the round after the push must appraise under the new revision";
  EXPECT_GE(fleet.pool().stats().policy_swaps, options.agents)
      << "every agent's pending swap must have been drained";
}

TEST(PoolPolicyTest, SingleAgentPolicyRoutesToOwningShard) {
  PoolFleetOptions options;
  options.agents = 6;
  options.shards = 3;
  options.seed = 29;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // Agent 2 alone gets an extra allowance; only it may run the tool.
  fleet.exec_unknown(2);  // plants /usr/local/bin/dropper-0002
  keylime::RuntimePolicy special = fleet.fleet_policy();
  special.allow("/usr/local/bin/dropper-0002",
                crypto::sha256(std::string("elf:unknown:/usr/local/bin/dropper-0002")));
  ASSERT_TRUE(fleet.pool()
                  .push_revision({fleet.agent_ids()[2]}, special,
                                 keylime::policy_store::policy_digest(special),
                                 nullptr)
                  .ok());

  fleet.pool().run_round();
  EXPECT_EQ(*fleet.pool().state(fleet.agent_ids()[2]),
            keylime::AgentState::kAttesting);
  EXPECT_TRUE(fleet.pool().alerts().empty());
}

TEST(PoolPolicyTest, OnePushBindsEveryAgentToOneRevision) {
  PoolFleetOptions options;
  options.agents = 16;
  options.shards = 4;
  options.seed = 41;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  const keylime::RuntimePolicy policy = fleet.fleet_policy();
  ASSERT_TRUE(fleet.pool()
                  .push_revision(fleet.agent_ids(), policy,
                                 keylime::policy_store::policy_digest(policy),
                                 nullptr)
                  .ok());
  fleet.pool().run_round();

  // One policy copy for the whole fleet: every agent on every shard
  // reads the same RuntimePolicy object.
  std::set<const keylime::RuntimePolicy*> policies;
  std::set<std::size_t> shards;
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    const keylime::Verifier& v = fleet.pool().verifier(s);
    for (const std::string& id : v.agent_ids()) {
      policies.insert(v.policy(id));
      shards.insert(s);
    }
  }
  EXPECT_EQ(shards.size(), options.shards);
  ASSERT_EQ(policies.size(), 1u);
  EXPECT_EQ((*policies.begin())->entry_count(), policy.entry_count());
}

TEST(PoolPolicyTest, SupersededRevisionDiesWithItsLastAgent) {
  PoolFleetOptions options;
  options.agents = 12;
  options.shards = 3;
  options.seed = 43;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  keylime::VerifierPool& pool = fleet.pool();
  const keylime::RuntimePolicy first = fleet.fleet_policy();
  const std::string first_digest = keylime::policy_store::policy_digest(first);
  ASSERT_TRUE(
      pool.push_revision(fleet.agent_ids(), first, first_digest, nullptr).ok());
  pool.run_round();
  const std::string& id = fleet.agent_ids().front();
  const std::weak_ptr<const keylime::PolicyRevision> old =
      pool.verifier(pool.shard_for(id)).revision(id);
  ASSERT_FALSE(old.expired());

  // The next revision is a delta push: its index overlays the old one,
  // but nothing may keep the old revision (and its policy copy) alive.
  keylime::RuntimePolicy second = first;
  second.allow("/usr/bin/rolled-out", crypto::sha256(std::string("elf:new")));
  const auto delta = keylime::policy_store::diff(first, second);
  ASSERT_TRUE(pool.push_revision(fleet.agent_ids(), second,
                                 delta.target_digest, &delta)
                  .ok());
  EXPECT_FALSE(old.expired()) << "agents still hold it until the next round";
  pool.run_round();
  EXPECT_TRUE(old.expired())
      << "a revision must be freed with the last agent bound to it";
}

// A joiner is covered by a content-addressed push of the fleet policy,
// which is the pool's head: it binds the fleet's revision object and
// pays no index build.
TEST(PoolPolicyTest, JoinBindsTheFleetRevisionWithoutABuild) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 6;
  options.shards = 3;
  options.seed = 47;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  keylime::VerifierPool& pool = fleet.pool();
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  pool.run_round();
  const std::string& first = fleet.agent_ids().front();
  const auto fleet_revision = pool.verifier(pool.shard_for(first)).revision(first);
  ASSERT_NE(fleet_revision->index, nullptr);

  const std::uint64_t full0 = keylime::PolicyIndex::full_build_count();
  const std::uint64_t incr0 = keylime::PolicyIndex::incremental_build_count();
  std::vector<std::string> joined;
  for (int j = 0; j < 3; ++j) {
    auto id = fleet.join_agent();
    ASSERT_TRUE(id.ok()) << id.error().message;
    joined.push_back(id.value());
  }
  EXPECT_EQ(keylime::PolicyIndex::full_build_count() - full0, 0u);
  EXPECT_EQ(keylime::PolicyIndex::incremental_build_count() - incr0, 0u);
  EXPECT_EQ(pool.policy_revision(), 1u);

  fleet.run_workload_round(0);
  pool.run_round();
  for (const std::string& id : joined) {
    EXPECT_EQ(pool.verifier(pool.shard_for(id)).revision(id), fleet_revision)
        << id;
  }
  EXPECT_TRUE(pool.alerts().empty());
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "full"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "reused"}}),
            joined.size());
}

// The pool's head checks a pushed digest against the policy: an updated
// policy pushed under the head's digest would otherwise be "reused" as
// the head revision, and every agent would stay on the old policy while
// the caller believed the update installed.
TEST(PoolPolicyTest, PushRefusesADigestThatDoesNotNameThePolicy) {
  namespace ps = keylime::policy_store;
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 6;
  options.shards = 3;
  options.seed = 53;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  keylime::VerifierPool& pool = fleet.pool();
  const keylime::RuntimePolicy& base = fleet.fleet_policy();
  const std::string base_digest = ps::policy_digest(base);
  ASSERT_TRUE(pool.push_revision(fleet.agent_ids(), base, base_digest, nullptr)
                  .ok());
  pool.run_round();
  const std::string& first = fleet.agent_ids().front();
  const auto head = pool.verifier(pool.shard_for(first)).revision(first);

  keylime::RuntimePolicy updated = base;
  updated.allow("/usr/bin/updated", crypto::sha256(std::string("elf:new")));
  const std::string updated_digest = ps::policy_digest(updated);
  const ps::PolicyDelta forward = ps::diff(base, updated);
  const std::uint64_t full0 = keylime::PolicyIndex::full_build_count();
  const std::uint64_t incr0 = keylime::PolicyIndex::incremental_build_count();
  struct Push {
    const keylime::RuntimePolicy* policy;
    std::string digest;
    const ps::PolicyDelta* delta;
  };
  for (const Push& push :
       {Push{&updated, base_digest, nullptr},
        Push{&updated, base_digest, &forward},
        Push{&updated, crypto::digest_hex(crypto::sha256(std::string("x"))),
             nullptr},
        Push{&base, updated_digest, &forward}}) {
    const Status s = pool.push_revision(fleet.agent_ids(), *push.policy,
                                        push.digest, push.delta);
    ASSERT_FALSE(s.ok()) << "a digest that does not name the policy";
    EXPECT_EQ(s.error().code, Errc::kInvalidArgument);
  }
  pool.run_round();
  EXPECT_EQ(keylime::PolicyIndex::full_build_count() - full0, 0u);
  EXPECT_EQ(keylime::PolicyIndex::incremental_build_count() - incr0, 0u);
  EXPECT_EQ(pool.policy_revision(), 1u);
  for (const std::string& id : fleet.agent_ids()) {
    EXPECT_EQ(pool.verifier(pool.shard_for(id)).revision(id), head) << id;
  }
  EXPECT_EQ(metrics.counter_value("cia_policy_index_builds_total",
                                  {{"mode", "reused"}}),
            0u);

  // The head is still the base: its digest reuses it, and the update
  // under its own digest rebases from it.
  ASSERT_TRUE(pool.push_revision(fleet.agent_ids(), base, base_digest, nullptr)
                  .ok());
  EXPECT_EQ(pool.policy_revision(), 1u);
  ASSERT_TRUE(
      pool.push_revision(fleet.agent_ids(), updated, updated_digest, &forward)
          .ok());
  EXPECT_EQ(keylime::PolicyIndex::incremental_build_count() - incr0, 1u);
  EXPECT_EQ(keylime::PolicyIndex::full_build_count() - full0, 0u);
  pool.run_round();
  for (const std::string& id : fleet.agent_ids()) {
    EXPECT_EQ(pool.policy_revision_of(id), 2u) << id;
  }
}

// ---------------------------------------------------------- determinism

struct RunArtifacts {
  std::string prometheus;                       // full telemetry snapshot
  std::vector<std::string> audit_heads;         // per shard, hex-free compare
  std::map<std::string, keylime::AgentState> verdicts;
  std::vector<std::tuple<std::string, keylime::AlertType, std::string>> alerts;
};

RunArtifacts run_scenario(std::size_t shards, std::uint64_t seed,
                          bool with_faults) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = shards;
  options.seed = seed;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  EXPECT_TRUE(fleet.init_status().ok());
  EXPECT_TRUE(fleet.push_fleet_policy().ok());

  if (with_faults) {
    // Drops and tampering only: timeouts and latency would advance the
    // shard clocks by different amounts per partition, which is allowed
    // to change alert *timestamps* but we keep this scenario time-free
    // so even the telemetry comparison stays simple.
    netsim::FaultProfile chaos;
    chaos.drop_rate = 0.25;
    chaos.tamper_rate = 0.10;
    fleet.pool().set_fleet_faults(chaos);
  }

  fleet.run_workload_round(0);
  fleet.pool().run_round();
  fleet.exec_unknown(5);
  fleet.exec_unknown(13);
  fleet.run_workload_round(1);
  fleet.pool().run_round();

  RunArtifacts artifacts;
  artifacts.prometheus = telemetry::to_prometheus(metrics.snapshot());
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    artifacts.audit_heads.push_back(
        crypto::digest_hex(fleet.pool().verifier(s).audit().head()));
  }
  for (const std::string& id : fleet.agent_ids()) {
    artifacts.verdicts[id] = *fleet.pool().state(id);
  }
  for (const keylime::Alert& a : fleet.pool().alerts()) {
    artifacts.alerts.emplace_back(a.agent_id, a.type, a.path);
  }
  std::sort(artifacts.alerts.begin(), artifacts.alerts.end());
  return artifacts;
}

TEST(PoolDeterminismTest, SameSeedAndShardCountIsByteIdentical) {
  const RunArtifacts a = run_scenario(4, 31, /*with_faults=*/true);
  const RunArtifacts b = run_scenario(4, 31, /*with_faults=*/true);

  EXPECT_EQ(a.prometheus, b.prometheus)
      << "telemetry snapshot must be byte-identical for a fixed "
         "(seed, shard count)";
  EXPECT_EQ(a.audit_heads, b.audit_heads)
      << "every shard's audit chain must replay identically";
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.alerts, b.alerts);
}

TEST(PoolDeterminismTest, VerdictsInvariantToShardCount) {
  const RunArtifacts one = run_scenario(1, 37, /*with_faults=*/true);
  const RunArtifacts two = run_scenario(2, 37, /*with_faults=*/true);
  const RunArtifacts eight = run_scenario(8, 37, /*with_faults=*/true);

  // Re-partitioning the fleet must not change what any agent experiences:
  // shard networks share a seed and per-link fault streams key on the
  // agent address alone.
  EXPECT_EQ(one.verdicts, two.verdicts);
  EXPECT_EQ(one.verdicts, eight.verdicts);
  EXPECT_EQ(one.alerts, two.alerts);
  EXPECT_EQ(one.alerts, eight.alerts);
}

// ------------------------------------------------------ live resharding

using experiments::ChurnCampaignOptions;
using experiments::per_agent_chain_digests;
using experiments::run_churn_campaign;

/// What a resharding run leaves behind: the per-agent audit chain
/// digests and the fleet's merged alert stream, every field rendered —
/// policy_revision included, so an agent that lost its policy binding on
/// a move shows up as a diff against the run that never moved it.
struct ReshardArtifacts {
  std::map<std::string, std::string> chains;
  std::vector<std::string> alerts;
};

/// Drive a churn-free advance_to campaign with the given resize
/// schedule, then one round in which every machine runs an unknown
/// binary, so every agent — moved or not — raises one alert after the
/// last resize.
ReshardArtifacts resharding_run(
    std::size_t shards, std::uint64_t seed,
    std::vector<std::pair<std::size_t, std::size_t>> resize_at,
    PoolFleet** keep = nullptr) {
  static std::vector<std::unique_ptr<PoolFleet>> kept;
  PoolFleetOptions base;
  base.agents = 24;
  base.shards = shards;
  base.seed = seed;
  auto fleet = std::make_unique<PoolFleet>(base);
  EXPECT_TRUE(fleet->init_status().ok());
  EXPECT_TRUE(fleet->push_fleet_policy().ok());
  ChurnCampaignOptions campaign;
  campaign.rounds = 8;
  campaign.max_joins_per_round = 0;
  campaign.max_leaves_per_round = 0;
  campaign.max_reboots_per_round = 0;
  campaign.resize_at = std::move(resize_at);
  const auto report = run_churn_campaign(*fleet, campaign);
  EXPECT_TRUE(report.status.ok()) << report.status.error().message;
  for (std::size_t i = 0; i < fleet->agent_ids().size(); ++i) {
    fleet->exec_unknown(i);
  }
  fleet->pool().run_round();

  ReshardArtifacts artifacts;
  artifacts.chains = per_agent_chain_digests(fleet->pool());
  for (const keylime::Alert& a : fleet->pool().alerts()) {
    artifacts.alerts.push_back(strformat(
        "%lld %s %s %s %s %s %zu rev=%llu", static_cast<long long>(a.time),
        a.agent_id.c_str(), keylime::alert_type_name(a.type), a.path.c_str(),
        a.observed_hash_hex.c_str(), a.detail.c_str(), a.log_index,
        static_cast<unsigned long long>(a.policy_revision)));
  }
  EXPECT_EQ(artifacts.alerts.size(), fleet->agent_ids().size());
  if (keep) {
    *keep = fleet.get();
    kept.push_back(std::move(fleet));
  }
  return artifacts;
}

TEST(PoolReshardTest, MidCampaignResizeMatchesFinalShardCountRun) {
  // A grows 3 -> 6 shards mid-campaign; B runs at 6 shards throughout.
  // Every agent's audit sub-chain — verdicts, alert counts, quote
  // digests, linkage — must come out byte-identical: only the partition
  // changed, never what any agent experienced.
  PoolFleet* resized = nullptr;
  const auto a = resharding_run(3, 61, {{4, 6}}, &resized);
  const auto b = resharding_run(6, 61, {});
  ASSERT_EQ(a.chains.size(), 24u);
  EXPECT_EQ(a.chains, b.chains);
  EXPECT_EQ(a.alerts, b.alerts);

  // Only ring-moved agents pay a handoff. The moved set is exactly the
  // ids whose ring assignment differs between a 3-shard and a 6-shard
  // ring (the ring is seed-independent).
  keylime::VerifierPoolConfig three, six;
  three.shards = 3;
  six.shards = 6;
  keylime::VerifierPool ring3(1, three), ring6(1, six);
  std::uint64_t moved = 0;
  ASSERT_NE(resized, nullptr);
  for (const std::string& id : resized->agent_ids()) {
    const bool moves = ring3.shard_for(id) != ring6.shard_for(id);
    moved += moves ? 1 : 0;
    EXPECT_EQ(resized->pool().handoffs(id), moves ? 1u : 0u) << id;
  }
  EXPECT_GT(moved, 0u) << "a 3->6 resize that moves nobody pins nothing";
  const auto& stats = resized->pool().migration_stats();
  EXPECT_EQ(stats.resizes, 1u);
  EXPECT_EQ(stats.ok, moved) << "fault-free handoffs must all deliver";
  EXPECT_EQ(stats.fallback, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(resized->pool().active_shard_count(), 6u);
}

TEST(PoolReshardTest, ShrinkRetiresShardsWithoutDisturbingChains) {
  PoolFleet* shrunk = nullptr;
  const auto a = resharding_run(4, 83, {{3, 2}}, &shrunk);
  const auto b = resharding_run(2, 83, {});
  EXPECT_EQ(a.chains, b.chains);
  EXPECT_EQ(a.alerts, b.alerts);

  ASSERT_NE(shrunk, nullptr);
  EXPECT_EQ(shrunk->pool().active_shard_count(), 2u);
  // Retired shards stay allocated (their clocks/networks may be
  // referenced externally) but own nothing.
  EXPECT_EQ(shrunk->pool().shard_count(), 4u);
  EXPECT_TRUE(shrunk->pool().verifier(2).agent_ids().empty());
  EXPECT_TRUE(shrunk->pool().verifier(3).agent_ids().empty());
  // And the fleet keeps attesting on the surviving shards.
  EXPECT_EQ(shrunk->pool().run_round(), shrunk->agent_ids().size());
}

TEST(PoolReshardTest, ChurnCampaignVerdictsInvariantAcrossResizePoints) {
  // Full churn — joins, leaves, reboots — with two resize points versus
  // the identical campaign with none: zero drift, and the cross-shard
  // chain invariant holds over every shard ever allocated.
  auto run = [](std::vector<std::pair<std::size_t, std::size_t>> resizes,
                std::map<std::string, std::string>* digests) {
    PoolFleetOptions options;
    options.agents = 24;
    options.shards = 3;
    options.seed = 19;
    PoolFleet fleet(options);
    ASSERT_TRUE(fleet.init_status().ok());
    ASSERT_TRUE(fleet.push_fleet_policy().ok());
    ChurnCampaignOptions campaign;
    campaign.rounds = 10;
    campaign.resize_at = std::move(resizes);
    const auto report = run_churn_campaign(fleet, campaign);
    ASSERT_TRUE(report.status.ok()) << report.status.error().message;
    *digests = per_agent_chain_digests(fleet.pool());

    std::vector<const keylime::AuditLog*> logs;
    for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
      logs.push_back(&fleet.pool().verifier(s).audit());
    }
    const auto violations = testkit::check_cross_shard_audit_chains(logs);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " broken sub-chains, first: "
        << (violations.empty() ? "" : violations.front().detail);
  };

  std::map<std::string, std::string> with_resizes, baseline;
  run({{3, 7}, {7, 2}}, &with_resizes);
  run({}, &baseline);
  EXPECT_FALSE(with_resizes.empty());
  EXPECT_EQ(with_resizes, baseline);
}

TEST(PoolReshardTest, HandoffFaultsNeverWedgeOrForkAChain) {
  PoolFleetOptions options;
  options.agents = 32;
  options.shards = 3;
  options.seed = 29;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // Chaos on the handoff links only: drops, duplicates, timeouts, and
  // tampered acks. Every migration must either retry to completion or
  // fall back to a clean single-agent re-enrollment — never a wedged
  // shard, never a forked chain.
  netsim::FaultProfile chaos;
  chaos.drop_rate = 0.35;
  chaos.duplicate_rate = 0.25;
  chaos.timeout_rate = 0.15;
  chaos.tamper_rate = 0.25;
  fleet.pool().set_handoff_faults(chaos);

  for (std::uint64_t round = 0; round < 3; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  ASSERT_TRUE(fleet.pool().resize(8).ok());
  for (std::uint64_t round = 3; round < 6; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  ASSERT_TRUE(fleet.pool().resize(2).ok());

  const auto& stats = fleet.pool().migration_stats();
  EXPECT_EQ(stats.resizes, 2u);
  EXPECT_GT(stats.ok + stats.fallback + stats.failed, 0u);
  EXPECT_GT(stats.retries, 0u) << "chaos this heavy must cost retries";

  // No agent is lost or wedged: every one still resolves to a live
  // shard, still polls, and the union of every shard's records still
  // forms whole per-agent sub-chains.
  EXPECT_EQ(fleet.pool().run_round(), fleet.agent_ids().size());
  for (const std::string& id : fleet.agent_ids()) {
    ASSERT_TRUE(fleet.pool().state(id).has_value()) << id;
  }
  std::vector<const keylime::AuditLog*> logs;
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    logs.push_back(&fleet.pool().verifier(s).audit());
  }
  const auto violations = testkit::check_cross_shard_audit_chains(logs);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " broken sub-chains, first: "
      << (violations.empty() ? "" : violations.front().detail);
}

TEST(PoolReshardTest, ShardRestoresItsOwnCheckpointAfterShrinkAndGrow) {
  // A shrink-and-grow pair sends agents away and back, so a shard's log
  // holds sub-chains with gaps that live on other shards. Each shard must
  // still restore from its own checkpoint and keep attesting.
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = 3;
  options.seed = 61;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());
  std::uint64_t round = 0;
  const auto run_rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      fleet.run_workload_round(round++);
      ASSERT_EQ(fleet.pool().run_round(), fleet.agent_ids().size());
    }
  };
  run_rounds(2);
  ASSERT_TRUE(fleet.pool().resize(2).ok());
  run_rounds(2);
  ASSERT_TRUE(fleet.pool().resize(3).ok());
  run_rounds(2);

  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    keylime::Verifier& verifier = fleet.pool().verifier(s);
    const Status chain = keylime::verify_audit_chain(
        verifier.audit().records(), verifier.audit().public_key());
    EXPECT_TRUE(chain.ok())
        << "shard " << s << ": " << chain.error().to_string();
    const json::Value checkpoint = verifier.checkpoint();
    const Status restored = verifier.restore(checkpoint);
    ASSERT_TRUE(restored.ok())
        << "shard " << s << ": " << restored.error().to_string();
    EXPECT_EQ(verifier.checkpoint().dump(), checkpoint.dump());
  }
  run_rounds(1);
}

TEST(PoolReshardTest, CrossShardCheckerFlagsAForkedSubChain) {
  const auto key = [] {
    return crypto::derive_keypair(to_bytes("fork-seed"), "test");
  };
  keylime::AuditLog a(key()), b(key());
  // Two shards both extend agent "x" from the same point — the forked
  // history a botched handoff would create if fallback did not seed the
  // destination tail.
  a.append(0, "x", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q0")));
  b.append(60, "x", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q1")));
  const auto violations = testkit::check_cross_shard_audit_chains({&a, &b});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "cross_shard_chain");
  EXPECT_NE(violations[0].detail.find("forked"), std::string::npos)
      << violations[0].detail;

  // A legitimate continuation — the tail handed to the second log the
  // way a migration does — is clean.
  keylime::AuditLog c(key()), d(key());
  c.append(0, "y", keylime::AuditVerdict::kPassed, 0, 1,
           crypto::sha256(std::string("q0")));
  d.set_agent_tail("y", c.agent_tail("y"));
  d.append(60, "y", keylime::AuditVerdict::kFailed, 1, 1,
           crypto::sha256(std::string("q1")));
  EXPECT_TRUE(testkit::check_cross_shard_audit_chains({&c, &d}).empty());
}

/// The shard verifier currently holding `id`, or nullptr.
const keylime::Verifier* holder_of(const keylime::VerifierPool& pool,
                                   const std::string& id) {
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    if (pool.verifier(s).agent_address(id)) return &pool.verifier(s);
  }
  return nullptr;
}

/// ROADMAP's migration setup: 24 agents on 3 shards, seed 61, the fleet
/// policy pushed and one clean round run.
std::unique_ptr<PoolFleet> migration_fleet() {
  PoolFleetOptions options;
  options.agents = 24;
  options.shards = 3;
  options.seed = 61;
  auto fleet = std::make_unique<PoolFleet>(options);
  EXPECT_TRUE(fleet->init_status().ok());
  EXPECT_TRUE(fleet->push_fleet_policy().ok());
  fleet->run_workload_round(0);
  EXPECT_EQ(fleet->pool().run_round(), options.agents);
  EXPECT_TRUE(fleet->pool().alerts().empty());
  return fleet;
}

using RevisionMap =
    std::map<std::string, std::shared_ptr<const keylime::PolicyRevision>>;

RevisionMap revisions_of(const PoolFleet& fleet) {
  RevisionMap out;
  for (const std::string& id : fleet.agent_ids()) {
    const keylime::Verifier* v = holder_of(fleet.pool(), id);
    out[id] = v ? v->revision(id) : nullptr;
  }
  return out;
}

TEST(PoolReshardTest, HandoffKeepsTheRevisionObject) {
  const auto fleet = migration_fleet();
  keylime::VerifierPool& pool = fleet->pool();
  const RevisionMap before = revisions_of(*fleet);

  ASSERT_TRUE(pool.resize(6).ok());
  std::size_t moved = 0;
  for (const std::string& id : fleet->agent_ids()) {
    if (pool.handoffs(id) == 0) continue;
    ++moved;
    const keylime::Verifier* v = holder_of(pool, id);
    ASSERT_NE(v, nullptr) << id;
    EXPECT_EQ(v->revision(id), before.at(id))
        << id << " must hold the very revision object it held on its source";
    EXPECT_EQ(pool.policy_revision_of(id), before.at(id)->revision()) << id;
    EXPECT_NE(pool.policy_revision_of(id), 0u) << id;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(pool.migration_stats().ok, moved);
}

TEST(PoolReshardTest, FallbackReenrolmentKeepsTheRevision) {
  const auto fleet = migration_fleet();
  keylime::VerifierPool& pool = fleet->pool();
  const RevisionMap before = revisions_of(*fleet);

  // Every handoff is lost: each moved agent is re-enrolled afresh on
  // its destination, and must still appraise under its revision.
  netsim::FaultProfile lossy;
  lossy.drop_rate = 1.0;
  pool.set_handoff_faults(lossy);
  ASSERT_TRUE(pool.resize(2).ok());
  const auto& stats = pool.migration_stats();
  EXPECT_GT(stats.fallback, 0u);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_EQ(stats.failed, 0u);
  for (const std::string& id : fleet->agent_ids()) {
    if (pool.handoffs(id) == 0) continue;
    const keylime::Verifier* v = holder_of(pool, id);
    ASSERT_NE(v, nullptr) << id;
    EXPECT_EQ(v->revision(id), before.at(id)) << id;
    ASSERT_NE(v->policy(id), nullptr) << id;
    EXPECT_GT(v->policy(id)->entry_count(), 0u) << id;
  }

  // The re-enrolled agents replay their whole log from offset zero; a
  // clean fleet must stay alert-free.
  fleet->run_workload_round(1);
  EXPECT_EQ(pool.run_round(), fleet->agent_ids().size());
  EXPECT_TRUE(pool.alerts().empty())
      << pool.alerts().size() << " alerts on a clean fleet, first: "
      << pool.alerts().front().agent_id << " "
      << keylime::alert_type_name(pool.alerts().front().type);
}

TEST(PoolReshardTest, PushQueuedBeforeResizeReachesMovedAgents) {
  const auto fleet = migration_fleet();
  keylime::VerifierPool& pool = fleet->pool();

  // A second revision allows a new tool, pushed to every agent but not
  // yet applied (no round runs) when the ring grows.
  const std::string tool = "/usr/bin/rolled-out";
  keylime::RuntimePolicy second = fleet->fleet_policy();
  second.allow(tool, crypto::sha256(std::string("elf:new")));
  ASSERT_TRUE(pool.push_revision(fleet->agent_ids(), second,
                                 keylime::policy_store::policy_digest(second),
                                 nullptr)
                  .ok());
  const std::uint64_t swaps_before = pool.stats().policy_swaps;
  ASSERT_TRUE(pool.resize(6).ok());
  EXPECT_EQ(pool.stats().policy_swaps - swaps_before,
            fleet->agent_ids().size())
      << "resize must bind every queued push before it moves anyone";

  const auto& first = fleet->agent_ids().front();
  const auto head = holder_of(pool, first)->revision(first);
  ASSERT_EQ(head->revision(), pool.policy_revision());
  std::size_t moved = 0;
  for (const std::string& id : fleet->agent_ids()) {
    moved += pool.handoffs(id);
    EXPECT_EQ(holder_of(pool, id)->revision(id), head) << id;
    EXPECT_EQ(pool.policy_revision_of(id), pool.policy_revision()) << id;
  }
  EXPECT_GT(moved, 0u);

  for (std::size_t i = 0; i < fleet->agent_ids().size(); ++i) {
    ASSERT_TRUE(fleet->machine(i)
                    .fs()
                    .create_file(tool, to_bytes("elf:new"), true)
                    .ok());
    ASSERT_TRUE(fleet->machine(i).exec(tool).ok());
  }
  EXPECT_EQ(pool.run_round(), fleet->agent_ids().size());
  EXPECT_TRUE(pool.alerts().empty())
      << "a moved agent appraised under the superseded revision";
}

TEST(PoolReshardTest, ResizeLeavesCheckpointBytesUnchanged) {
  // Sharing revisions must not change a byte of what a shard persists or
  // a handoff carries. A checkpoint still embeds each agent's policy JSON
  // (its digest was recorded on the per-agent-copy build); a slice is
  // agent state only, so its digest was re-recorded when slices stopped
  // embedding the policy.
  const auto fleet = migration_fleet();
  keylime::VerifierPool& pool = fleet->pool();
  fleet->run_workload_round(1);
  pool.run_round();
  ASSERT_TRUE(pool.resize(6).ok());
  fleet->run_workload_round(2);
  pool.run_round();

  std::string moved;
  for (const std::string& id : fleet->agent_ids()) {
    if (pool.handoffs(id) > 0) {
      moved = id;
      break;
    }
  }
  ASSERT_FALSE(moved.empty());
  const keylime::Verifier* dst = holder_of(pool, moved);
  const auto slice = dst->export_agent(moved);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(slice.value().dump())),
            "28a1da0940799e43e33a57653fc78cc0f88a0e1649984a3148b33ad18aeeba32")
      << moved;
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(dst->checkpoint().dump())),
            "b0daa9fcbc9cfa2b79dca461a8d2dfbca6bf8f4bd5de76c5267b6312bdb4e6e3");
}

// --------------------------------------------------------- policy index

TEST(PolicyIndexTest, AgreesWithLinearScanOnFixedCases) {
  keylime::RuntimePolicy policy;
  policy.allow("/usr/bin/ls", std::string(64, 'a'));
  policy.allow("/var/cache/app/blob", std::string(64, 'b'));
  policy.exclude("/var/cache/*");   // compiled: directory prefix
  policy.exclude("*.log");          // general: suffix glob
  policy.exclude("*/scratch/*");    // general: infix glob
  const auto index = keylime::PolicyIndex::build(policy, 1);

  // The digest whose hex is 64 copies of one byte's two digits.
  const auto filled = [](std::uint8_t byte) {
    crypto::Digest d;
    d.fill(byte);
    return d;
  };
  const std::vector<std::pair<std::string, crypto::Digest>> probes = {
      {"/usr/bin/ls", filled(0xaa)},
      {"/usr/bin/ls", filled(0x99)},
      {"/var/cache/app/blob", filled(0xbb)},   // excluded wins
      {"/var/cache/other/file", filled(0xcc)},
      {"/opt/app/daemon.log", filled(0xdd)},
      {"/opt/scratch/tool", filled(0xee)},     // no infix match
      {"/opt/x/scratch/tool", filled(0xee)},
      {"/usr/bin/unknown", filled(0xff)},
  };
  for (const auto& [path, hash] : probes) {
    EXPECT_EQ(index->check(path, hash), policy.check(path, hash)) << path;
  }
}

TEST(PolicyIndexTest, DirPrefixGlobsCompileAndMatchOnBoundaries) {
  keylime::RuntimePolicy policy;
  policy.exclude("/var/cache/*");
  const auto index = keylime::PolicyIndex::build(policy, 1);
  EXPECT_TRUE(index->excluded_by_scan("/var/cache/x"));
  EXPECT_TRUE(index->excluded_by_scan("/var/cache/deep/nested/x"));
  EXPECT_FALSE(index->excluded_by_scan("/var/cachemate/x"))
      << "a directory prefix must only match at a '/' boundary";
  EXPECT_FALSE(index->excluded_by_scan("/var/cache"))
      << "glob '/var/cache/*' does not match the bare directory itself";
}

TEST(PolicyIndexTest, ReportsHitsAndMisses) {
  keylime::RuntimePolicy policy;
  policy.allow("/usr/bin/ls", std::string(64, 'a'));
  const auto index = keylime::PolicyIndex::build(policy, 3);
  EXPECT_EQ(index->revision(), 3u);

  crypto::Digest hash;
  hash.fill(0xaa);  // renders as the allowed std::string(64, 'a')
  bool known = false;
  index->check("/usr/bin/ls", hash, &known);
  EXPECT_TRUE(known);
  index->check("/usr/bin/other", hash, &known);
  EXPECT_FALSE(known);
}

}  // namespace
}  // namespace cia
