// Stress test for the sharded verifier pool: a 200-agent fleet across
// 8 shards, driven for several rounds under a chaotic fault profile
// while another thread keeps pushing policy revisions into the pool's
// copy-on-write mailboxes.
//
// The point is the threading contract, so this suite is wired into
// tools/run_sanitized_tests.sh's thread mode: under TSan it proves that
// shard workers never share simulation state and that the only
// cross-thread traffic (policy mailboxes, the MetricsRegistry) is
// correctly synchronized.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/notifier.hpp"
#include "keylime/policy_store/store.hpp"
#include "telemetry/export.hpp"

namespace cia {
namespace {

using experiments::PoolFleet;
using experiments::PoolFleetOptions;

TEST(PoolStressTest, ChaoticFleetWithConcurrentPolicyPushes) {
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 200;
  options.shards = 8;
  options.seed = 1234;
  options.binaries_per_machine = 12;
  options.execs_per_round = 3;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  // The chaos-engine profile from PR 1: drops, tampering, duplicates,
  // and timeouts all at once, absorbed by each shard's retrying
  // transport where possible.
  netsim::FaultProfile chaos;
  chaos.drop_rate = 0.10;
  chaos.tamper_rate = 0.05;
  chaos.duplicate_rate = 0.05;
  chaos.timeout_rate = 0.02;
  chaos.latency = 1;
  fleet.pool().set_fleet_faults(chaos);

  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kPushes = 5;

  // A tenant keeps pushing revisions while rounds are in flight:
  // push_revision must be safe against the shard workers (mailbox mutex
  // + COW revision swap), which is exactly what TSan checks. Each push
  // adds one line, so every push builds a new revision and swaps it in
  // mid-round; a same-content push would reuse the head instead.
  std::atomic<bool> done{false};
  keylime::RuntimePolicy policy = fleet.fleet_policy();
  std::thread pusher([&] {
    for (std::size_t p = 0; p < kPushes; ++p) {
      const std::string path = "/opt/pushed/tool-" + std::to_string(p);
      policy.allow(path, crypto::sha256(path));
      const std::string digest = keylime::policy_store::policy_digest(policy);
      ASSERT_TRUE(fleet.pool()
                      .push_revision(fleet.pool().agent_ids(), policy, digest,
                                     nullptr)
                      .ok());
      std::this_thread::yield();
    }
    done.store(true);
  });

  std::size_t polls = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    fleet.run_workload_round(round);
    polls += fleet.pool().run_round();
  }
  pusher.join();
  ASSERT_TRUE(done.load());
  // Drain any pushes that arrived after the last round's batch started.
  fleet.pool().run_round();

  EXPECT_EQ(polls, options.agents * kRounds);
  EXPECT_EQ(fleet.pool().policy_revision(), 1u + kPushes);
  EXPECT_GE(fleet.pool().stats().policy_swaps, options.agents)
      << "at least the initial revision must have reached every agent";

  // Chaos may fail agents (tampered quotes that exhaust the retry
  // budget surface as alerts) but every agent must end in a coherent
  // state and every alert must belong to an enrolled agent.
  const std::set<std::string> enrolled(fleet.agent_ids().begin(),
                                       fleet.agent_ids().end());
  for (const std::string& id : fleet.agent_ids()) {
    const auto state = fleet.pool().state(id);
    ASSERT_TRUE(state.has_value()) << id;
    EXPECT_TRUE(*state == keylime::AgentState::kAttesting ||
                *state == keylime::AgentState::kFailed)
        << id;
  }
  for (const keylime::Alert& alert : fleet.pool().alerts()) {
    EXPECT_EQ(enrolled.count(alert.agent_id), 1u) << alert.agent_id;
  }

  const auto stats = fleet.pool().stats();
  EXPECT_EQ(stats.polls, options.agents * (kRounds + 1));
  EXPECT_GE(stats.batches, options.shards * kRounds);
  EXPECT_GT(stats.index_hits + stats.index_misses, 0u);

  // The shared registry survived concurrent writers from 8 shard
  // workers; a snapshot must serialize cleanly.
  EXPECT_FALSE(telemetry::to_prometheus(metrics.snapshot()).empty());
}

TEST(PoolStressTest, RepartitionedChaosFleetKeepsVerdicts) {
  // A smaller chaotic fleet run under two different partitions: the
  // per-agent outcome must be identical (drop/tamper only, so no clock
  // skew between layouts).
  auto run = [](std::size_t shards) {
    PoolFleetOptions options;
    options.agents = 48;
    options.shards = shards;
    options.seed = 77;
    options.binaries_per_machine = 8;
    options.execs_per_round = 2;
    PoolFleet fleet(options);
    EXPECT_TRUE(fleet.init_status().ok());
    EXPECT_TRUE(fleet.push_fleet_policy().ok());
    netsim::FaultProfile chaos;
    chaos.drop_rate = 0.30;
    chaos.tamper_rate = 0.15;
    fleet.pool().set_fleet_faults(chaos);
    for (std::size_t round = 0; round < 2; ++round) {
      fleet.run_workload_round(round);
      fleet.pool().run_round();
    }
    std::map<std::string, keylime::AgentState> verdicts;
    for (const std::string& id : fleet.agent_ids()) {
      verdicts[id] = *fleet.pool().state(id);
    }
    return verdicts;
  };

  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(two, eight);
}

TEST(PoolStressTest, RevocationFanOutDrainsAtRoundBoundaries) {
  // CollectingNotifier (and any real webhook client) is not thread-safe,
  // and shard workers raise FAILED transitions concurrently. The pool
  // therefore defers every revocation and fans out on the driver thread
  // at the round boundary — one notifier instance shared by all shard
  // verifiers plus a pool-level subscriber must both survive a chaotic
  // multi-shard run under TSan, and see the same events.
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 150;
  options.shards = 6;
  options.seed = 99;
  options.binaries_per_machine = 10;
  options.execs_per_round = 3;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  keylime::CollectingNotifier shard_side;  // one instance, every shard
  for (std::size_t s = 0; s < fleet.pool().shard_count(); ++s) {
    fleet.pool().verifier(s).add_notifier(&shard_side);
  }
  keylime::CollectingNotifier pool_side;
  fleet.pool().add_notifier(&pool_side);
  keylime::alert_pipeline::AlertPipeline pipeline;
  pipeline.use_telemetry(&metrics);
  fleet.pool().use_alert_pipeline(&pipeline);

  // Guaranteed violations on a slice of the fleet, plus tamper chaos
  // that fails whoever exhausts the retry budget.
  for (std::size_t i = 0; i < options.agents; i += 10) fleet.exec_unknown(i);
  netsim::FaultProfile chaos;
  chaos.drop_rate = 0.05;
  chaos.tamper_rate = 0.20;
  fleet.pool().set_fleet_faults(chaos);

  std::atomic<bool> done{false};
  std::thread pusher([&] {
    for (std::size_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(fleet.push_fleet_policy().ok());
      std::this_thread::yield();
    }
    done.store(true);
  });
  for (std::size_t round = 0; round < 3; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
  }
  pusher.join();
  ASSERT_TRUE(done.load());
  fleet.pool().run_round();

  // The planted droppers alone guarantee transitions.
  ASSERT_GE(pool_side.events().size(), options.agents / 10);

  // Exactly one revocation per FAILED transition, delivered to both
  // subscription levels: same multiset, and one event per failed agent.
  auto sorted = [](std::vector<keylime::RevocationEvent> events) {
    std::sort(events.begin(), events.end(),
              [](const keylime::RevocationEvent& a,
                 const keylime::RevocationEvent& b) {
                return std::tie(a.time, a.agent_id, a.reason) <
                       std::tie(b.time, b.agent_id, b.reason);
              });
    return events;
  };
  const auto pool_events = sorted(pool_side.events());
  const auto shard_events = sorted(shard_side.events());
  ASSERT_EQ(pool_events.size(), shard_events.size());
  for (std::size_t i = 0; i < pool_events.size(); ++i) {
    EXPECT_EQ(pool_events[i].agent_id, shard_events[i].agent_id);
    EXPECT_EQ(pool_events[i].time, shard_events[i].time);
    EXPECT_EQ(pool_events[i].reason, shard_events[i].reason);
  }
  std::set<std::string> revoked;
  for (const keylime::RevocationEvent& event : pool_events) {
    EXPECT_TRUE(revoked.insert(event.agent_id).second)
        << event.agent_id << " revoked twice without recovering";
    EXPECT_EQ(fleet.pool().state(event.agent_id), keylime::AgentState::kFailed)
        << event.agent_id;
  }
  std::size_t failed = 0;
  for (const std::string& id : fleet.agent_ids()) {
    if (fleet.pool().state(id) == keylime::AgentState::kFailed) ++failed;
  }
  EXPECT_EQ(pool_events.size(), failed);

  // The pipeline rode the same boundaries: every alert the verifiers
  // raised was folded (staleness observations come on top).
  EXPECT_GE(pipeline.stats().raw, fleet.pool().alerts().size());
  EXPECT_GT(pipeline.snapshot().incidents.size(), 0u);
  EXPECT_FALSE(telemetry::to_prometheus(metrics.snapshot()).empty());
}

TEST(PoolStressTest, ResizeDrainsInFlightRoundsBeforeTouchingTopology) {
  // resize() takes the same drive mutex as run_round(), so a resize
  // requested while shard workers are mid-round must wait for the round
  // boundary before it rebuilds the ring or migrates anyone. Under TSan
  // this pins the drain: a resize that raced the workers would tear the
  // shard vector out from under them.
  telemetry::MetricsRegistry metrics;
  PoolFleetOptions options;
  options.agents = 120;
  options.shards = 4;
  options.seed = 4321;
  options.binaries_per_machine = 10;
  options.execs_per_round = 3;
  options.metrics = &metrics;
  PoolFleet fleet(options);
  ASSERT_TRUE(fleet.init_status().ok());
  ASSERT_TRUE(fleet.push_fleet_policy().ok());

  netsim::FaultProfile chaos;
  chaos.drop_rate = 0.10;
  chaos.tamper_rate = 0.05;
  fleet.pool().set_fleet_faults(chaos);

  // One thread keeps driving rounds and pushing policies; another keeps
  // bouncing the shard count. Every resize must land on a quiesced pool.
  std::atomic<bool> done{false};
  std::thread resizer([&] {
    for (std::size_t n : {7u, 3u, 8u, 2u}) {
      ASSERT_TRUE(fleet.pool().resize(n).ok());
      std::this_thread::yield();
    }
    done.store(true);
  });
  for (std::size_t round = 0; round < 3; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().run_round();
    ASSERT_TRUE(fleet.push_fleet_policy().ok());
  }
  resizer.join();
  ASSERT_TRUE(done.load());

  EXPECT_EQ(fleet.pool().active_shard_count(), 2u);
  EXPECT_EQ(fleet.pool().migration_stats().resizes, 4u);
  EXPECT_EQ(fleet.pool().migration_stats().failed, 0u)
      << "fault-free handoff links must never lose an agent";
  // Nobody was lost in a mid-round topology change: every agent still
  // resolves and the next round polls the full fleet.
  for (const std::string& id : fleet.agent_ids()) {
    ASSERT_TRUE(fleet.pool().state(id).has_value()) << id;
  }
  EXPECT_EQ(fleet.pool().run_round(), fleet.agent_ids().size());
  EXPECT_FALSE(telemetry::to_prometheus(metrics.snapshot()).empty());
}

}  // namespace
}  // namespace cia
