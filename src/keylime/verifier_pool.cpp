#include "keylime/verifier_pool.hpp"

#include <algorithm>
#include <thread>

#include "common/log.hpp"
#include "keylime/policy_store/store.hpp"

namespace cia::keylime {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// murmur3's 64-bit finalizer. FNV-1a alone is unusable as a ring hash:
/// ids that differ only in trailing characters ("agent-0001",
/// "agent-0002", ...) hash within ~2^40 of each other — one multiply by
/// the FNV prime never reaches the high bits — so an entire fleet of
/// sequentially named agents collapses into a single ring gap and one
/// shard owns everything. fmix64 avalanches every input bit across the
/// word.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t ring_hash(const std::string& s) { return fmix64(fnv1a(s)); }

std::string handoff_address(std::size_t shard) {
  return "shard:" + std::to_string(shard);
}

/// Virtual points per shard on the consistent-hash ring; more points
/// smooth the partition at the cost of a larger ring.
constexpr std::size_t kRingReplicas = 64;

/// Handoff delivery attempts per migrated agent before the migration
/// falls back to clean re-enrollment on the destination shard.
constexpr std::size_t kMigrationAttempts = 3;

/// Per-shard verifier config: unless the caller pinned one, every shard
/// gets the SAME nonce seed (derived from the pool seed alone). Nonce
/// streams are per-agent counters over this seed, so an agent's quote
/// digests — and with them its audit sub-chain — are identical no matter
/// which shard polls it or how often it migrates.
VerifierConfig shard_verifier_config(const VerifierPoolConfig& config,
                                     std::uint64_t pool_seed) {
  VerifierConfig v = config.verifier;
  if (!v.nonce_seed) v.nonce_seed = pool_seed ^ 0x90ceULL;
  // raise() runs on shard worker threads; notifiers must only ever be
  // invoked from the driver thread, so every shard queues its events
  // for the pool's round-boundary drain.
  v.defer_revocations = true;
  return v;
}

}  // namespace

VerifierPool::Shard::Shard(std::uint64_t pool_seed, std::size_t shard_index,
                           const VerifierPoolConfig& config)
    : index(shard_index),
      clock(),
      // Every shard network uses the SAME seed: per-link fault streams
      // derive from (network seed ^ fnv1a(address)), so the faults an
      // agent experiences depend only on the pool seed and its own
      // address — never on which shard it landed on. This is the
      // invariant the cross-shard-count determinism tests pin down.
      network(&clock, pool_seed ^ 0xf1ee7ULL),
      registrar(&network, &clock, pool_seed ^ 1),
      verifier(&network, &clock,
               pool_seed ^ 2 ^ (0x9e3779b97f4a7c15ULL * (shard_index + 1)),
               shard_verifier_config(config, pool_seed)),
      transport(config.retrying_transport
                    ? std::make_unique<netsim::RetryingTransport>(
                          &network, &clock,
                          pool_seed ^ 3 ^ (0xbf58476d1ce4e5b9ULL *
                                           (shard_index + 1)))
                    : nullptr),
      scheduler(&verifier, &clock, config.scheduler) {
  if (transport) verifier.use_transport(transport.get());
}

VerifierPool::VerifierPool(std::uint64_t seed, VerifierPoolConfig config)
    : seed_(seed), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  handoff_net_ =
      std::make_unique<netsim::SimNetwork>(&handoff_clock_, seed_ ^ 0xda7aULL);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(seed_, s, config_));
    ports_.push_back(std::make_unique<MigrationPort>(this, s));
    handoff_net_->attach(handoff_address(s), ports_.back().get());
  }
  active_shards_ = config_.shards;
  rebuild_ring_locked(active_shards_);
}

VerifierPool::~VerifierPool() = default;

void VerifierPool::rebuild_ring_locked(std::size_t active) {
  ring_.clear();
  ring_.reserve(active * kRingReplicas);
  for (std::size_t s = 0; s < active; ++s) {
    for (std::size_t r = 0; r < kRingReplicas; ++r) {
      const std::string point =
          "shard-" + std::to_string(s) + "-" + std::to_string(r);
      ring_.emplace_back(ring_hash(point), static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t VerifierPool::shard_for(const std::string& agent_id) const {
  const std::uint64_t h = ring_hash(agent_id);
  std::lock_guard<std::mutex> lock(ring_mu_);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& point, std::uint64_t key) { return point.first < key; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::size_t VerifierPool::owner_of(const std::string& agent_id) const {
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    auto it = owners_.find(agent_id);
    if (it != owners_.end()) return it->second;
  }
  return shard_for(agent_id);
}

VerifierPool::Shard* VerifierPool::shard_ptr(std::size_t shard) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return shards_[shard].get();
}

netsim::SimNetwork& VerifierPool::network(std::size_t shard) {
  return shards_.at(shard)->network;
}

SimClock& VerifierPool::clock(std::size_t shard) {
  return shards_.at(shard)->clock;
}

Verifier& VerifierPool::verifier(std::size_t shard) {
  return shards_.at(shard)->verifier;
}

const Verifier& VerifierPool::verifier(std::size_t shard) const {
  return shards_.at(shard)->verifier;
}

const AttestationScheduler& VerifierPool::scheduler(std::size_t shard) const {
  return shards_.at(shard)->scheduler;
}

void VerifierPool::trust_manufacturer(const crypto::PublicKey& ca_key) {
  trusted_cas_.push_back(ca_key);  // replayed onto shards built by resize()
  for (auto& shard : shards_) shard->registrar.trust_manufacturer(ca_key);
}

Status VerifierPool::enroll(const std::string& agent_id,
                            const std::string& address) {
  const std::size_t s = shard_for(agent_id);
  Shard& shard = *shard_ptr(s);
  if (Status st = shard.verifier.add_agent(agent_id, address); !st.ok()) {
    return st;
  }
  shard.scheduler.enroll(agent_id);
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    owners_[agent_id] = s;
  }
  if (metrics_) {
    metrics_
        ->gauge("cia_pool_agents", {{"shard", std::to_string(s)}})
        .set(static_cast<double>(shard.verifier.agent_ids().size()));
  }
  return Status::ok_status();
}

void VerifierPool::enqueue(
    const std::vector<std::string>& agent_ids,
    const std::shared_ptr<const PolicyRevision>& revision) {
  for (const std::string& id : agent_ids) {
    Shard& shard = *shard_ptr(owner_of(id));
    std::lock_guard<std::mutex> lock(shard.mailbox_mu);
    shard.mailbox.push_back({id, revision});
  }
}

Status VerifierPool::push_revision(const std::vector<std::string>& agent_ids,
                                   const RuntimePolicy& policy,
                                   const std::string& digest,
                                   const policy_store::PolicyDelta* delta) {
  std::unique_lock<std::mutex> lock(revision_mu_);
  auto installed = head_.install(policy, digest, delta);
  lock.unlock();
  if (!installed.ok()) return installed.error();
  if (metrics_) {
    const char* mode = "full";
    switch (installed.value().build) {
      case PolicyHead::Build::kReused: mode = "reused"; break;
      case PolicyHead::Build::kIncremental: mode = "incremental"; break;
      case PolicyHead::Build::kFull: break;
    }
    metrics_->counter("cia_policy_index_builds_total", {{"mode", mode}}).inc();
    if (delta != nullptr) {
      metrics_->counter("cia_policy_delta_entries_total", {})
          .inc(delta->entry_count());
    }
  }
  enqueue(agent_ids, installed.value().revision);
  return Status::ok_status();
}

std::uint64_t VerifierPool::policy_revision() const {
  std::lock_guard<std::mutex> lock(revision_mu_);
  return head_.revisions();
}

std::uint64_t VerifierPool::policy_revision_of(
    const std::string& agent_id) const {
  const std::size_t s = owner_of(agent_id);
  const Verifier* v;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    v = &shards_[s]->verifier;
  }
  return v->policy_revision_of(agent_id);
}

void VerifierPool::set_fleet_faults(const netsim::FaultProfile& faults) {
  fleet_faults_ = faults;
  for (auto& shard : shards_) shard->network.set_faults(faults);
}

void VerifierPool::set_fleet_schedule(const netsim::FaultSchedule& schedule) {
  fleet_schedule_ = schedule;
  for (auto& shard : shards_) shard->network.set_global_schedule(schedule);
}

void VerifierPool::apply_pending(Shard& shard) {
  std::vector<PendingPolicy> pending;
  {
    std::lock_guard<std::mutex> lock(shard.mailbox_mu);
    pending.swap(shard.mailbox);
  }
  for (PendingPolicy& p : pending) {
    // The swap itself is copy-on-write: an appraisal that already
    // snapshotted the old revision keeps it alive through its shared_ptr.
    Status st = shard.verifier.set_revision(p.agent_id, std::move(p.revision));
    if (!st.ok()) {
      CIA_LOG_WARN("pool", "policy swap for " + p.agent_id +
                               " failed: " + st.error().message);
      continue;
    }
    ++shard.policy_swaps;
  }
}

void VerifierPool::record_batch(Shard& shard, std::size_t batch_size,
                                SimTime started) {
  ++shard.batches;
  if (!metrics_) return;
  const telemetry::Labels labels{{"shard", std::to_string(shard.index)}};
  metrics_
      ->histogram("cia_pool_batch_size", labels, telemetry::count_buckets())
      .observe(static_cast<double>(batch_size));
  metrics_
      ->histogram("cia_pool_round_latency_seconds", labels,
                  telemetry::latency_seconds_buckets())
      .observe(static_cast<double>(shard.clock.now() - started));
  metrics_->counter("cia_pool_polls_total", labels).inc(batch_size);
  metrics_->counter("cia_pool_batches_total", labels).inc();
  // Index lookup tallies accumulate inside the shard verifier; export
  // the delta since the last batch so the pool counters stay monotonic.
  const Verifier::IndexStats& stats = shard.verifier.index_stats();
  if (stats.hits > shard.exported_hits) {
    metrics_->counter("cia_pool_index_hits_total", labels)
        .inc(stats.hits - shard.exported_hits);
    shard.exported_hits = stats.hits;
  }
  if (stats.misses > shard.exported_misses) {
    metrics_->counter("cia_pool_index_misses_total", labels)
        .inc(stats.misses - shard.exported_misses);
    shard.exported_misses = stats.misses;
  }
}

void VerifierPool::parallel_shards(const std::function<void(Shard&)>& body) {
  // One worker per shard, joined before returning: the join is the
  // ownership handoff that lets the driver thread inspect shard state
  // between rounds without synchronization.
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (auto& shard : shards_) {
    workers.emplace_back([&body, &shard] { body(*shard); });
  }
  for (std::thread& w : workers) w.join();
}

std::size_t VerifierPool::advance_to(SimTime t) {
  // Excludes resize(): topology only changes at round boundaries, never
  // while shard workers are in flight.
  std::lock_guard<std::mutex> drive(drive_mu_);
  std::size_t before = 0;
  for (auto& shard : shards_) before += shard->polls;
  parallel_shards([this, t](Shard& shard) {
    while (true) {
      const SimTime due = shard.scheduler.next_due();
      if (due > t) break;  // nothing left before the horizon
      shard.clock.advance_to(due);
      apply_pending(shard);  // batch boundary: swap in pending policies
      const SimTime started = shard.clock.now();
      const std::size_t polled = shard.scheduler.tick();
      shard.polls += polled;
      if (polled > 0) record_batch(shard, polled, started);
    }
    shard.clock.advance_to(t);
    stage_alerts(shard);  // compact this round's raw alerts, still owner
  });
  drain_round_boundary_locked();
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->polls;
  if (metrics_) {
    // The fleet health gauges are unlabeled: published here, after the
    // join, as sums over the shards, so no worker races its siblings.
    std::size_t healthy = 0;
    std::size_t backing_off = 0;
    for (const auto& shard : shards_) {
      healthy += shard->scheduler.healthy_count();
      backing_off += shard->scheduler.backing_off_count();
    }
    AttestationScheduler::publish_health(*metrics_, healthy, backing_off);
  }
  return total - before;
}

std::size_t VerifierPool::run_round() {
  std::lock_guard<std::mutex> drive(drive_mu_);
  std::size_t before = 0;
  for (auto& shard : shards_) before += shard->polls;
  // Bind queued pushes here, on the driver, before the workers start. The
  // swap that unbinds a superseded revision frees it, so that O(policy)
  // release runs once on the driver, not inside whichever shard worker
  // drops the last reference while its siblings poll.
  for (auto& shard : shards_) apply_pending(*shard);
  parallel_shards([this](Shard& shard) {
    const SimTime started = shard.clock.now();
    const auto rounds = shard.verifier.attest_all();
    shard.polls += rounds.size();
    if (!rounds.empty()) record_batch(shard, rounds.size(), started);
    stage_alerts(shard);  // compact this round's raw alerts, still owner
  });
  drain_round_boundary_locked();
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->polls;
  return total - before;
}

void VerifierPool::stage_alerts(Shard& shard) {
  if (!pipeline_) return;
  const std::vector<Alert>& alerts = shard.verifier.alerts();
  for (; shard.alerts_staged < alerts.size(); ++shard.alerts_staged) {
    shard.alert_stage.ingest(alerts[shard.alerts_staged]);
  }
}

void VerifierPool::drain_round_boundary_locked() {
  // Deferred revocation fan-out. The workers have joined, so the driver
  // owns every shard: shard-local notifiers fire inside
  // drain_revocations() in shard order, then the merged stream goes to
  // pool-level notifiers in an order that does not depend on the
  // partition (event times and agent transitions are shard-count
  // invariant; shard order is not).
  std::vector<RevocationEvent> events;
  for (auto& shard : shards_) {
    std::vector<RevocationEvent> drained = shard->verifier.drain_revocations();
    events.insert(events.end(), drained.begin(), drained.end());
  }
  if (!pool_notifiers_.empty() && !events.empty()) {
    std::sort(events.begin(), events.end(),
              [](const RevocationEvent& a, const RevocationEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.agent_id != b.agent_id) return a.agent_id < b.agent_id;
                return a.reason < b.reason;
              });
    for (RevocationNotifier* notifier : pool_notifiers_) {
      for (const RevocationEvent& event : events) {
        notifier->on_revocation(event);
      }
    }
  }

  if (pipeline_) {
    SimTime now = 0;
    for (auto& shard : shards_) {
      stage_alerts(*shard);  // catch drains outside a round (e.g. tests)
      now = std::max(now, shard->clock.now());
    }
    for (auto& shard : shards_) {
      if (!shard->alert_stage.empty()) {
        pipeline_->fold(shard->alert_stage.take());
      }
    }
    if (const std::uint64_t after = pipeline_->config().staleness_after;
        after > 0) {
      for (auto& shard : shards_) {
        for (const auto& [id, rounds] : shard->verifier.stale_agents(after)) {
          pipeline_->observe_staleness(id, rounds, now);
        }
      }
    }
    pipeline_->end_round(now);
  }

  // The rollout controller watches the fully folded round: it runs last,
  // after alerts and incidents are settled, so its health gate reads the
  // same numbers the cia_alert_*/cia_incident_* counters export. Any
  // pushes it makes land in shard mailboxes and apply next round.
  if (rollout_) {
    SimTime now = 0;
    for (auto& shard : shards_) now = std::max(now, shard->clock.now());
    rollout_->on_round_boundary(now);
  }
}

void VerifierPool::use_rollout(RolloutHook* rollout) { rollout_ = rollout; }

void VerifierPool::use_alert_pipeline(alert_pipeline::AlertPipeline* pipeline) {
  pipeline_ = pipeline;
  // Only alerts raised from here on feed the pipeline: pre-attachment
  // history is the verifier's, not the operator stream's.
  for (auto& shard : shards_) {
    shard->alerts_staged = shard->verifier.alerts().size();
  }
}

void VerifierPool::add_notifier(RevocationNotifier* notifier) {
  pool_notifiers_.push_back(notifier);
}

void VerifierPool::wire_shard_telemetry(Shard& shard) {
  shard.network.use_telemetry(metrics_);
  shard.verifier.use_telemetry(metrics_);
  shard.scheduler.use_telemetry(metrics_);
  if (shard.transport) shard.transport->use_telemetry(metrics_);
}

void VerifierPool::use_telemetry(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& shard : shards_) wire_shard_telemetry(*shard);
  handoff_net_->use_telemetry(metrics);
  if (metrics_) {
    metrics_->gauge("cia_pool_active_shards", {})
        .set(static_cast<double>(active_shards_));
  }
}

std::optional<AgentState> VerifierPool::state(
    const std::string& agent_id) const {
  const std::size_t s = owner_of(agent_id);
  const Verifier* v;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    v = &shards_[s]->verifier;
  }
  return v->state(agent_id);
}

Status VerifierPool::resolve_failure(const std::string& agent_id) {
  return shard_ptr(owner_of(agent_id))->verifier.resolve_failure(agent_id);
}

std::vector<std::string> VerifierPool::agent_ids() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(owners_mu_);
  ids.reserve(owners_.size());
  for (const auto& [id, shard] : owners_) ids.push_back(id);
  return ids;
}

std::vector<Alert> VerifierPool::alerts() const {
  std::vector<Alert> merged;
  for (const auto& shard : shards_) {
    const auto& alerts = shard->verifier.alerts();
    merged.insert(merged.end(), alerts.begin(), alerts.end());
  }
  // Shard-count-independent order: an alert's identity is (time, agent,
  // log index, type), none of which depend on the partition.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Alert& a, const Alert& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.agent_id != b.agent_id) return a.agent_id < b.agent_id;
                     if (a.log_index != b.log_index) return a.log_index < b.log_index;
                     return static_cast<int>(a.type) < static_cast<int>(b.type);
                   });
  return merged;
}

Status VerifierPool::unenroll(const std::string& agent_id) {
  std::lock_guard<std::mutex> drive(drive_mu_);
  std::size_t s;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    auto it = owners_.find(agent_id);
    if (it == owners_.end()) {
      return err(Errc::kNotFound, "unenroll: unknown agent " + agent_id);
    }
    s = it->second;
    owners_.erase(it);
  }
  Shard& shard = *shard_ptr(s);
  const std::optional<std::string> addr =
      shard.verifier.agent_address(agent_id);
  // owners_ placed the agent on this shard, so it is enrolled there.
  (void)shard.verifier.remove_agent(agent_id);
  shard.scheduler.remove(agent_id);
  if (addr) shard.network.detach(*addr);
  if (metrics_) {
    metrics_->gauge("cia_pool_agents", {{"shard", std::to_string(s)}})
        .set(static_cast<double>(shard.verifier.agent_ids().size()));
  }
  return Status::ok_status();
}

Status VerifierPool::resize(std::size_t new_shards) {
  // The round-boundary drain: a resize queues behind any in-flight
  // advance_to/run_round and blocks new rounds until the topology is
  // settled and every moved agent has landed somewhere consistent.
  std::lock_guard<std::mutex> drive(drive_mu_);
  if (new_shards == 0) new_shards = 1;
  if (new_shards == active_shards_) return Status::ok_status();

  if (new_shards > shards_.size()) {
    // Construct the additional shards with the constructor's exact seed
    // derivations, clocks advanced to the fleet's current virtual time so
    // a migrated agent never observes time running backwards.
    SimTime now = 0;
    for (const auto& shard : shards_) now = std::max(now, shard->clock.now());
    for (std::size_t s = shards_.size(); s < new_shards; ++s) {
      auto shard = std::make_unique<Shard>(seed_, s, config_);
      shard->clock.advance_to(now);
      for (const crypto::PublicKey& ca : trusted_cas_) {
        shard->registrar.trust_manufacturer(ca);
      }
      // Replay the fleet fault configuration: a shard born mid-chaos
      // must drop and tamper exactly like its siblings, or migrated
      // agents would sail through a storm untouched.
      if (fleet_faults_) shard->network.set_faults(*fleet_faults_);
      if (fleet_schedule_) shard->network.set_global_schedule(*fleet_schedule_);
      if (metrics_) wire_shard_telemetry(*shard);
      ports_.push_back(std::make_unique<MigrationPort>(this, s));
      handoff_net_->attach(handoff_address(s), ports_.back().get());
      std::lock_guard<std::mutex> lock(ring_mu_);
      shards_.push_back(std::move(shard));
    }
  }

  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    rebuild_ring_locked(new_shards);
  }
  active_shards_ = new_shards;
  ++migration_.resizes;
  if (metrics_) {
    metrics_->counter("cia_pool_resizes_total", {}).inc();
    metrics_->gauge("cia_pool_active_shards", {})
        .set(static_cast<double>(active_shards_));
  }

  // Bind every queued push before anyone moves. A mailbox entry is
  // routed to the shard that owned its agent at push time, so an entry
  // still queued when its agent leaves would fail on the source and the
  // moved agent would never see that revision.
  for (auto& shard : shards_) apply_pending(*shard);

  // Snapshot assignments first: shard_for takes ring_mu_, and the pool's
  // lock order (owners_mu_ -> ring_mu_) forbids calling it under
  // owners_mu_. std::map order keeps the migration sequence — and with
  // it every handoff-fault draw — deterministic.
  std::vector<std::pair<std::string, std::size_t>> assignment;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    assignment.assign(owners_.begin(), owners_.end());
  }
  for (const auto& [id, src] : assignment) {
    const std::size_t dst = shard_for(id);
    if (dst == src) continue;  // unmoved agents never notice a resize
    const MigrationResult r = migrate_agent(id, src, dst);
    const char* label = "failed";
    switch (r) {
      case MigrationResult::kOk:
        ++migration_.ok;
        label = "ok";
        break;
      case MigrationResult::kFallback:
        ++migration_.fallback;
        label = "fallback";
        break;
      case MigrationResult::kFailed:
        ++migration_.failed;
        break;
    }
    if (metrics_) {
      metrics_->counter("cia_pool_migrations_total", {{"result", label}})
          .inc();
    }
  }
  if (metrics_) {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const auto& shard : shards_) {
      metrics_
          ->gauge("cia_pool_agents", {{"shard", std::to_string(shard->index)}})
          .set(static_cast<double>(shard->verifier.agent_ids().size()));
    }
  }
  return Status::ok_status();
}

VerifierPool::MigrationResult VerifierPool::migrate_agent(
    const std::string& agent_id, std::size_t src_idx, std::size_t dst_idx) {
  Shard& src = *shard_ptr(src_idx);
  Shard& dst = *shard_ptr(dst_idx);

  // The policy binding moves by reference, not through the payload: the
  // pool owns both shards in one process, so the destination is bound to
  // the exact revision object the source held (accept_migration binds it
  // on delivery; the fallback below binds it after re-enrollment).
  const std::shared_ptr<const PolicyRevision> revision =
      src.verifier.revision(agent_id);
  auto slice = src.verifier.export_agent(agent_id);
  if (!slice.ok()) {
    CIA_LOG_WARN("pool", "migration export for " + agent_id +
                             " failed: " + slice.error().message);
    return MigrationResult::kFailed;
  }
  const std::optional<std::string> addr =
      src.verifier.agent_address(agent_id);

  HandoffPayload payload;
  payload.agent_id = agent_id;
  payload.source_shard = src_idx;
  payload.dest_shard = dst_idx;
  payload.agent_slice = slice.value();
  if (const auto* sched = src.scheduler.schedule(agent_id)) {
    payload.schedule = *sched;
  }

  // The enrolment record moves over the in-process control plane; the
  // hostile surface is the data-plane handoff below. Doing it first also
  // arms the fallback path: clean re-enrollment needs the destination
  // registrar to already know the agent.
  if (Status st = src.registrar.transfer_enrolment(agent_id, dst.registrar);
      !st.ok()) {
    CIA_LOG_WARN("pool", "enrolment transfer for " + agent_id +
                             " failed: " + st.error().message);
    return MigrationResult::kFailed;
  }

  const Bytes wire = payload.encode();
  const SimTime handoff_started = handoff_clock_.now();
  bool delivered = false;
  for (std::size_t attempt = 0; attempt < kMigrationAttempts; ++attempt) {
    if (attempt > 0) {
      ++migration_.retries;
      if (metrics_) {
        metrics_->counter("cia_pool_migration_retries_total", {}).inc();
      }
    }
    auto reply =
        handoff_net_->call(handoff_address(dst_idx), kMsgMigrate, wire);
    if (reply.ok() && reply.value() == to_bytes(std::string("ok"))) {
      delivered = true;
      break;
    }
  }

  const auto commit_move = [&] {
    if (addr) move_endpoint(src, dst, *addr);
    (void)src.verifier.remove_agent(agent_id);  // exported from src above
    src.scheduler.remove(agent_id);
    {
      std::lock_guard<std::mutex> lock(owners_mu_);
      owners_[agent_id] = dst_idx;
    }
    ++handoffs_[agent_id];
  };

  if (delivered) {
    commit_move();
    if (metrics_) {
      metrics_
          ->histogram("cia_pool_migration_bytes", {},
                      telemetry::bytes_buckets())
          .observe(static_cast<double>(wire.size()));
      metrics_
          ->histogram("cia_pool_migration_handoff_seconds", {},
                      telemetry::latency_seconds_buckets())
          .observe(
              static_cast<double>(handoff_clock_.now() - handoff_started));
    }
    return MigrationResult::kOk;
  }

  // Handoff exhausted its attempts: fall back to clean re-enrollment of
  // this one agent on the destination. Its counters reset, but seeding
  // the audit tail keeps the sub-chain unforked. Capture the tail before
  // anything mutates the source.
  const AuditLog::AgentTail tail = src.verifier.audit().agent_tail(agent_id);
  if (!addr) {
    CIA_LOG_WARN("pool", "migration of " + agent_id +
                             " failed: no address for fallback re-enrollment");
    return MigrationResult::kFailed;
  }
  // The endpoint must be reachable on the destination network before
  // add_agent probes it.
  move_endpoint(src, dst, *addr);
  bool enrolled = false;
  for (std::size_t attempt = 0; attempt < kMigrationAttempts; ++attempt) {
    Status st = dst.verifier.add_agent(agent_id, *addr);
    // kAlreadyExists: a handoff attempt WAS applied on the destination
    // but every acknowledgement back to us was lost or tampered. The
    // imported state is complete — keep it.
    if (st.ok() || st.error().code == Errc::kAlreadyExists) {
      enrolled = true;
      break;
    }
  }
  if (enrolled) {
    dst.verifier.seed_audit_tail(agent_id, tail);
    (void)dst.verifier.set_revision(agent_id, revision);
    dst.scheduler.enroll(agent_id);
    (void)src.verifier.remove_agent(agent_id);  // exported from src above
    src.scheduler.remove(agent_id);
    {
      std::lock_guard<std::mutex> lock(owners_mu_);
      owners_[agent_id] = dst_idx;
    }
    ++handoffs_[agent_id];
    return MigrationResult::kFallback;
  }

  // Even the fallback failed: put the endpoint back and leave the agent
  // on its source shard. owners_ tracks actual assignment, so routing
  // stays correct and the next resize retries the move.
  move_endpoint(dst, src, *addr);
  CIA_LOG_WARN("pool", "migration of " + agent_id + " to shard " +
                           std::to_string(dst_idx) +
                           " failed; agent stays on shard " +
                           std::to_string(src_idx));
  return MigrationResult::kFailed;
}

void VerifierPool::move_endpoint(Shard& src, Shard& dst,
                                 const std::string& address) {
  if (netsim::Endpoint* ep = src.network.endpoint(address)) {
    src.network.detach(address);
    dst.network.attach(address, ep);
  }
  // The per-link fault stream follows the agent: all shard networks share
  // one seed, so moving the live Rng preserves the exact fault sequence
  // the agent would have seen had it never migrated.
  Rng rng(0);
  if (src.network.take_link_rng(address, &rng)) {
    dst.network.put_link_rng(address, rng);
  }
}

Result<Bytes> VerifierPool::accept_migration(std::size_t shard,
                                             const HandoffPayload& p) {
  if (p.dest_shard != shard) {
    return err(Errc::kProtocolViolation, "handoff: misrouted payload");
  }
  Shard& dst = *shard_ptr(shard);
  // Bind the revision the owning shard holds, found by the pool's own
  // record, not the payload's source_shard: an unknown agent has none,
  // and import_agent refuses a null one. import_agent validates the
  // slice in full before touching any state and replaces by id, so a
  // duplicated delivery re-applies idempotently.
  const std::shared_ptr<const PolicyRevision> revision =
      shard_ptr(owner_of(p.agent_id))->verifier.revision(p.agent_id);
  if (Status st = dst.verifier.import_agent(p.agent_slice, revision);
      !st.ok()) {
    return st.error();
  }
  dst.scheduler.adopt(p.agent_id, p.schedule);
  return to_bytes(std::string("ok"));
}

Result<Bytes> VerifierPool::MigrationPort::handle(const std::string& kind,
                                                  const Bytes& payload) {
  if (kind != kMsgMigrate) {
    return err(Errc::kProtocolViolation,
               "handoff: unexpected message kind " + kind);
  }
  auto decoded = HandoffPayload::decode(payload);
  if (!decoded.ok()) return decoded.error();
  return pool->accept_migration(shard, decoded.value());
}

void VerifierPool::set_handoff_faults(const netsim::FaultProfile& faults) {
  handoff_net_->set_faults(faults);
}

std::uint64_t VerifierPool::handoffs(const std::string& agent_id) const {
  auto it = handoffs_.find(agent_id);
  return it == handoffs_.end() ? 0 : it->second;
}

VerifierPool::Stats VerifierPool::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    s.polls += shard->polls;
    s.batches += shard->batches;
    s.policy_swaps += shard->policy_swaps;
    const Verifier::IndexStats& is = shard->verifier.index_stats();
    s.index_hits += is.hits;
    s.index_misses += is.misses;
  }
  return s;
}

}  // namespace cia::keylime
