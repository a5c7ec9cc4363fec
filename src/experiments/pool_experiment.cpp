#include "experiments/pool_experiment.hpp"

#include <algorithm>

#include "common/strutil.hpp"
#include "crypto/sha256.hpp"
#include "experiments/testbed.hpp"

namespace cia::experiments {

PoolFleet::PoolFleet(const PoolFleetOptions& options) : options_(options) {
  tpm_ca_ = std::make_unique<crypto::CertificateAuthority>(
      "tpm-manufacturer", to_bytes("pool-mfg-seed"));

  keylime::VerifierPoolConfig pool_config;
  pool_config.shards = options_.shards;
  pool_config.verifier = options_.verifier;
  pool_config.scheduler = options_.scheduler;
  pool_config.retrying_transport = options_.retrying_transport;
  pool_ = std::make_unique<keylime::VerifierPool>(options_.seed, pool_config);
  pool_->trust_manufacturer(tpm_ca_->public_key());
  if (options_.metrics) pool_->use_telemetry(options_.metrics);

  // The shared image: binary content is a pure function of the path, so
  // every machine measures identical file hashes and one policy revision
  // covers the fleet.
  binaries_.reserve(options_.binaries_per_machine);
  for (std::size_t b = 0; b < options_.binaries_per_machine; ++b) {
    binaries_.push_back(strformat("/usr/bin/tool-%03zu", b));
  }

  for (std::size_t i = 0; i < options_.agents; ++i) {
    if (auto id = spawn_agent(next_ordinal_++); !id.ok()) {
      init_status_ = id.error();
      return;
    }
  }
}

PoolFleet::~PoolFleet() = default;

Result<std::string> PoolFleet::spawn_agent(std::size_t ordinal) {
  oskernel::MachineConfig cfg;
  cfg.hostname = strformat("agent-%04zu", ordinal);
  cfg.seed = options_.seed + ordinal + 1;  // distinct TPM identities
  const std::size_t shard = pool_->shard_for(cfg.hostname);
  auto machine = std::make_unique<oskernel::Machine>(cfg, *tpm_ca_,
                                                     &pool_->clock(shard));
  for (const std::string& path : binaries_) {
    (void)machine->fs().create_file(path, to_bytes("elf:" + path), true);
  }
  auto agent =
      std::make_unique<keylime::Agent>(machine.get(), &pool_->network(shard));
  if (Status s = agent->register_with(keylime::Registrar::address());
      !s.ok()) {
    return s.error();
  }
  if (Status s = pool_->enroll(cfg.hostname, agent->address()); !s.ok()) {
    return s.error();
  }
  const std::size_t slot = machines_.size();
  machines_.push_back(std::move(machine));
  agents_.push_back(std::move(agent));
  agent_ids_.push_back(cfg.hostname);
  slot_[cfg.hostname] = slot;
  return cfg.hostname;
}

const keylime::RuntimePolicy& PoolFleet::fleet_policy() const {
  if (!cached_policy_) {
    // Scan any live machine — the image is identical fleet-wide. Cached
    // so churn can keep pushing the policy after machine 0 has left.
    for (const auto& machine : machines_) {
      if (!machine) continue;
      cached_policy_ = scan_machine_policy(*machine, /*exclude_tmp=*/true);
      break;
    }
  }
  static const keylime::RuntimePolicy kNoMachine;
  return cached_policy_ ? *cached_policy_ : kNoMachine;
}

Status PoolFleet::push_fleet_policy() {
  return push_fleet_policy(pool_->agent_ids());
}

Status PoolFleet::push_fleet_policy(const std::vector<std::string>& agent_ids) {
  // The fleet policy is never mutated, so every push after the first is
  // answered from its digest memo.
  const keylime::RuntimePolicy& policy = fleet_policy();
  return pool_->push_revision(agent_ids, policy,
                              keylime::policy_store::policy_digest(policy),
                              nullptr);
}

void PoolFleet::run_workload_round(std::uint64_t round) {
  if (binaries_.empty()) return;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (!machines_[i]) continue;  // churned out
    // A deterministic slice of the binary set, disjoint from the
    // previous round's slice until the set wraps: each round produces
    // fresh first-execution measurements for the verifier to appraise.
    // The slice depends only on the round number, never on the shard
    // layout.
    for (std::size_t k = 0; k < options_.execs_per_round; ++k) {
      const std::size_t b =
          (round * options_.execs_per_round + k) % binaries_.size();
      (void)machines_[i]->exec(binaries_[b]);
    }
  }
}

void PoolFleet::exec_unknown(std::size_t i) {
  oskernel::Machine& machine = *machines_.at(i);
  const std::string path =
      strformat("/usr/local/bin/dropper-%04zu", i);
  (void)machine.fs().create_file(path, to_bytes("elf:unknown:" + path), true);
  (void)machine.exec(path);
}

Result<std::string> PoolFleet::join_agent() {
  auto id = spawn_agent(next_ordinal_++);
  if (!id.ok()) return id;
  // Cover the joiner's image with the fleet policy, bound at its shard's
  // next batch boundary: the head revision itself while the fleet policy
  // is the head.
  if (Status s = push_fleet_policy({id.value()}); !s.ok()) return s.error();
  return id;
}

Status PoolFleet::leave_agent(const std::string& agent_id) {
  auto it = slot_.find(agent_id);
  if (it == slot_.end()) {
    return err(Errc::kNotFound, "leave: unknown agent " + agent_id);
  }
  if (Status s = pool_->unenroll(agent_id); !s.ok()) return s;
  const std::size_t slot = it->second;
  // Destroy the agent first (its destructor detach on the original shard
  // network is a harmless no-op if the endpoint migrated away), then the
  // machine it points at.
  agents_[slot].reset();
  machines_[slot].reset();
  slot_.erase(it);
  agent_ids_.erase(
      std::remove(agent_ids_.begin(), agent_ids_.end(), agent_id),
      agent_ids_.end());
  return Status::ok_status();
}

Status PoolFleet::reboot_agent(const std::string& agent_id) {
  oskernel::Machine* machine = machine_for(agent_id);
  if (!machine) {
    return err(Errc::kNotFound, "reboot: unknown agent " + agent_id);
  }
  machine->reboot();
  return Status::ok_status();
}

oskernel::Machine* PoolFleet::machine_for(const std::string& agent_id) {
  auto it = slot_.find(agent_id);
  if (it == slot_.end()) return nullptr;
  return machines_[it->second].get();
}

ChurnReport run_churn_campaign(PoolFleet& fleet,
                               const ChurnCampaignOptions& options) {
  ChurnReport report;
  Rng rng(options.seed);
  // The campaign keeps its own view of the live fleet. Event choice
  // depends only on this list and the rng draws — never on pool state —
  // so the identical event sequence replays with any resize schedule.
  std::vector<std::string> live = fleet.agent_ids();
  for (std::size_t round = 0; round < options.rounds; ++round) {
    for (const auto& [at, shards] : options.resize_at) {
      if (at != round) continue;
      if (Status st = fleet.pool().resize(shards); !st.ok()) {
        report.status = st;
        return report;
      }
    }

    const std::size_t joins =
        options.max_joins_per_round
            ? static_cast<std::size_t>(
                  rng.uniform(options.max_joins_per_round + 1))
            : 0;
    for (std::size_t j = 0; j < joins; ++j) {
      auto id = fleet.join_agent();
      if (!id.ok()) {
        report.status = id.error();
        return report;
      }
      live.push_back(id.value());
      ++report.joins;
    }

    const std::size_t leaves =
        options.max_leaves_per_round
            ? static_cast<std::size_t>(
                  rng.uniform(options.max_leaves_per_round + 1))
            : 0;
    // Keep a small floor so the run never churns down to an empty fleet.
    for (std::size_t l = 0; l < leaves && live.size() > 2; ++l) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(live.size()));
      const std::string id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      if (Status st = fleet.leave_agent(id); !st.ok()) {
        report.status = st;
        return report;
      }
      ++report.leaves;
    }

    const std::size_t reboots =
        options.max_reboots_per_round
            ? static_cast<std::size_t>(
                  rng.uniform(options.max_reboots_per_round + 1))
            : 0;
    for (std::size_t b = 0; b < reboots && !live.empty(); ++b) {
      const std::string id =
          live[static_cast<std::size_t>(rng.uniform(live.size()))];
      if (Status st = fleet.reboot_agent(id); !st.ok()) {
        report.status = st;
        return report;
      }
      ++report.reboots;
    }

    fleet.run_workload_round(round);
    report.polls += fleet.pool().advance_to(
        static_cast<SimTime>((round + 1) * options.round_period));
  }
  return report;
}

StormReport run_alert_storm(const StormOptions& options) {
  StormReport report;
  report.agents = options.agents;

  PoolFleetOptions fleet_options;
  fleet_options.agents = options.agents;
  fleet_options.shards = options.shards;
  fleet_options.seed = options.seed;
  // The paper's P2 mitigation must be on: stock stop-on-failure would
  // freeze every agent at its first bad entry and the storm would be a
  // single silent round. Retries stay off — a retry's backoff advances
  // the shard clock by an amount that depends on shard co-residency,
  // which would break the incident stream's partition invariance.
  fleet_options.binaries_per_machine = options.binaries_per_machine;
  fleet_options.execs_per_round = options.execs_per_round;
  fleet_options.verifier.continue_on_failure = true;
  fleet_options.scheduler.poll_interval = options.round_period;
  fleet_options.retrying_transport = false;
  fleet_options.metrics = options.metrics;
  PoolFleet fleet(fleet_options);
  if (!fleet.init_status().ok()) {
    report.status = fleet.init_status();
    return report;
  }

  keylime::alert_pipeline::AlertPipeline pipeline(options.pipeline);
  pipeline.use_telemetry(options.metrics);
  fleet.pool().use_alert_pipeline(&pipeline);

  if (Status st = fleet.push_fleet_policy(); !st.ok()) {
    report.status = st;
    return report;
  }

  std::uint64_t round = 0;
  for (; round < options.warmup_rounds; ++round) {
    fleet.run_workload_round(round);
    fleet.pool().advance_to(
        static_cast<SimTime>((round + 1)) * options.round_period);
  }

  // The bad push: rebuild the fleet policy with corrupted digests for
  // the binaries the whole fleet will FIRST-execute next round, so every
  // agent trips over every corrupted path in the same round.
  const std::size_t first_storm_slot =
      options.warmup_rounds * fleet_options.execs_per_round;
  std::vector<std::string> corrupted;
  for (std::size_t b = 0; b < options.bad_paths; ++b) {
    corrupted.push_back(strformat(
        "/usr/bin/tool-%03zu",
        (first_storm_slot + b) % fleet_options.binaries_per_machine));
  }
  const keylime::RuntimePolicy& good = fleet.fleet_policy();
  keylime::RuntimePolicy bad;
  good.for_each_path([&](const std::string& path,
                         const std::vector<crypto::Digest>& hashes) {
    if (std::find(corrupted.begin(), corrupted.end(), path) !=
        corrupted.end()) {
      bad.allow(path, crypto::sha256("storm:corrupt:" + path));
    } else {
      for (const crypto::Digest& h : hashes) bad.allow(path, h);
    }
  });
  for (const std::string& glob : good.excludes()) bad.exclude(glob);

  namespace ps = keylime::policy_store;
  std::unique_ptr<ps::RolloutController> rollout;
  if (options.rollout) {
    // Staged mode: hand the bad revision to the rollout controller — only
    // the canary slice ever receives it, as a delta patching the good
    // revision the warmup installed.
    rollout =
        std::make_unique<ps::RolloutController>(&fleet.pool(), *options.rollout);
    rollout->use_telemetry(options.metrics);
    fleet.pool().use_rollout(rollout.get());
    if (Status st = rollout->begin(good, bad); !st.ok()) {
      report.status = st;
      return report;
    }
  } else if (Status st = fleet.pool().push_revision(
                 fleet.pool().agent_ids(), bad, ps::policy_digest(bad),
                 nullptr);
             !st.ok()) {
    report.status = st;
    return report;
  }

  if (options.drop_rate > 0) {
    netsim::FaultProfile faults;
    faults.drop_rate = options.drop_rate;
    fleet.pool().set_fleet_faults(faults);
  }

  for (std::size_t r = 0; r < options.storm_rounds; ++r, ++round) {
    if (options.resize_shards > 0 && r == options.resize_round) {
      if (Status st = fleet.pool().resize(options.resize_shards); !st.ok()) {
        report.status = st;
        return report;
      }
    }
    fleet.run_workload_round(round);
    fleet.pool().advance_to(
        static_cast<SimTime>((round + 1)) * options.round_period);
  }

  const keylime::alert_pipeline::AlertPipeline::Stats& stats =
      pipeline.stats();
  report.raw_alerts = stats.raw;
  report.emitted_alerts = stats.emitted;
  report.suppressed = stats.suppressed;
  report.incidents_opened = stats.opened;
  report.incidents_open = stats.opened - stats.closed;
  for (const keylime::alert_pipeline::Incident& incident :
       pipeline.snapshot().incidents) {
    report.max_affected = std::max(report.max_affected,
                                   incident.affected_agents);
    ++report.opened_by_severity[keylime::alert_pipeline::severity_name(
        incident.severity)];
  }
  report.incident_stream = pipeline.snapshot_json().dump();

  if (rollout) {
    report.rollout_state = ps::rollout_state_name(rollout->state());
    report.canary_agents = rollout->canary_agents();  // sorted
    report.rollout_target_revision = rollout->target_revision();
    // Containment audit over the merged alert stream: every alert
    // attributed to the staged revision must come from a canary agent.
    for (const keylime::Alert& a : fleet.pool().alerts()) {
      if (a.policy_revision != report.rollout_target_revision) continue;
      if (std::binary_search(report.canary_agents.begin(),
                             report.canary_agents.end(), a.agent_id)) {
        ++report.canary_alerts;
      } else {
        ++report.non_canary_bad_appraisals;
      }
    }
    // ...and no non-canary agent may END the scenario holding the staged
    // revision unless it was promoted to them.
    for (const std::string& id : fleet.pool().agent_ids()) {
      if (std::binary_search(report.canary_agents.begin(),
                             report.canary_agents.end(), id)) {
        continue;
      }
      if (fleet.pool().policy_revision_of(id) ==
          report.rollout_target_revision) {
        ++report.non_canary_on_bad_revision;
      }
    }
    fleet.pool().use_rollout(nullptr);
  }
  // One root cause per corrupted digest, one fleet staleness episode
  // (failed agents' rounds_since_success keeps growing under
  // continue_on_failure until an operator intervenes), one transport
  // episode when drops are on.
  const bool staleness_triggers =
      options.pipeline.staleness_after > 0 &&
      options.pipeline.staleness_after <= options.storm_rounds;
  report.root_causes = options.bad_paths + (staleness_triggers ? 1 : 0) +
                       (options.drop_rate > 0 ? 1 : 0);
  return report;
}

std::map<std::string, std::string> per_agent_chain_digests(
    const keylime::VerifierPool& pool) {
  // Gather every agent's records across ALL shards: a migrated agent's
  // history spans its old and new homes; a retired shard still holds the
  // records it appended while active.
  std::map<std::string, std::vector<const keylime::AuditRecord*>> by_agent;
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    for (const auto& rec : pool.verifier(s).audit().records()) {
      by_agent[rec.agent_id].push_back(&rec);
    }
  }
  std::map<std::string, std::string> digests;
  for (auto& [id, recs] : by_agent) {
    std::sort(recs.begin(), recs.end(),
              [](const keylime::AuditRecord* a, const keylime::AuditRecord* b) {
                return a->agent_seq < b->agent_seq;
              });
    crypto::Sha256 ctx;
    for (const keylime::AuditRecord* rec : recs) {
      const crypto::Digest h = rec->agent_hash();
      ctx.update(h.data(), h.size());
    }
    digests[id] = crypto::digest_hex(ctx.finish());
  }
  return digests;
}

}  // namespace cia::experiments
