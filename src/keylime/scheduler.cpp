#include "keylime/scheduler.hpp"

#include <algorithm>
#include <limits>

namespace cia::keylime {

namespace {

/// FNV-1a of the agent id, used for the stable stagger offset and as the
/// base of the per-agent retry jitter.
std::uint64_t agent_hash(const std::string& agent_id) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : agent_id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Stable stagger offset within the poll interval.
SimTime stagger(const std::string& agent_id, SimTime interval) {
  return static_cast<SimTime>(agent_hash(agent_id) %
                              static_cast<std::uint64_t>(interval));
}

/// Deterministic jitter in [0, backoff/4] keyed by (agent, failure
/// count): agents that lost connectivity together retry apart, and the
/// sequence is reproducible run-to-run.
SimTime retry_jitter(const std::string& agent_id, std::uint64_t failures,
                     SimTime backoff) {
  const SimTime span = backoff / 4;
  if (span <= 0) return 0;
  std::uint64_t h = agent_hash(agent_id);
  h ^= failures + 0x9e3779b97f4a7c15ull;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return static_cast<SimTime>(h % static_cast<std::uint64_t>(span + 1));
}

}  // namespace

void AttestationScheduler::enroll(const std::string& agent_id) {
  AgentSchedule schedule;
  schedule.next_poll = clock_->now() + stagger(agent_id, config_.poll_interval);
  // operator[] replaces any existing slot, so a re-enrolled id (agent
  // reinstall, registrar re-activation) cannot be polled twice per round.
  agents_[agent_id] = schedule;
}

std::size_t AttestationScheduler::tick() {
  std::size_t performed = 0;
  const SimTime now = clock_->now();
  for (auto& [agent_id, schedule] : agents_) {
    if (schedule.next_poll > now) continue;
    ++performed;
    ++schedule.polls;
    auto round = verifier_->attest_once(agent_id);

    // A round succeeded only if the verifier completed it without a
    // comms alert; an errored call is a failure, not a reset.
    bool comms_failure = !round.ok();
    if (round.ok()) {
      for (const auto& alert : round.value().alerts) {
        comms_failure |= alert.type == AlertType::kCommsFailure;
      }
    }
    if (metrics_) {
      metrics_->counter("cia_scheduler_polls_total").inc();
      if (comms_failure) {
        metrics_->counter("cia_scheduler_comms_failures_total").inc();
      }
    }
    if (comms_failure) {
      ++schedule.comms_failures;
      schedule.current_backoff =
          schedule.current_backoff == 0
              ? config_.initial_backoff
              : std::min(schedule.current_backoff * 2, config_.max_backoff);
      const SimTime jitter = retry_jitter(agent_id, schedule.comms_failures,
                                          schedule.current_backoff);
      schedule.next_poll = now + schedule.current_backoff + jitter;
      if (metrics_) {
        metrics_
            ->histogram("cia_scheduler_retry_jitter_seconds", {},
                        telemetry::latency_seconds_buckets())
            .observe(static_cast<double>(jitter));
      }
    } else {
      schedule.current_backoff = 0;
      schedule.next_poll = now + config_.poll_interval;
    }
  }
  if (metrics_) {
    metrics_
        ->histogram("cia_scheduler_queue_depth", {},
                    telemetry::count_buckets())
        .observe(static_cast<double>(performed));
  }
  return performed;
}

SimTime AttestationScheduler::next_due() const {
  SimTime earliest = std::numeric_limits<SimTime>::max();
  for (const auto& [agent_id, schedule] : agents_) {
    (void)agent_id;
    earliest = std::min(earliest, schedule.next_poll);
  }
  return earliest;
}

std::size_t AttestationScheduler::healthy_count() const {
  std::size_t n = 0;
  for (const auto& [agent_id, schedule] : agents_) {
    (void)agent_id;
    if (schedule.current_backoff == 0) ++n;
  }
  return n;
}

std::size_t AttestationScheduler::backing_off_count() const {
  return agents_.size() - healthy_count();
}

void AttestationScheduler::publish_health(telemetry::MetricsRegistry& metrics,
                                          std::size_t healthy,
                                          std::size_t backing_off) {
  metrics.gauge("cia_scheduler_healthy_agents")
      .set(static_cast<double>(healthy));
  metrics.gauge("cia_scheduler_backing_off_agents")
      .set(static_cast<double>(backing_off));
}

const AttestationScheduler::AgentSchedule* AttestationScheduler::schedule(
    const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? nullptr : &it->second;
}

}  // namespace cia::keylime
