// Fleet polling scheduler.
//
// A production verifier polls thousands of agents; naive synchronized
// polling produces thundering herds and retry storms. The scheduler
// staggers agents across the poll interval (deterministically, by agent
// id) and applies exponential backoff with a cap to unreachable agents so
// a dead rack does not consume the polling budget. Backoff delays carry
// deterministic per-agent jitter so a rack that died together does not
// retry in lockstep, and backoff only resets after a round that actually
// succeeded — an error response is not recovery.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/sim_clock.hpp"
#include "keylime/verifier.hpp"

namespace cia::keylime {

struct SchedulerConfig {
  SimTime poll_interval = 60;          // healthy-agent poll period
  SimTime initial_backoff = 30;        // first retry after a comms failure
  SimTime max_backoff = 15 * kMinute;  // backoff ceiling
};

class AttestationScheduler {
 public:
  AttestationScheduler(Verifier* verifier, SimClock* clock,
                       SchedulerConfig config = {})
      : verifier_(verifier), clock_(clock), config_(config) {}

  /// Start polling an agent (already enrolled with the verifier). The
  /// first poll is staggered within the interval by a stable hash of the
  /// agent id. Re-enrolling an already-scheduled id replaces its slot —
  /// an agent is never double-scheduled.
  void enroll(const std::string& agent_id);

  /// Poll every agent whose next-poll time has arrived. Returns the
  /// number of polls performed.
  std::size_t tick();

  /// Earliest next-poll time across the fleet (SimTime max if empty).
  SimTime next_due() const;

  /// Agents currently on the healthy cadence (no backoff pending).
  std::size_t healthy_count() const;

  /// Agents currently in comms backoff.
  std::size_t backing_off_count() const;

  /// Set the fleet health gauges `cia_scheduler_healthy_agents` and
  /// `cia_scheduler_backing_off_agents`. tick() leaves them to its caller,
  /// which publishes once per round boundary, summed over every scheduler
  /// it ticks, so each series has one writer.
  static void publish_health(telemetry::MetricsRegistry& metrics,
                             std::size_t healthy, std::size_t backing_off);

  struct AgentSchedule {
    SimTime next_poll = 0;
    SimTime current_backoff = 0;  // 0 = healthy cadence
    std::uint64_t polls = 0;
    std::uint64_t comms_failures = 0;
  };

  const AgentSchedule* schedule(const std::string& agent_id) const;

  /// Adopt a schedule handed over by another shard's scheduler (live
  /// migration): the agent keeps its absolute next_poll, backoff state,
  /// and tallies, so a moved agent's cadence is seamless.
  void adopt(const std::string& agent_id, const AgentSchedule& schedule) {
    agents_[agent_id] = schedule;
  }

  /// Stop polling an agent (it migrated away or unenrolled).
  void remove(const std::string& agent_id) { agents_.erase(agent_id); }

  /// Point the scheduler at a restored verifier instance after
  /// crash-recovery; poll cadence and backoff state carry over.
  void rebind(Verifier* verifier) { verifier_ = verifier; }

  /// Export scheduler health to `metrics`: per-tick due-queue depth
  /// histogram, poll and comms-failure counters, and the retry-jitter
  /// distribution. nullptr turns it off.
  void use_telemetry(telemetry::MetricsRegistry* metrics) {
    metrics_ = metrics;
  }

 private:
  Verifier* verifier_;
  SimClock* clock_;
  SchedulerConfig config_;
  std::map<std::string, AgentSchedule> agents_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace cia::keylime
