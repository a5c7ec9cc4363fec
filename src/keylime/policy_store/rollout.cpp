#include "keylime/policy_store/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cia::keylime::policy_store {

namespace {

// Same hash pair the pool's consistent-hash ring uses (duplicated from
// verifier_pool.cpp's anonymous namespace on purpose: the slice must be
// a pure function of (id, seed), never of pool internals, so the two
// are kept deliberately decoupled).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

std::uint64_t slice_point(const std::string& id, std::uint64_t seed) {
  return fmix64(fnv1a(id) ^ seed);
}

}  // namespace

std::vector<std::string> canary_slice(const std::vector<std::string>& ids,
                                      double fraction, std::uint64_t seed) {
  std::vector<std::string> out;
  if (ids.empty() || fraction <= 0.0) return out;
  if (fraction >= 1.0) {
    out = ids;
    std::sort(out.begin(), out.end());
    return out;
  }
  // Membership: the id's hash point lands in the first `fraction` of the
  // 64-bit hash space. Computed per id, so re-partitioning the fleet (or
  // enrolling more agents) never flips an existing member's verdict.
  const double scaled = std::ldexp(fraction, 64);  // fraction * 2^64
  const std::uint64_t cut =
      scaled >= std::ldexp(1.0, 64)
          ? ~0ull
          : static_cast<std::uint64_t>(scaled);
  const std::string* lowest = nullptr;
  std::uint64_t lowest_point = ~0ull;
  for (const std::string& id : ids) {
    const std::uint64_t p = slice_point(id, seed);
    if (p < cut) out.push_back(id);
    if (p < lowest_point || lowest == nullptr) {
      lowest_point = p;
      lowest = &id;
    }
  }
  // Never an empty canary: a rollout that skips its bake window would
  // promote a revision no agent ever appraised under.
  if (out.empty() && lowest != nullptr) out.push_back(*lowest);
  std::sort(out.begin(), out.end());
  return out;
}

const char* rollout_state_name(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle:
      return "idle";
    case RolloutState::kBaking:
      return "baking";
    case RolloutState::kPromoted:
      return "promoted";
    case RolloutState::kRolledBack:
      return "rolled_back";
  }
  return "unknown";
}

RolloutController::RolloutController(VerifierPool* pool, RolloutConfig config)
    : pool_(pool), config_(std::move(config)) {}

void RolloutController::use_telemetry(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  export_state();
}

void RolloutController::export_state() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("cia_rollout_state")
      .set(static_cast<double>(static_cast<int>(state_)));
  metrics_->gauge("cia_rollout_canary_agents")
      .set(static_cast<double>(canary_.size()));
  metrics_->gauge("cia_rollout_observed_alerts")
      .set(static_cast<double>(stats_.observed_alerts));
}

Status RolloutController::begin(const RuntimePolicy& base,
                                const RuntimePolicy& target) {
  if (pool_ == nullptr)
    return err(Errc::kInvalidArgument, "rollout has no pool");
  if (state_ == RolloutState::kBaking)
    return err(Errc::kProtocolViolation, "a rollout is already baking");

  // Everything is staged in locals: a refused rollout leaves no state.
  // diff() hashes both policies; the digests come from it.
  PolicyDelta forward = diff(base, target);
  if (forward.base_digest == forward.target_digest)
    return err(Errc::kInvalidArgument, "rollout target equals the base");

  const std::vector<std::string> fleet = pool_->agent_ids();
  std::vector<std::string> canary =
      canary_slice(fleet, config_.canary_fraction, config_.seed);
  if (canary.empty())
    return err(Errc::kInvalidArgument, "rollout selected no canary agents");

  // Canary push: delta-rebased when the pool's installed head is the
  // base revision; only the canary slice ever sees the target until the
  // bake window closes clean.
  if (Status s = pool_->push_revision(canary, target, forward.target_digest,
                                      &forward);
      !s.ok())
    return s;
  target_revision_ = pool_->policy_revision();

  base_policy_ = base;
  target_policy_ = target;
  base_digest_ = forward.base_digest;
  target_digest_ = forward.target_digest;
  forward_ = std::move(forward);
  reverse_ = diff(target, base);
  canary_ = std::move(canary);
  rest_.clear();
  for (const std::string& id : fleet) {
    if (!std::binary_search(canary_.begin(), canary_.end(), id))
      rest_.push_back(id);
  }

  state_ = RolloutState::kBaking;
  rounds_baked_this_rollout_ = 0;
  rollback_revision_ = 0;
  stats_.started += 1;
  if (metrics_) metrics_->counter("cia_rollout_started_total").inc();
  export_state();
  return Status::ok_status();
}

void RolloutController::on_round_boundary(SimTime now) {
  (void)now;  // the gate keys on alert attribution, not wall/sim time
  if (state_ != RolloutState::kBaking) return;

  // Health gate: alerts raised under the canary revision, read from the
  // pool's deterministically ordered merged stream — the same alerts the
  // cia_alert_*/cia_incident_* counters are folded from, so the verdict
  // is shard-count invariant.
  std::uint64_t bad = 0;
  for (const Alert& a : pool_->alerts()) {
    if (a.policy_revision == target_revision_) ++bad;
  }
  stats_.observed_alerts = bad;

  if (bad > config_.alert_budget) {
    // Roll the canary slice back to the base revision. The reverse
    // delta rebases from the target digest — exactly what the pool has
    // cached from the canary push — so the rollback is an incremental
    // index patch, not a fleet-scale rebuild.
    (void)pool_->push_revision(canary_, base_policy_, base_digest_,
                               &reverse_);
    rollback_revision_ = pool_->policy_revision();
    state_ = RolloutState::kRolledBack;
    stats_.rolled_back += 1;
    if (metrics_) metrics_->counter("cia_rollout_rolled_back_total").inc();
    export_state();
    return;
  }

  rounds_baked_this_rollout_ += 1;
  stats_.rounds_baked += 1;
  if (metrics_) metrics_->counter("cia_rollout_bake_rounds_total").inc();
  if (rounds_baked_this_rollout_ < config_.bake_rounds) {
    export_state();
    return;
  }

  // Bake window closed clean: promote. The digest matches the pool's
  // cached head, so the rest of the fleet shares the index the canary
  // push already built — zero additional builds.
  (void)pool_->push_revision(rest_, target_policy_, target_digest_,
                             &forward_);
  state_ = RolloutState::kPromoted;
  stats_.promoted += 1;
  if (metrics_) metrics_->counter("cia_rollout_promoted_total").inc();
  export_state();
}

}  // namespace cia::keylime::policy_store
