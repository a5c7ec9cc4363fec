#include "core/update_orchestrator.hpp"

#include <optional>

#include "common/log.hpp"
#include "common/strutil.hpp"

namespace cia::core {

namespace {

std::vector<std::string> node_ids(const std::vector<ManagedNode>& nodes) {
  std::vector<std::string> ids;
  ids.reserve(nodes.size());
  for (const ManagedNode& node : nodes) ids.push_back(node.agent_id);
  return ids;
}

}  // namespace

Status UpdateOrchestrator::push_policy() {
  namespace ps = keylime::policy_store;
  const std::string base = store_.head();
  // The one digest this push streams: the stored copies carry it, so
  // diff() and the sink's digest check answer from memos.
  const std::string digest = store_.put(policy_);

  // First push (or a cycle that changed nothing): full revision. A
  // no-change push still goes through the sink, whose PolicyHead hands
  // back the installed revision: no copy, no index build.
  if (base.empty() || base == digest) {
    if (metrics_) {
      metrics_
          ->counter("cia_policy_delta_pushes_total", {{"mode", "full"}})
          .inc();
    }
    return sink_->push_revision(node_ids(nodes_), policy_, digest, nullptr);
  }

  // Consecutive cycle: mint the delta against the stored base, record
  // it, and push digest-bound — the sink patches its index in O(delta)
  // instead of re-indexing the 300k-entry base (§III-C's daily shape).
  const ps::PolicyDelta delta = ps::diff(*store_.get(base), policy_);
  store_.put_delta(delta);
  if (metrics_) {
    metrics_
        ->counter("cia_policy_delta_pushes_total", {{"mode", "delta"}})
        .inc();
    metrics_->gauge("cia_policy_delta_entries")
        .set(static_cast<double>(delta.entry_count()));
    metrics_->gauge("cia_policy_delta_bytes")
        .set(static_cast<double>(delta.byte_size()));
  }
  return sink_->push_revision(node_ids(nodes_), policy_, digest, &delta);
}

Status UpdateOrchestrator::bootstrap() {
  if (nodes_.empty()) {
    return err(Errc::kInvalidArgument, "no managed nodes");
  }
  if (mirror_->sync(clock_->now()) != pkg::SyncOutcome::kOk) {
    return err(Errc::kUnavailable, "mirror sync failed during bootstrap");
  }
  const std::string kernel = nodes_.front().machine->kernel_version();
  PolicyUpdateStats stats;
  policy_ = generator_->generate_base(kernel, &stats);
  clock_->advance(static_cast<SimTime>(stats.seconds));
  // One bulk push per revision: the sink builds its lookup index once and
  // shares it across every covered agent; the content digest seeds the
  // sink's revision cache so the next cycle's delta can rebase onto it.
  return push_policy();
}

Result<UpdateCycleReport> UpdateOrchestrator::run_cycle(bool dedup_after) {
  if (nodes_.empty()) {
    return err(Errc::kInvalidArgument, "no managed nodes");
  }
  UpdateCycleReport report;
  std::optional<telemetry::Tracer::Scope> span;
  if (tracer_) {
    span.emplace(tracer_->span("update_cycle", "orchestrator"));
    tracer_->annotate("day", strformat("%d", clock_->day()));
  }

  // Step 1: identify updates in advance — refresh the local mirror. A
  // failed or partial sync must not silently feed the generator half an
  // index: a partial snapshot defers outright, a failed sync only
  // proceeds on a previous complete snapshot that is still fresh.
  const pkg::SyncOutcome synced = mirror_->sync(clock_->now());
  if (synced == pkg::SyncOutcome::kPartial || !mirror_->last_sync_complete()) {
    report.deferred = true;
    report.defer_reason = "mirror sync incomplete; snapshot unusable";
  } else if (synced == pkg::SyncOutcome::kFailed &&
             (!mirror_->has_synced() ||
              mirror_->staleness(clock_->now()) > config_.max_mirror_staleness)) {
    report.deferred = true;
    report.defer_reason = "mirror unreachable and snapshot stale";
  }
  if (metrics_) {
    metrics_->gauge("cia_mirror_staleness_seconds")
        .set(mirror_->has_synced()
                 ? static_cast<double>(mirror_->staleness(clock_->now()))
                 : -1.0);
  }
  if (report.deferred) {
    ++cycles_deferred_;
    report.policy_stats.day = clock_->day();
    CIA_LOG_WARN("orchestrator",
                 strformat("cycle day %d deferred: %s", clock_->day(),
                           report.defer_reason.c_str()));
    if (metrics_) {
      metrics_
          ->counter("cia_update_cycles_total", {{"outcome", "deferred"}})
          .inc();
    }
    if (span) {
      tracer_->annotate(span->id(), "outcome", "deferred");
      tracer_->annotate(span->id(), "reason", report.defer_reason);
    }
    return report;
  }

  // Step 2: generate the policy delta. If the sync brought a newer kernel
  // than the one running, admit it ahead of the reboot.
  const std::string running = nodes_.front().machine->kernel_version();
  std::string pending;
  for (const auto& [name, pkg] : mirror_->index()) {
    (void)name;
    // The newest kernel on the mirror that is newer than the running one
    // becomes the pending kernel (serials are fixed-width, so the
    // lexicographic comparison is the version order).
    if (pkg.is_kernel_modules() && pkg.kernel_version > running &&
        (pending.empty() || pkg.kernel_version > pending)) {
      pending = pkg.kernel_version;
    }
  }
  report.policy_stats =
      generator_->refresh(policy_, running, pending);
  report.kernel_pending_reboot = !pending.empty();
  report.policy_stats.day = clock_->day();
  clock_->advance(static_cast<SimTime>(report.policy_stats.seconds));

  // Step 3: preempt the system update — the verifier gets the new policy
  // BEFORE any node installs a byte. Delta-pushed: only the changed
  // entries travel, and a pool sink patches its index incrementally.
  if (Status s = push_policy(); !s.ok()) {
    return s.error();
  }

  // Now the nodes upgrade from the mirror (never from the official
  // archive — that shortcut is the human error of §III-D).
  for (const ManagedNode& node : nodes_) {
    const pkg::UpgradeResult result = node.apt->upgrade(mirror_->index());
    if (!result.upgraded.empty()) {
      ++report.nodes_upgraded;
      report.packages_installed += result.upgraded.size();
    }
    // A newer kernel on the mirror is installed alongside the running one
    // (dist-upgrade behaviour) and armed for the next reboot; its policy
    // entries were already admitted above as the pending kernel.
    if (!pending.empty() && node.machine->kernel_version() != pending &&
        !node.apt->is_installed("linux-modules-" + pending)) {
      for (const std::string& kpkg :
           {"linux-image-" + pending, "linux-modules-" + pending}) {
        if (const pkg::Package* p = mirror_->find(kpkg)) {
          (void)node.apt->install(*p);
          ++report.packages_installed;
        }
      }
      node.machine->schedule_kernel(pending);
    }
  }

  // Post-update dedup: superseded hashes leave the policy once no node
  // can still be running the old files.
  if (dedup_after && report.policy_stats.lines_added > 0) {
    report.dedup_removed = policy_.dedup();
    if (Status s = push_policy(); !s.ok()) {
      return s.error();
    }
  }

  CIA_LOG_INFO("orchestrator",
               strformat("cycle day %d: %zu pkgs, %zu lines, %.1fs, dedup -%zu",
                         report.policy_stats.day,
                         report.policy_stats.packages_processed,
                         report.policy_stats.lines_added,
                         report.policy_stats.seconds, report.dedup_removed));
  if (metrics_) {
    metrics_->counter("cia_update_cycles_total", {{"outcome", "run"}}).inc();
    metrics_->histogram("cia_update_cycle_seconds").observe(
        report.policy_stats.seconds);
    if (report.packages_installed > 0) {
      metrics_->counter("cia_update_packages_installed_total")
          .inc(report.packages_installed);
    }
    metrics_->gauge("cia_policy_entries")
        .set(static_cast<double>(policy_.entry_count()));
    metrics_->gauge("cia_policy_bytes")
        .set(static_cast<double>(policy_.byte_size()));
  }
  if (span) {
    tracer_->annotate(span->id(), "outcome", "run");
    tracer_->annotate(span->id(), "packages",
                      strformat("%zu", report.packages_installed));
  }
  return report;
}

}  // namespace cia::core
