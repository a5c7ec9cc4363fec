#include "keylime/verifier.hpp"

#include <chrono>
#include <limits>

#include "common/hex.hpp"
#include "common/log.hpp"
#include "common/strutil.hpp"
#include "keylime/registrar.hpp"

namespace cia::keylime {

const char* alert_type_name(AlertType t) {
  switch (t) {
    case AlertType::kQuoteInvalid: return "quote_invalid";
    case AlertType::kReplayMismatch: return "replay_mismatch";
    case AlertType::kHashMismatch: return "hash_mismatch";
    case AlertType::kNotInPolicy: return "not_in_policy";
    case AlertType::kMeasuredBootMismatch: return "measured_boot_mismatch";
    case AlertType::kCommsFailure: return "comms_failure";
  }
  return "?";
}

MbRefstate MbRefstate::capture(const tpm::Tpm2& tpm) {
  return MbRefstate{tpm.pcr_value(0), tpm.pcr_value(4), tpm.pcr_value(7)};
}

const std::vector<int>& quoted_pcrs() {
  static const std::vector<int> kPcrs = {0, 4, 7, tpm::kImaPcr};
  return kPcrs;
}

Verifier::Verifier(netsim::SimNetwork* network, SimClock* clock,
                   std::uint64_t seed, VerifierConfig config)
    : network_(network),
      transport_(network),
      clock_(clock),
      rng_(seed),
      config_(config),
      nonce_seed_(config.nonce_seed.value_or(seed)),
      audit_(crypto::derive_keypair(
          to_bytes(strformat("verifier-%llu",
                             static_cast<unsigned long long>(seed))),
          "audit-signing")) {}

void Verifier::use_transport(netsim::Transport* transport) {
  transport_ = transport ? transport : network_;
}

void Verifier::use_telemetry(telemetry::MetricsRegistry* metrics,
                             telemetry::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
}

std::optional<telemetry::Tracer::Scope> Verifier::trace_span(
    const char* name) {
  if (!tracer_) return std::nullopt;
  return tracer_->span(name, "verifier");
}

void Verifier::add_notifier(RevocationNotifier* notifier) {
  notifiers_.push_back(notifier);
}

std::vector<RevocationEvent> Verifier::drain_revocations() {
  std::vector<RevocationEvent> events;
  events.swap(pending_revocations_);
  for (const RevocationEvent& event : events) {
    for (RevocationNotifier* n : notifiers_) n->on_revocation(event);
  }
  return events;
}

std::vector<std::pair<std::string, std::uint64_t>> Verifier::stale_agents(
    std::uint64_t min_rounds) const {
  std::vector<std::pair<std::string, std::uint64_t>> stale;
  for (const auto& [id, rec] : agents_) {
    if (rec.rounds_since_success >= min_rounds) {
      stale.emplace_back(id, rec.rounds_since_success);
    }
  }
  return stale;
}

Bytes Verifier::next_nonce(const std::string& agent_id, AgentRecord& rec) {
  // Derived, not drawn from rng_: the stream depends only on
  // (nonce_seed, agent_id, counter), and the counter rides along in
  // checkpoints and migration slices, so the challenge sequence an agent
  // sees is identical no matter which shard currently owns it.
  crypto::Sha256 ctx;
  ctx.update(strformat("nonce:%llu:%llu:",
                       static_cast<unsigned long long>(nonce_seed_),
                       static_cast<unsigned long long>(rec.nonce_counter)));
  ctx.update(agent_id);
  const crypto::Digest d = ctx.finish();
  ++rec.nonce_counter;
  return Bytes(d.begin(), d.begin() + 20);
}

Status Verifier::add_agent(const std::string& agent_id,
                           const std::string& address) {
  GetAgentRequest req{agent_id};
  auto resp_bytes =
      transport_->call(Registrar::address(), kMsgGetAgent, req.encode());
  if (!resp_bytes.ok()) return resp_bytes.error();
  auto resp = GetAgentResponse::decode(resp_bytes.value());
  if (!resp.ok()) return resp.error();
  if (!resp.value().active) {
    return err(Errc::kPermissionDenied,
               agent_id + " is not activated at the registrar");
  }
  auto ak = crypto::PublicKey::decode(resp.value().ak_pub);
  if (!ak) return err(Errc::kCorrupted, "registrar returned a bad AK");

  AgentRecord rec;
  rec.address = address;
  rec.ak = *ak;
  rec.accumulated_pcr = crypto::zero_digest();
  agents_[agent_id] = std::move(rec);
  return Status::ok_status();
}

Status Verifier::set_policy(const std::string& agent_id, RuntimePolicy policy) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  it->second.revision = PolicyRevision::make(std::move(policy), nullptr);
  return Status::ok_status();
}

Status Verifier::set_revision(const std::string& agent_id,
                              std::shared_ptr<const PolicyRevision> revision) {
  if (revision == nullptr) {
    return err(Errc::kInvalidArgument, "null policy revision for " + agent_id);
  }
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  it->second.revision = std::move(revision);
  return Status::ok_status();
}

Status Verifier::set_policy_bulk(const std::vector<std::string>& agent_ids,
                                 const RuntimePolicy& policy) {
  // One shared revision for the whole batch. The default PolicySink loop
  // would call set_policy per agent: N policy copies, and every
  // solo-verifier agent left on the linear RuntimePolicy scan where one
  // index build covers them all.
  const auto revision = PolicyRevision::make(
      policy, PolicyIndex::build(policy, ++bulk_revision_));
  for (const std::string& id : agent_ids) {
    if (Status s = set_revision(id, revision); !s.ok()) return s;
  }
  return Status::ok_status();
}

std::shared_ptr<const PolicyRevision> Verifier::revision(
    const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? nullptr : it->second.revision;
}

std::uint64_t Verifier::policy_revision_of(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? 0 : it->second.revision->revision();
}

Status Verifier::set_mb_refstate(const std::string& agent_id,
                                 MbRefstate refstate) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  it->second.mb_refstate = refstate;
  return Status::ok_status();
}

Status Verifier::set_boot_baseline(const std::string& agent_id,
                                   std::vector<oskernel::BootEvent> events) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  it->second.boot_baseline = std::move(events);
  return Status::ok_status();
}

Result<BootLogReport> Verifier::attest_boot_log(const std::string& agent_id) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  AgentRecord& rec = it->second;

  // Fetch the claimed event log.
  auto log_bytes = transport_->call(rec.address, kMsgBootLog, {});
  if (!log_bytes.ok()) return log_bytes.error();
  auto log = BootLogResponse::decode(log_bytes.value());
  if (!log.ok()) return log.error();

  // Fetch a fresh quote (no measurement entries needed).
  QuoteRequest req;
  req.nonce = rng_.bytes(20);
  req.log_offset = std::numeric_limits<std::uint64_t>::max();
  auto quote_bytes = transport_->call(rec.address, kMsgQuote, req.encode());
  if (!quote_bytes.ok()) return quote_bytes.error();
  auto resp = QuoteResponse::decode(quote_bytes.value());
  if (!resp.ok()) return resp.error();
  if (!resp.value().quote.verify(rec.ak) ||
      resp.value().quote.nonce !=
          bound_quote_nonce(req.nonce, resp.value().boot_count) ||
      resp.value().quote.pcr_indices != quoted_pcrs()) {
    return err(Errc::kCryptoFailure, "bad quote during boot-log attestation");
  }

  BootLogReport report;

  // The claimed events, folded per PCR from zero, must reproduce the
  // quoted boot-chain PCRs — otherwise the log itself is a lie.
  std::map<int, crypto::Digest> folded;
  for (const auto& event : log.value().events) {
    auto [fold_it, inserted] = folded.emplace(event.pcr, crypto::zero_digest());
    crypto::Sha256 ctx;
    ctx.update(fold_it->second.data(), fold_it->second.size());
    ctx.update(event.digest.data(), event.digest.size());
    fold_it->second = ctx.finish();
  }
  report.log_matches_quote = true;
  const auto& pcrs = quoted_pcrs();
  for (std::size_t i = 0; i + 1 < pcrs.size(); ++i) {  // skip IMA's PCR
    const auto fold_it = folded.find(pcrs[i]);
    const crypto::Digest expected =
        fold_it == folded.end() ? crypto::zero_digest() : fold_it->second;
    if (expected != resp.value().quote.pcr_values[i]) {
      report.log_matches_quote = false;
    }
  }

  // Component-level diff against the golden baseline.
  const auto key = [](const oskernel::BootEvent& e) {
    return std::to_string(e.pcr) + ":" + e.description;
  };
  std::map<std::string, crypto::Digest> baseline;
  for (const auto& e : rec.boot_baseline) baseline[key(e)] = e.digest;
  std::map<std::string, crypto::Digest> current;
  for (const auto& e : log.value().events) current[key(e)] = e.digest;
  for (const auto& [k, digest] : current) {
    auto b = baseline.find(k);
    if (b == baseline.end()) {
      report.added.push_back(k);
    } else if (b->second != digest) {
      report.changed.push_back(k);
    }
  }
  for (const auto& [k, digest] : baseline) {
    (void)digest;
    if (!current.count(k)) report.removed.push_back(k);
  }
  return report;
}

const RuntimePolicy* Verifier::policy(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? nullptr : &it->second.revision->policy;
}

void Verifier::raise(AgentRecord& rec, const std::string& agent_id,
                     AlertType type, std::string path,
                     std::string observed_hash_hex, std::string detail,
                     std::size_t log_index, AttestationRound& round) {
  Alert alert;
  alert.time = clock_->now();
  alert.agent_id = agent_id;
  alert.type = type;
  alert.path = std::move(path);
  alert.observed_hash_hex = std::move(observed_hash_hex);
  alert.detail = std::move(detail);
  alert.log_index = log_index;
  alert.policy_revision = rec.revision->revision();
  // The round's copy is unavoidable (both streams are observable); the
  // durable one is a move of the fully-built alert.
  round.alerts.push_back(alert);
  alerts_.push_back(std::move(alert));
  const Alert& raised = alerts_.back();
  // Formatting the line and its fields allocates per alert; skip all of
  // it when nothing would be delivered — neither printed at the current
  // threshold nor handed to the warn observer — so a mismatch storm on a
  // silenced log does not allocate per entry.
  if (log_line_enabled(LogLevel::kWarn)) {
    log_line(LogLevel::kWarn, "verifier",
             strformat("%s: %s", agent_id.c_str(), alert_type_name(type)),
             {{"agent", agent_id},
              {"path", raised.path},
              {"detail", raised.detail},
              {"log_index", strformat("%zu", log_index)}});
  }
  if (metrics_) {
    metrics_
        ->counter("cia_verifier_alerts_total",
                  {{"agent", agent_id}, {"type", alert_type_name(type)}})
        .inc();
  }
  if (tracer_) {
    tracer_->annotate("alert", alert_type_name(type));
    if (!raised.path.empty()) tracer_->annotate("alert_path", raised.path);
  }
  // Revocation fan-out fires on the healthy -> failed transition only.
  // Under defer_revocations (the pool path: this code runs on a shard
  // worker thread) the event is queued for the driver's round-boundary
  // drain instead of invoking notifiers inline.
  if (rec.state != AgentState::kFailed) {
    RevocationEvent event;
    event.time = clock_->now();
    event.agent_id = agent_id;
    event.reason =
        strformat("%s %s", alert_type_name(type), raised.path.c_str());
    if (config_.defer_revocations) {
      pending_revocations_.push_back(std::move(event));
    } else {
      for (RevocationNotifier* n : notifiers_) n->on_revocation(event);
    }
    if (metrics_) {
      metrics_->counter("cia_verifier_revocations_total", {{"agent", agent_id}})
          .inc();
    }
  }
  rec.state = AgentState::kFailed;
  round.state = AgentState::kFailed;
}

Result<AttestationRound> Verifier::attest_once(const std::string& agent_id) {
  last_quote_digest_ = crypto::zero_digest();
  std::optional<telemetry::Tracer::Scope> round_span;
  if (tracer_) {
    round_span.emplace(tracer_->span("attestation_round", "verifier"));
    tracer_->annotate("agent", agent_id);
  }
  const SimTime started = clock_->now();
  auto result = attest_once_impl(agent_id);
  if (!result.ok()) return result;
  const AttestationRound& round = result.value();

  // Frozen agents (P2) are not polled, so no durable record is produced.
  const bool frozen = round.state == AgentState::kFailed &&
                      round.alerts.empty() && !round.reboot_detected &&
                      round.new_entries == 0 && round.evaluated == 0 &&
                      !config_.continue_on_failure;
  if (!frozen) {
    AuditVerdict verdict = AuditVerdict::kPassed;
    if (round.reboot_detected) {
      verdict = AuditVerdict::kRebootSeen;
    } else if (!round.alerts.empty()) {
      verdict = (round.alerts.size() == 1 &&
                 round.alerts[0].type == AlertType::kCommsFailure)
                    ? AuditVerdict::kUnreachable
                    : AuditVerdict::kFailed;
    }
    audit_.append(clock_->now(), agent_id, verdict, round.alerts.size(),
                  round.evaluated, last_quote_digest_);
  }

  // Observability: classify the round, track the per-agent freshness
  // gauge (the P2 "how stale is this agent's last good attestation"
  // signal), and record the round's virtual latency.
  const bool comms_only =
      round.alerts.size() == 1 &&
      round.alerts[0].type == AlertType::kCommsFailure;
  const char* outcome = frozen                 ? "frozen"
                        : round.reboot_detected ? "reboot"
                        : comms_only            ? "comms_failure"
                        : !round.alerts.empty() ? "alerted"
                                                : "passed";
  auto rec_it = agents_.find(agent_id);
  if (rec_it != agents_.end() && !frozen) {
    AgentRecord& rec = rec_it->second;
    const bool success = round.alerts.empty() && !round.reboot_detected &&
                         rec.state == AgentState::kAttesting;
    rec.rounds_since_success = success ? 0 : rec.rounds_since_success + 1;
    if (metrics_) {
      metrics_
          ->gauge("cia_verifier_rounds_since_success", {{"agent", agent_id}})
          .set(static_cast<double>(rec.rounds_since_success));
    }
  }
  if (metrics_) {
    metrics_
        ->counter("cia_verifier_rounds_total",
                  {{"agent", agent_id}, {"outcome", outcome}})
        .inc();
    if (!frozen) {
      metrics_->histogram("cia_verifier_round_seconds", {{"agent", agent_id}})
          .observe(static_cast<double>(clock_->now() - started));
      if (round.evaluated > 0) {
        metrics_->counter("cia_verifier_entries_evaluated_total",
                          {{"agent", agent_id}})
            .inc(round.evaluated);
      }
    }
  }
  if (round_span) tracer_->annotate(round_span->id(), "outcome", outcome);
  return result;
}

Result<AttestationRound> Verifier::attest_once_impl(const std::string& agent_id) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  AgentRecord& rec = it->second;
  AttestationRound round;
  round.state = rec.state;

  // Stock Keylime: a failed agent is no longer polled (P2). With the
  // mitigation we keep polling and keep evaluating.
  if (rec.state == AgentState::kFailed && !config_.continue_on_failure) {
    return round;
  }

  QuoteRequest req;
  req.nonce = next_nonce(agent_id, rec);
  req.log_offset = rec.log_offset;
  auto resp_bytes = [&] {
    auto span = trace_span("quote_request");
    return transport_->call(rec.address, kMsgQuote, req.encode());
  }();
  if (!resp_bytes.ok()) {
    Alert alert;
    alert.time = clock_->now();
    alert.agent_id = agent_id;
    alert.type = AlertType::kCommsFailure;
    alert.detail = resp_bytes.error().to_string();
    alerts_.push_back(alert);
    round.alerts.push_back(alert);
    return round;  // transient: do not fail the agent on comms errors
  }
  // Zero-copy decode: the entry views borrow resp_bytes, which stays
  // alive (and unmodified) for the rest of this round.
  auto resp = QuoteResponseView::decode(resp_bytes.value());
  if (!resp.ok()) {
    raise(rec, agent_id, AlertType::kQuoteInvalid, "", "",
          "unparseable response: " + resp.error().message, rec.log_offset,
          round);
    return round;
  }
  QuoteResponseView& qr = resp.value();
  last_quote_digest_ = crypto::sha256(qr.quote.attested_message());

  {
    // 1. The quote must be genuine and fresh. The expected nonce binds
    // the response's claimed boot_count under the AK signature
    // (bound_quote_nonce): acting on an unauthenticated reboot signal
    // used to let one garbled response roll log_offset back to zero, so
    // the retry after a transport fault re-fetched the complete log and
    // appraised (and alerted on) every entry a second time.
    auto span = trace_span("tpm_verify");
    if (!qr.quote.verify(rec.ak) ||
        qr.quote.nonce != bound_quote_nonce(req.nonce, qr.boot_count) ||
        qr.quote.pcr_indices != quoted_pcrs()) {
      raise(rec, agent_id, AlertType::kQuoteInvalid, "", "",
            "bad signature, nonce, or PCR selection", rec.log_offset, round);
      return round;
    }

    // 2. Reboot: the agent's measurement list restarted. Reset
    // incremental state; the next round fetches the fresh log from
    // index 0. On first contact (boot_count 0 sentinel) simply adopt
    // the agent's count. Runs only on a verified quote — see step 1.
    if (rec.boot_count == 0) {
      rec.boot_count = qr.boot_count;
    } else if (qr.boot_count != rec.boot_count) {
      rec.boot_count = qr.boot_count;
      rec.log_offset = 0;
      rec.accumulated_pcr = crypto::zero_digest();
      rec.pending.clear();
      round.reboot_detected = true;
      return round;
    }

    // 2b. The boot chain must match the golden refstate, when one is
    // pinned.
    if (rec.mb_refstate) {
      const MbRefstate quoted{qr.quote.pcr_values[0], qr.quote.pcr_values[1],
                              qr.quote.pcr_values[2]};
      if (!(quoted == *rec.mb_refstate)) {
        raise(rec, agent_id, AlertType::kMeasuredBootMismatch, "", "",
              "PCR 0/4/7 diverge from the measured-boot refstate",
              rec.log_offset, round);
        return round;
      }
    }
  }

  {
    auto span = trace_span("ima_appraisal");
    if (tracer_) {
      tracer_->annotate("entries", strformat("%zu", qr.entries.size()));
    }

    // 3+4, block-pipelined. Each entry's template hash must be the hash
    // of its own data — otherwise a man-in-the-middle could swap the
    // path or file hash the policy evaluates while leaving the PCR fold
    // intact — and the shipped fragment must reproduce the quoted
    // PCR 10. The template hashes are independent of each other, so a
    // block of them goes through sha256_batch (multi-lane SHA-NI/AVX2
    // when the host has it); only the PCR fold, an inherently sequential
    // hash chain, runs entry-at-a-time — over already-computed hashes,
    // via the fused two-block pcr_fold. Blocks are checked in entry
    // order before any of their hashes are folded, so the first
    // mismatching entry raises exactly the alert the entry-at-a-time
    // loop raised, and a mismatch discards the whole round's fold just
    // as before. Folding the *recomputed* hash is safe because the
    // equality check just pinned it to the shipped one.
    constexpr std::size_t kVerifyBlock = 128;  // multiple of every lane width
    crypto::HashInput inputs[kVerifyBlock];
    crypto::Digest computed[kVerifyBlock];
    crypto::Digest folded = rec.accumulated_pcr;
    const std::size_t total_entries = qr.entries.size();
    for (std::size_t base = 0; base < total_entries; base += kVerifyBlock) {
      const std::size_t count = std::min(kVerifyBlock, total_entries - base);
      for (std::size_t i = 0; i < count; ++i) {
        const LogEntryView& e = qr.entries[base + i];
        inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                     reinterpret_cast<const std::uint8_t*>(e.path.data()),
                     e.path.size()};
      }
      crypto::sha256_batch(inputs, count, computed);
      for (std::size_t i = 0; i < count; ++i) {
        if (computed[i] != qr.entries[base + i].template_hash) {
          raise(rec, agent_id, AlertType::kReplayMismatch,
                std::string(qr.entries[base + i].path), "",
                "template hash does not match entry data", rec.log_offset,
                round);
          return round;
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        folded = crypto::pcr_fold(folded, computed[i]);
      }
    }
    if (folded != qr.quote.pcr_values[3]) {
      raise(rec, agent_id, AlertType::kReplayMismatch, "", "",
            "measurement list does not reproduce quoted PCR", rec.log_offset,
            round);
      return round;
    }

    // Accept the fragment.
    round.new_entries = qr.entries.size();
    rec.accumulated_pcr = folded;
  }

  // 5. Evaluate against the runtime policy, in order: backlog first
  // (owning entries a halted round or checkpoint restore left behind),
  // then this round's entries appraised in place straight off the
  // decoded views — the accepted fragment only ever touches the heap if
  // evaluation halts and the remainder must outlive the response buffer.
  // Appraisal goes through the bound revision's PolicyIndex when it has
  // one (the snapshot keeps this round's revision alive across a
  // concurrent copy-on-write swap), else the linear RuntimePolicy scan.
  auto span = trace_span("policy_decision");
  const std::shared_ptr<const PolicyRevision> snapshot = rec.revision;
  const std::uint64_t base_offset = rec.log_offset;
  rec.log_offset += qr.entries.size();

  // One entry's step: count it, skip boot_aggregate, appraise, raise on a
  // violation. Returns true when the round must halt on it (P2).
  auto evaluate = [&](std::string_view path, const crypto::Digest& file_hash,
                      const crypto::Digest& template_hash,
                      std::size_t log_index) {
    ++round.evaluated;
    if (path == "boot_aggregate") return false;
    const PolicyMatch match =
        appraise(*snapshot, path, file_hash, template_hash);
    if (match == PolicyMatch::kAllowed || match == PolicyMatch::kExcluded) {
      return false;
    }
    const AlertType type = (match == PolicyMatch::kHashMismatch)
                               ? AlertType::kHashMismatch
                               : AlertType::kNotInPolicy;
    raise(rec, agent_id, type, std::string(path),
          crypto::digest_hex(file_hash), policy_match_name(match), log_index,
          round);
    return !config_.continue_on_failure;
  };

  bool halted = false;
  while (!halted && !rec.pending.empty()) {
    const auto& [index, entry] = rec.pending.front();
    halted = evaluate(entry.path, entry.file_hash, entry.template_hash, index);
    rec.pending.pop_front();
  }
  // A halting entry is judged; the entries after it stay unevaluated.
  std::size_t next = 0;
  while (!halted && next < qr.entries.size()) {
    const LogEntryView& entry = qr.entries[next];
    halted = evaluate(entry.path, entry.file_hash, entry.template_hash,
                      base_offset + next);
    ++next;
  }
  // Entries not evaluated this round are the incomplete-attestation
  // window attackers exploit (P2). Materialize them into the owning
  // backlog — the views die with this round's response buffer.
  for (; next < qr.entries.size(); ++next) {
    rec.pending.emplace_back(base_offset + next, qr.entries[next].materialize());
  }
  if (tracer_) {
    tracer_->annotate("evaluated", strformat("%zu", round.evaluated));
  }
  return round;
}

PolicyMatch Verifier::appraise(const PolicyRevision& revision,
                               std::string_view path,
                               const crypto::Digest& file_hash,
                               const crypto::Digest& template_hash) {
  const PolicyIndex* index = revision.index.get();
  if (!index) {
    // Legacy linear path. No cache here: a cached verdict must be keyed
    // to an index uid so policy swaps invalidate it.
    return revision.policy.check(std::string(path), file_hash);
  }
  if (cache_) {
    if (const auto cached = cache_->lookup(template_hash, index->uid())) {
      return *cached;
    }
  }
  bool known = false;
  const PolicyMatch match = index->check(path, file_hash, &known);
  ++(known ? index_stats_.hits : index_stats_.misses);
  if (cache_) cache_->insert(template_hash, index->uid(), match);
  return match;
}

std::vector<AttestationRound> Verifier::attest_all() {
  std::vector<AttestationRound> rounds;
  for (auto& [agent_id, rec] : agents_) {
    (void)rec;
    auto round = attest_once(agent_id);
    if (round.ok()) rounds.push_back(std::move(round).take());
  }
  return rounds;
}

Status Verifier::resolve_failure(const std::string& agent_id) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  it->second.state = AgentState::kAttesting;
  return Status::ok_status();
}

std::optional<AgentState> Verifier::state(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) return std::nullopt;
  return it->second.state;
}

std::size_t Verifier::pending_entries(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? 0 : it->second.pending.size();
}

std::uint64_t Verifier::rounds_since_success(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  return it == agents_.end() ? 0 : it->second.rounds_since_success;
}

std::vector<Alert> Verifier::alerts_for(const std::string& agent_id) const {
  std::vector<Alert> out;
  for (const auto& a : alerts_) {
    if (a.agent_id == agent_id) out.push_back(a);
  }
  return out;
}

namespace {

Result<crypto::Digest> checkpoint_digest(const json::Value* v,
                                         const char* field) {
  if (!v || !v->is_string()) {
    return err(Errc::kCorrupted,
               std::string("checkpoint: missing digest field ") + field);
  }
  auto bytes = from_hex(v->as_string());
  if (!bytes.ok() || bytes.value().size() != crypto::kSha256Size) {
    return err(Errc::kCorrupted,
               std::string("checkpoint: bad digest in ") + field);
  }
  crypto::Digest d;
  std::copy(bytes.value().begin(), bytes.value().end(), d.begin());
  return d;
}

const json::Value* checkpoint_field(const json::Value& obj, const char* key,
                                    bool (json::Value::*is_type)() const) {
  const json::Value* v = obj.find(key);
  return (v && (v->*is_type)()) ? v : nullptr;
}

}  // namespace

json::Value Verifier::agent_to_json(const std::string& agent_id,
                                    const AgentRecord& rec) const {
  json::Value a;
  a.set("id", agent_id);
  a.set("address", rec.address);
  a.set("ak", to_hex(rec.ak.encode()));
  a.set("policy", rec.revision->policy.to_json());
  a.set("state", rec.state == AgentState::kFailed ? "failed" : "attesting");
  a.set("log_offset", static_cast<std::int64_t>(rec.log_offset));
  a.set("accumulated_pcr", crypto::digest_hex(rec.accumulated_pcr));
  a.set("boot_count", static_cast<std::int64_t>(rec.boot_count));
  a.set("rounds_since_success",
        static_cast<std::int64_t>(rec.rounds_since_success));
  a.set("nonce_counter", static_cast<std::int64_t>(rec.nonce_counter));
  const AuditLog::AgentTail tail = audit_.agent_tail(agent_id);
  a.set("audit_seq", static_cast<std::int64_t>(tail.next_seq));
  a.set("audit_prev", crypto::digest_hex(tail.prev_hash));
  if (rec.mb_refstate) {
    json::Value mb;
    mb.set("pcr0", crypto::digest_hex(rec.mb_refstate->pcr0));
    mb.set("pcr4", crypto::digest_hex(rec.mb_refstate->pcr4));
    mb.set("pcr7", crypto::digest_hex(rec.mb_refstate->pcr7));
    a.set("mb_refstate", std::move(mb));
  }
  if (!rec.boot_baseline.empty()) {
    json::Value events{json::Array{}};
    for (const auto& e : rec.boot_baseline) {
      json::Value ev;
      ev.set("pcr", e.pcr);
      ev.set("description", e.description);
      ev.set("digest", crypto::digest_hex(e.digest));
      events.push_back(std::move(ev));
    }
    a.set("boot_baseline", std::move(events));
  }
  if (!rec.pending.empty()) {
    json::Value pending{json::Array{}};
    for (const auto& [index, entry] : rec.pending) {
      json::Value p;
      p.set("index", static_cast<std::int64_t>(index));
      p.set("pcr", entry.pcr);
      p.set("template_name", entry.template_name);
      p.set("template_hash", crypto::digest_hex(entry.template_hash));
      p.set("file_hash", crypto::digest_hex(entry.file_hash));
      p.set("path", entry.path);
      pending.push_back(std::move(p));
    }
    a.set("pending", std::move(pending));
  }
  return a;
}

json::Value Verifier::checkpoint() const {
  const auto wall_start = std::chrono::steady_clock::now();
  json::Value doc;
  doc.set("version", kCheckpointVersion);
  json::Value agents{json::Array{}};
  for (const auto& [id, rec] : agents_) {
    agents.push_back(agent_to_json(id, rec));
  }
  doc.set("agents", std::move(agents));
  doc.set("audit", export_audit_chain(audit_.records(), audit_.public_key()));
  if (metrics_) {
    metrics_->counter("cia_verifier_checkpoints_total").inc();
    metrics_->gauge("cia_verifier_checkpoint_bytes")
        .set(static_cast<double>(doc.dump().size()));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
    metrics_
        ->histogram("cia_verifier_checkpoint_us", {},
                    telemetry::wallclock_micros_buckets())
        .observe(us);
  }
  return doc;
}

Status Verifier::restore(const json::Value& doc) {
  if (!doc.is_object()) {
    return err(Errc::kCorrupted, "checkpoint is not an object");
  }
  // Version gate: a checkpoint missing the field predates versioning
  // (v1); anything newer than this build writes is refused outright
  // rather than half-understood. Unknown *fields* within a known version
  // are ignored, so appending a field stays forward-compatible.
  std::int64_t version = 1;
  if (const json::Value* v = doc.find("version")) {
    if (!v->is_number() || v->as_int() < 1) {
      return err(Errc::kCorrupted, "checkpoint: bad version field");
    }
    version = v->as_int();
  }
  if (version > kCheckpointVersion) {
    return err(Errc::kInvalidArgument,
               strformat("checkpoint version %lld is newer than the supported "
                         "%d; refusing partial restore",
                         static_cast<long long>(version), kCheckpointVersion));
  }
  const json::Value* agents_field = doc.find("agents");
  const json::Value* audit_field = doc.find("audit");
  if (!agents_field || !agents_field->is_array() || !audit_field) {
    return err(Errc::kCorrupted, "checkpoint is missing agents/audit");
  }

  // The audit chain must be OUR chain: records signed under this
  // verifier's key (derived from the seed). A checkpoint from a
  // different verifier would fork history and is refused.
  auto chain = import_audit_chain(*audit_field);
  if (!chain.ok()) return chain.error();
  if (!(chain.value().second == audit_.public_key())) {
    return err(Errc::kPermissionDenied,
               "checkpoint audit chain was signed by a different verifier");
  }

  std::map<std::string, AgentRecord> restored;
  std::map<std::string, AuditLog::AgentTail> tails;
  for (const json::Value& a : agents_field->as_array()) {
    auto slice = agent_from_json(a);
    if (!slice.ok()) return slice.error();
    ParsedAgentSlice parsed = std::move(slice).take();
    if (parsed.tail) tails[parsed.id] = *parsed.tail;
    restored[parsed.id] = std::move(parsed.record);
  }

  if (Status s = audit_.restore(std::move(chain.value().first)); !s.ok()) {
    return s;
  }
  // Tails rebuilt from the records cover agents whose whole history is in
  // this log; the checkpoint's explicit per-agent tails win for agents
  // that migrated in with a further-along sub-chain.
  for (const auto& [id, tail] : tails) audit_.set_agent_tail(id, tail);
  agents_ = std::move(restored);
  if (metrics_) metrics_->counter("cia_verifier_restores_total").inc();
  return Status::ok_status();
}

Result<Verifier::ParsedAgentSlice> Verifier::agent_from_json(
    const json::Value& a) {
  if (!a.is_object()) return err(Errc::kCorrupted, "checkpoint: bad agent");
  const json::Value* id = checkpoint_field(a, "id", &json::Value::is_string);
  const json::Value* address =
      checkpoint_field(a, "address", &json::Value::is_string);
  const json::Value* ak = checkpoint_field(a, "ak", &json::Value::is_string);
  const json::Value* policy_field = a.find("policy");
  const json::Value* state =
      checkpoint_field(a, "state", &json::Value::is_string);
  const json::Value* log_offset =
      checkpoint_field(a, "log_offset", &json::Value::is_number);
  const json::Value* boot_count =
      checkpoint_field(a, "boot_count", &json::Value::is_number);
  if (!id || !address || !ak || !policy_field || !state || !log_offset ||
      !boot_count) {
    return err(Errc::kCorrupted, "checkpoint: agent missing fields");
  }
  ParsedAgentSlice parsed;
  parsed.id = id->as_string();
  if (parsed.id.empty()) {
    return err(Errc::kCorrupted, "checkpoint: empty agent id");
  }
  AgentRecord& rec = parsed.record;
  rec.address = address->as_string();
  auto ak_bytes = from_hex(ak->as_string());
  if (!ak_bytes.ok()) return err(Errc::kCorrupted, "checkpoint: bad AK hex");
  auto ak_key = crypto::PublicKey::decode(ak_bytes.value());
  if (!ak_key) return err(Errc::kCorrupted, "checkpoint: bad AK encoding");
  rec.ak = *ak_key;
  auto policy = RuntimePolicy::from_json(*policy_field);
  if (!policy.ok()) return policy.error();
  rec.revision = PolicyRevision::make(std::move(policy).take(), nullptr);
  if (state->as_string() == "failed") {
    rec.state = AgentState::kFailed;
  } else if (state->as_string() == "attesting") {
    rec.state = AgentState::kAttesting;
  } else {
    return err(Errc::kCorrupted,
               "checkpoint: bad agent state " + state->as_string());
  }
  if (log_offset->as_int() < 0 || boot_count->as_int() < 0) {
    return err(Errc::kCorrupted, "checkpoint: negative counter");
  }
  rec.log_offset = static_cast<std::uint64_t>(log_offset->as_int());
  auto pcr = checkpoint_digest(a.find("accumulated_pcr"), "accumulated_pcr");
  if (!pcr.ok()) return pcr.error();
  rec.accumulated_pcr = pcr.value();
  rec.boot_count = static_cast<std::uint32_t>(boot_count->as_int());
  if (const json::Value* rss =
          checkpoint_field(a, "rounds_since_success",
                           &json::Value::is_number)) {
    if (rss->as_int() < 0) {
      return err(Errc::kCorrupted, "checkpoint: negative counter");
    }
    rec.rounds_since_success = static_cast<std::uint64_t>(rss->as_int());
  }
  if (const json::Value* nc =
          checkpoint_field(a, "nonce_counter", &json::Value::is_number)) {
    if (nc->as_int() < 0) {
      return err(Errc::kCorrupted, "checkpoint: negative counter");
    }
    rec.nonce_counter = static_cast<std::uint64_t>(nc->as_int());
  }
  // The audit sub-chain tail (absent in v1 checkpoints, which predate
  // per-agent chains): both halves must be present together.
  if (const json::Value* aseq = a.find("audit_seq")) {
    if (!aseq->is_number() || aseq->as_int() < 0) {
      return err(Errc::kCorrupted, "checkpoint: bad audit_seq");
    }
    auto aprev = checkpoint_digest(a.find("audit_prev"), "audit_prev");
    if (!aprev.ok()) return aprev.error();
    parsed.tail = AuditLog::AgentTail{
        static_cast<std::uint64_t>(aseq->as_int()), aprev.value()};
  } else if (a.find("audit_prev")) {
    return err(Errc::kCorrupted, "checkpoint: audit_prev without audit_seq");
  }
  if (const json::Value* mb = a.find("mb_refstate")) {
    MbRefstate ref;
    auto p0 = checkpoint_digest(mb->find("pcr0"), "pcr0");
    auto p4 = checkpoint_digest(mb->find("pcr4"), "pcr4");
    auto p7 = checkpoint_digest(mb->find("pcr7"), "pcr7");
    if (!p0.ok()) return p0.error();
    if (!p4.ok()) return p4.error();
    if (!p7.ok()) return p7.error();
    ref.pcr0 = p0.value();
    ref.pcr4 = p4.value();
    ref.pcr7 = p7.value();
    rec.mb_refstate = ref;
  }
  if (const json::Value* events = a.find("boot_baseline")) {
    if (!events->is_array()) {
      return err(Errc::kCorrupted, "checkpoint: bad boot_baseline");
    }
    for (const json::Value& ev : events->as_array()) {
      const json::Value* pcr_field =
          checkpoint_field(ev, "pcr", &json::Value::is_number);
      const json::Value* description =
          checkpoint_field(ev, "description", &json::Value::is_string);
      auto digest = checkpoint_digest(ev.find("digest"), "digest");
      if (!pcr_field || !description) {
        return err(Errc::kCorrupted, "checkpoint: bad boot event");
      }
      if (!digest.ok()) return digest.error();
      oskernel::BootEvent event;
      event.pcr = static_cast<int>(pcr_field->as_int());
      event.description = description->as_string();
      event.digest = digest.value();
      rec.boot_baseline.push_back(std::move(event));
    }
  }
  if (const json::Value* pending = a.find("pending")) {
    if (!pending->is_array()) {
      return err(Errc::kCorrupted, "checkpoint: bad pending list");
    }
    for (const json::Value& p : pending->as_array()) {
      const json::Value* index =
          checkpoint_field(p, "index", &json::Value::is_number);
      const json::Value* pcr_field =
          checkpoint_field(p, "pcr", &json::Value::is_number);
      const json::Value* template_name =
          checkpoint_field(p, "template_name", &json::Value::is_string);
      const json::Value* path =
          checkpoint_field(p, "path", &json::Value::is_string);
      auto template_hash =
          checkpoint_digest(p.find("template_hash"), "template_hash");
      auto file_hash = checkpoint_digest(p.find("file_hash"), "file_hash");
      if (!index || !pcr_field || !template_name || !path) {
        return err(Errc::kCorrupted, "checkpoint: bad pending entry");
      }
      if (index->as_int() < 0) {
        return err(Errc::kCorrupted, "checkpoint: negative pending index");
      }
      if (!template_hash.ok()) return template_hash.error();
      if (!file_hash.ok()) return file_hash.error();
      ima::LogEntry entry;
      entry.pcr = static_cast<int>(pcr_field->as_int());
      entry.template_name = template_name->as_string();
      entry.template_hash = template_hash.value();
      entry.file_hash = file_hash.value();
      entry.path = path->as_string();
      rec.pending.emplace_back(static_cast<std::uint64_t>(index->as_int()),
                               std::move(entry));
    }
  }
  return parsed;
}

Result<json::Value> Verifier::export_agent(const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  return agent_to_json(agent_id, it->second);
}

Status Verifier::import_agent(const json::Value& slice) {
  auto parsed = agent_from_json(slice);
  if (!parsed.ok()) return parsed.error();
  ParsedAgentSlice p = std::move(parsed).take();
  // All validation is done; commit atomically. Replace-by-id makes a
  // duplicated handoff message harmless.
  if (p.tail) audit_.set_agent_tail(p.id, *p.tail);
  agents_[p.id] = std::move(p.record);
  return Status::ok_status();
}

Status Verifier::remove_agent(const std::string& agent_id) {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) {
    return err(Errc::kNotFound, "unknown agent " + agent_id);
  }
  agents_.erase(it);
  audit_.drop_agent_tail(agent_id);
  return Status::ok_status();
}

Status Verifier::validate_agent_slice(const json::Value& slice) {
  auto parsed = agent_from_json(slice);
  if (!parsed.ok()) return parsed.error();
  return Status::ok_status();
}

void Verifier::seed_audit_tail(const std::string& agent_id,
                               const AuditLog::AgentTail& tail) {
  audit_.set_agent_tail(agent_id, tail);
}

std::optional<std::string> Verifier::agent_address(
    const std::string& agent_id) const {
  auto it = agents_.find(agent_id);
  if (it == agents_.end()) return std::nullopt;
  return it->second.address;
}

std::vector<std::string> Verifier::agent_ids() const {
  std::vector<std::string> out;
  out.reserve(agents_.size());
  for (const auto& [id, rec] : agents_) {
    (void)rec;
    out.push_back(id);
  }
  return out;
}

}  // namespace cia::keylime
