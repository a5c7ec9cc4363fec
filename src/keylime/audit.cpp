#include "keylime/audit.hpp"

#include <utility>

#include "common/hex.hpp"
#include "common/strutil.hpp"

namespace cia::keylime {

const char* audit_verdict_name(AuditVerdict v) {
  switch (v) {
    case AuditVerdict::kPassed: return "passed";
    case AuditVerdict::kFailed: return "failed";
    case AuditVerdict::kRebootSeen: return "reboot";
    case AuditVerdict::kUnreachable: return "unreachable";
  }
  return "?";
}

crypto::Digest AuditRecord::compute_hash() const {
  crypto::Sha256 ctx;
  ctx.update(strformat("audit:%llu:%lld:%s:%s:%zu:%zu:%llu:",
                       static_cast<unsigned long long>(sequence),
                       static_cast<long long>(time), agent_id.c_str(),
                       audit_verdict_name(verdict), alerts,
                       log_entries_evaluated,
                       static_cast<unsigned long long>(agent_seq)));
  ctx.update(quote_digest.data(), quote_digest.size());
  ctx.update(prev_hash.data(), prev_hash.size());
  ctx.update(agent_prev_hash.data(), agent_prev_hash.size());
  return ctx.finish();
}

crypto::Digest AuditRecord::agent_hash() const {
  crypto::Sha256 ctx;
  ctx.update(strformat("agentaudit:%llu:%lld:%s:%s:%zu:%zu:",
                       static_cast<unsigned long long>(agent_seq),
                       static_cast<long long>(time), agent_id.c_str(),
                       audit_verdict_name(verdict), alerts,
                       log_entries_evaluated));
  ctx.update(quote_digest.data(), quote_digest.size());
  ctx.update(agent_prev_hash.data(), agent_prev_hash.size());
  return ctx.finish();
}

const AuditRecord& AuditLog::append(SimTime time, const std::string& agent_id,
                                    AuditVerdict verdict, std::size_t alerts,
                                    std::size_t evaluated,
                                    const crypto::Digest& quote_digest) {
  AgentTail& tail = tails_[agent_id];
  AuditRecord record;
  record.sequence = records_.size();
  record.time = time;
  record.agent_id = agent_id;
  record.verdict = verdict;
  record.alerts = alerts;
  record.log_entries_evaluated = evaluated;
  record.agent_seq = tail.next_seq;
  record.quote_digest = quote_digest;
  record.prev_hash =
      records_.empty() ? crypto::zero_digest() : records_.back().record_hash;
  record.agent_prev_hash = tail.prev_hash;
  record.record_hash = record.compute_hash();
  record.signature = crypto::sign(key_, crypto::digest_bytes(record.record_hash));
  tail.next_seq = record.agent_seq + 1;
  tail.prev_hash = record.agent_hash();
  records_.push_back(std::move(record));
  return records_.back();
}

crypto::Digest AuditLog::head() const {
  return records_.empty() ? crypto::zero_digest() : records_.back().record_hash;
}

AuditLog::AgentTail AuditLog::agent_tail(const std::string& agent_id) const {
  auto it = tails_.find(agent_id);
  if (it == tails_.end()) return AgentTail{0, crypto::zero_digest()};
  return it->second;
}

void AuditLog::set_agent_tail(const std::string& agent_id,
                              const AgentTail& tail) {
  tails_[agent_id] = tail;
}

void AuditLog::drop_agent_tail(const std::string& agent_id) {
  tails_.erase(agent_id);
}

Status AuditLog::restore(std::vector<AuditRecord> records) {
  if (Status s = verify_audit_chain(records, key_.pub); !s.ok()) return s;
  records_ = std::move(records);
  tails_.clear();
  for (const AuditRecord& r : records_) {
    tails_[r.agent_id] = AgentTail{r.agent_seq + 1, r.agent_hash()};
  }
  return Status::ok_status();
}

namespace {

json::Value digest_json(const crypto::Digest& d) {
  return json::Value(crypto::digest_hex(d));
}

Result<crypto::Digest> digest_from_json(const json::Value* v,
                                        const char* field) {
  if (!v || !v->is_string()) {
    return err(Errc::kCorrupted, std::string("missing digest field ") + field);
  }
  auto bytes = from_hex(v->as_string());
  if (!bytes.ok() || bytes.value().size() != crypto::kSha256Size) {
    return err(Errc::kCorrupted, std::string("bad digest in ") + field);
  }
  crypto::Digest d;
  std::copy(bytes.value().begin(), bytes.value().end(), d.begin());
  return d;
}

}  // namespace

json::Value AuditRecord::to_json() const {
  json::Value doc;
  doc.set("sequence", static_cast<std::int64_t>(sequence));
  doc.set("time", static_cast<std::int64_t>(time));
  doc.set("agent", agent_id);
  doc.set("verdict", audit_verdict_name(verdict));
  doc.set("alerts", alerts);
  doc.set("evaluated", log_entries_evaluated);
  doc.set("agent_seq", static_cast<std::int64_t>(agent_seq));
  doc.set("quote_digest", digest_json(quote_digest));
  doc.set("prev_hash", digest_json(prev_hash));
  doc.set("agent_prev", digest_json(agent_prev_hash));
  doc.set("record_hash", digest_json(record_hash));
  doc.set("signature", to_hex(signature.encode()));
  return doc;
}

Result<AuditRecord> AuditRecord::from_json(const json::Value& doc) {
  if (!doc.is_object()) return err(Errc::kCorrupted, "record is not an object");
  AuditRecord r;
  const json::Value* seq = doc.find("sequence");
  const json::Value* time_field = doc.find("time");
  const json::Value* agent = doc.find("agent");
  const json::Value* verdict = doc.find("verdict");
  const json::Value* alerts = doc.find("alerts");
  const json::Value* evaluated = doc.find("evaluated");
  const json::Value* agent_seq = doc.find("agent_seq");
  const json::Value* signature = doc.find("signature");
  if (!seq || !seq->is_number() || !time_field || !time_field->is_number() ||
      !agent || !agent->is_string() || !verdict || !verdict->is_string() ||
      !alerts || !alerts->is_number() || !evaluated ||
      !evaluated->is_number() || !agent_seq || !agent_seq->is_number() ||
      agent_seq->as_int() < 0 || !signature || !signature->is_string()) {
    return err(Errc::kCorrupted, "record is missing required fields");
  }
  r.sequence = static_cast<std::uint64_t>(seq->as_int());
  r.agent_seq = static_cast<std::uint64_t>(agent_seq->as_int());
  r.time = time_field->as_int();
  r.agent_id = agent->as_string();
  const std::string verdict_name = verdict->as_string();
  if (verdict_name == "passed") {
    r.verdict = AuditVerdict::kPassed;
  } else if (verdict_name == "failed") {
    r.verdict = AuditVerdict::kFailed;
  } else if (verdict_name == "reboot") {
    r.verdict = AuditVerdict::kRebootSeen;
  } else if (verdict_name == "unreachable") {
    r.verdict = AuditVerdict::kUnreachable;
  } else {
    return err(Errc::kCorrupted, "bad verdict " + verdict_name);
  }
  r.alerts = static_cast<std::size_t>(alerts->as_int());
  r.log_entries_evaluated = static_cast<std::size_t>(evaluated->as_int());
  auto quote_digest = digest_from_json(doc.find("quote_digest"), "quote_digest");
  if (!quote_digest.ok()) return quote_digest.error();
  r.quote_digest = quote_digest.value();
  auto prev = digest_from_json(doc.find("prev_hash"), "prev_hash");
  if (!prev.ok()) return prev.error();
  r.prev_hash = prev.value();
  auto agent_prev = digest_from_json(doc.find("agent_prev"), "agent_prev");
  if (!agent_prev.ok()) return agent_prev.error();
  r.agent_prev_hash = agent_prev.value();
  auto hash = digest_from_json(doc.find("record_hash"), "record_hash");
  if (!hash.ok()) return hash.error();
  r.record_hash = hash.value();
  auto sig_bytes = from_hex(signature->as_string());
  if (!sig_bytes.ok()) return err(Errc::kCorrupted, "bad signature hex");
  auto sig = crypto::Signature::decode(sig_bytes.value());
  if (!sig) return err(Errc::kCorrupted, "bad signature encoding");
  r.signature = *sig;
  return r;
}

json::Value export_audit_chain(const std::vector<AuditRecord>& records,
                               const crypto::PublicKey& verifier_key) {
  json::Value doc;
  doc.set("verifier_key", to_hex(verifier_key.encode()));
  json::Value list{json::Array{}};
  for (const AuditRecord& r : records) list.push_back(r.to_json());
  doc.set("records", std::move(list));
  return doc;
}

Result<std::pair<std::vector<AuditRecord>, crypto::PublicKey>>
import_audit_chain(const json::Value& doc) {
  if (!doc.is_object()) return err(Errc::kCorrupted, "chain is not an object");
  const json::Value* key_field = doc.find("verifier_key");
  const json::Value* records_field = doc.find("records");
  if (!key_field || !key_field->is_string() || !records_field ||
      !records_field->is_array()) {
    return err(Errc::kCorrupted, "chain is missing fields");
  }
  auto key_bytes = from_hex(key_field->as_string());
  if (!key_bytes.ok()) return err(Errc::kCorrupted, "bad verifier key hex");
  auto key = crypto::PublicKey::decode(key_bytes.value());
  if (!key) return err(Errc::kCorrupted, "bad verifier key");
  std::vector<AuditRecord> records;
  for (const json::Value& entry : records_field->as_array()) {
    auto record = AuditRecord::from_json(entry);
    if (!record.ok()) return record.error();
    records.push_back(std::move(record).take());
  }
  return std::make_pair(std::move(records), *key);
}

Status verify_audit_chain(const std::vector<AuditRecord>& records,
                          const crypto::PublicKey& verifier_key) {
  crypto::Digest prev = crypto::zero_digest();
  std::map<std::string, AuditLog::AgentTail> tails;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AuditRecord& r = records[i];
    if (r.sequence != i) {
      return err(Errc::kCorrupted,
                 strformat("record %zu: bad sequence number", i));
    }
    if (r.prev_hash != prev) {
      return err(Errc::kCorrupted, strformat("record %zu: broken chain", i));
    }
    if (r.record_hash != r.compute_hash()) {
      return err(Errc::kCorrupted, strformat("record %zu: tampered fields", i));
    }
    if (!crypto::verify(verifier_key, crypto::digest_bytes(r.record_hash),
                        r.signature)) {
      return err(Errc::kCorrupted, strformat("record %zu: bad signature", i));
    }
    // Per-agent sub-chain: the first record for an agent may continue a
    // chain begun elsewhere (it migrated in), so any starting point is
    // legal. A later record may jump forward in agent_seq: the agent left
    // and came back, and the records in between sit on other shards. This
    // log's hash chain and signatures still pin every record in it. Going
    // back (an equal or lower agent_seq) is a fork, and the expected
    // agent_seq must link to the previous record's agent_hash.
    auto it = tails.find(r.agent_id);
    if (it != tails.end() &&
        (r.agent_seq < it->second.next_seq ||
         (r.agent_seq == it->second.next_seq &&
          r.agent_prev_hash != it->second.prev_hash))) {
      return err(Errc::kCorrupted,
                 strformat("record %zu: broken agent sub-chain for %s", i,
                           r.agent_id.c_str()));
    }
    tails[r.agent_id] = AuditLog::AgentTail{r.agent_seq + 1, r.agent_hash()};
    prev = r.record_hash;
  }
  return Status::ok_status();
}

}  // namespace cia::keylime
