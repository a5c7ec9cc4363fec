#include "testkit/targets.hpp"

#include <memory>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "crypto/cert.hpp"
#include "crypto/sha256.hpp"
#include "ima/ima.hpp"
#include "keylime/agent.hpp"
#include "keylime/alert_pipeline/incident.hpp"
#include "keylime/messages.hpp"
#include "keylime/migration.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/registrar.hpp"
#include "keylime/runtime_policy.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "oskernel/machine.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/export.hpp"
#include "testkit/generators.hpp"

namespace cia::testkit {

namespace {

// ------------------------------------------------------- ima_log_entry

FuzzOutcome run_ima_log_entry(const Bytes& input) {
  const std::string line = to_string(input);
  auto parsed = ima::LogEntry::parse(line);
  if (!parsed.ok()) return FuzzOutcome::rejected();
  const std::string rendered = parsed.value().to_string();
  auto reparsed = ima::LogEntry::parse(rendered);
  if (!reparsed.ok()) {
    return FuzzOutcome::violation("accepted line failed to re-parse: " +
                                  reparsed.error().to_string());
  }
  if (reparsed.value().to_string() != rendered) {
    return FuzzOutcome::violation("render/parse is not a fixed point");
  }
  return FuzzOutcome::accepted();
}

// ---------------------------------------------------------------- json

FuzzOutcome run_json(const Bytes& input) {
  auto parsed = json::parse(to_string(input));
  if (!parsed.ok()) return FuzzOutcome::rejected();
  const std::string compact = parsed.value().dump();
  auto reparsed = json::parse(compact);
  if (!reparsed.ok()) {
    return FuzzOutcome::violation("dump failed to re-parse: " +
                                  reparsed.error().to_string());
  }
  if (!(reparsed.value() == parsed.value())) {
    return FuzzOutcome::violation("dump/parse changed the value");
  }
  auto from_pretty = json::parse(parsed.value().pretty());
  if (!from_pretty.ok() || !(from_pretty.value() == parsed.value())) {
    return FuzzOutcome::violation("pretty/parse changed the value");
  }
  return FuzzOutcome::accepted();
}

// ------------------------------------------------------ runtime_policy

FuzzOutcome run_runtime_policy(const Bytes& input) {
  auto parsed = keylime::RuntimePolicy::parse(to_string(input));
  if (!parsed.ok()) return FuzzOutcome::rejected();
  const keylime::RuntimePolicy& policy = parsed.value();
  const std::string canonical = policy.serialize();
  auto reparsed = keylime::RuntimePolicy::parse(canonical);
  if (!reparsed.ok()) {
    return FuzzOutcome::violation("serialize failed to re-parse: " +
                                  reparsed.error().to_string());
  }
  if (reparsed.value().serialize() != canonical ||
      reparsed.value().entry_count() != policy.entry_count() ||
      reparsed.value().path_count() != policy.path_count()) {
    return FuzzOutcome::violation("serialize/parse is not a fixed point");
  }
  // The JSON representation must agree with the text one.
  auto from_json = keylime::RuntimePolicy::from_json(policy.to_json());
  if (!from_json.ok()) {
    return FuzzOutcome::violation("to_json failed to re-import: " +
                                  from_json.error().to_string());
  }
  if (from_json.value().serialize() != canonical) {
    return FuzzOutcome::violation("JSON round trip diverged from text form");
  }
  // The streamed digest must hash exactly the DOM's canonical bytes;
  // parse() admits arbitrary path bytes, so every escape branch shows.
  if (keylime::policy_store::policy_digest(policy) !=
      crypto::digest_hex(crypto::sha256(policy.to_json().dump()))) {
    return FuzzOutcome::violation(
        "streamed policy digest diverged from the canonical JSON");
  }
  // The digest memo: a copy carries the digest just taken, and a mutation
  // must drop it. One mutator, picked and fed by the input's own hash,
  // then the DOM oracle again.
  keylime::RuntimePolicy mutated = policy;
  const crypto::Digest pick = crypto::sha256(input);
  std::string listed = "/fuzz/" + crypto::digest_hex(pick).substr(0, 8);
  std::size_t skip =
      policy.path_count() > 0 ? pick[1] % policy.path_count() : 0;
  policy.for_each_path(
      [&](const std::string& path, const std::vector<crypto::Digest>&) {
        if (skip-- == 0) listed = path;
      });
  switch (pick[0] % 9) {
    case 0:
      mutated.allow(listed, pick);
      break;
    case 1:
      mutated.exclude(listed + "/*");
      break;
    case 2:
      mutated.set_excludes(policy.excludes().empty()
                               ? std::vector<std::string>{listed}
                               : std::vector<std::string>{});
      break;
    case 3:
      mutated.set_hashes(listed, {pick});
      break;
    case 4:
      (void)mutated.remove_path(listed);
      break;
    case 5:
      (void)mutated.remove_prefix(listed.substr(0, pick[2] % 4));
      break;
    case 6:
      (void)mutated.dedup();
      break;
    case 7: {
      keylime::RuntimePolicy other;
      other.allow(listed + "/merged", pick);
      other.exclude(listed);
      mutated.merge(other);
      break;
    }
    default:  // move-assigned from a policy never hashed
      mutated = keylime::RuntimePolicy();
      break;
  }
  if (keylime::policy_store::policy_digest(mutated) !=
      crypto::digest_hex(crypto::sha256(mutated.to_json().dump()))) {
    return FuzzOutcome::violation(
        "policy digest survived a mutation of the policy");
  }
  return FuzzOutcome::accepted();
}

// ---------------------------------------------------------------- wire

// Decode the input as every Keylime message; any acceptance must
// re-encode byte-identically (the format is canonical, so decode ∘
// encode is the identity on valid frames).
FuzzOutcome run_wire(const Bytes& input) {
  bool any_accepted = false;
  const auto check = [&](const char* what, const auto& decoded) -> std::string {
    if (!decoded.ok()) return {};
    any_accepted = true;
    if (decoded.value().encode() != input) {
      return std::string(what) + " re-encode diverged from input";
    }
    return {};
  };
  if (auto d = check("RegisterRequest", keylime::RegisterRequest::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d =
          check("RegisterChallenge", keylime::RegisterChallenge::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d = check("ActivateRequest", keylime::ActivateRequest::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d = check("GetAgentRequest", keylime::GetAgentRequest::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d =
          check("GetAgentResponse", keylime::GetAgentResponse::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d = check("QuoteRequest", keylime::QuoteRequest::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d = check("QuoteResponse", keylime::QuoteResponse::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  if (auto d = check("BootLogResponse", keylime::BootLogResponse::decode(input));
      !d.empty()) {
    return FuzzOutcome::violation(d);
  }
  return any_accepted ? FuzzOutcome::accepted() : FuzzOutcome::rejected();
}

// ---------------------------------------------------------- checkpoint

// Seed shared by the sample-checkpoint rig and the restoring verifiers:
// restore() refuses audit chains signed by a different key, so deep
// coverage needs the keys to line up.
constexpr std::uint64_t kCheckpointSeed = 0x5eedc1a0;

/// A minimal enrolled deployment used to mint genuine checkpoints.
struct CheckpointRig {
  SimClock clock;
  crypto::CertificateAuthority ca{"testkit-mfg", to_bytes("testkit-ca-seed")};
  netsim::SimNetwork network{&clock, 0x7357};
  keylime::Registrar registrar{&network, &clock, 0x7357 ^ 1};
  keylime::Verifier verifier{&network, &clock, kCheckpointSeed};
  std::vector<std::unique_ptr<oskernel::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;

  CheckpointRig() {
    registrar.trust_manufacturer(ca.public_key());
    for (int i = 0; i < 2; ++i) {
      oskernel::MachineConfig cfg;
      cfg.hostname = "tk-node-" + std::to_string(i);
      cfg.seed = kCheckpointSeed + static_cast<std::uint64_t>(i);
      machines.push_back(std::make_unique<oskernel::Machine>(cfg, ca, &clock));
      agents.push_back(
          std::make_unique<keylime::Agent>(machines.back().get(), &network));
      if (!agents.back()->register_with(keylime::Registrar::address()).ok()) {
        continue;
      }
      (void)verifier.add_agent(cfg.hostname, agents.back()->address());
    }
  }

  void run_activity(bool tamper) {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      auto& machine = *machines[i];
      for (int f = 0; f < 3; ++f) {
        const std::string path =
            "/usr/bin/tk" + std::to_string(i) + "-" + std::to_string(f);
        (void)machine.fs().create_file(path, to_bytes("elf:" + path), true);
        (void)machine.exec(path);
      }
      keylime::RuntimePolicy policy;
      for (const auto& entry : machine.ima().log()) {
        policy.allow(entry.path, entry.file_hash);
      }
      (void)verifier.set_policy(machine.hostname(), policy);
      (void)verifier.attest_once(machine.hostname());
      if (tamper && i == 0) {
        // Leave agent 0 FAILED with pending entries: the checkpoint then
        // covers the quarantine/pending branches of restore(). The entry
        // measured after the implant is the backlog the halt leaves.
        const std::string mal = "/tmp/tk-implant";
        (void)machine.fs().create_file(mal, to_bytes("elf:implant"), true);
        (void)machine.exec(mal);
        const std::string after = "/usr/bin/tk-after-implant";
        (void)machine.fs().create_file(after, to_bytes("elf:" + after), true);
        (void)machine.exec(after);
        (void)verifier.attest_once(machine.hostname());
      }
      clock.advance(60);
    }
  }
};

/// Genuine checkpoint documents, minted once: a fresh enrolment, a
/// healthy fleet, and a fleet with a failed agent.
const std::vector<Bytes>& sample_checkpoints() {
  static const std::vector<Bytes> kSamples = [] {
    std::vector<Bytes> samples;
    {
      CheckpointRig rig;
      samples.push_back(to_bytes(rig.verifier.checkpoint().dump()));
      rig.run_activity(/*tamper=*/false);
      samples.push_back(to_bytes(rig.verifier.checkpoint().dump()));
    }
    {
      CheckpointRig rig;
      rig.run_activity(/*tamper=*/true);
      samples.push_back(to_bytes(rig.verifier.checkpoint().dump()));
    }
    return samples;
  }();
  return kSamples;
}

/// Does every backlog entry of an agent slice carry the template hash of
/// its own (file_hash, path)? Indexed appraisal answers an entry from
/// that hash alone, so restore() and import_agent() must never admit a
/// slice where this fails.
bool backlog_hashes_are_own(const json::Value& slice) {
  const json::Value* pending = slice.find("pending");
  if (pending == nullptr || !pending->is_array()) return true;
  for (const json::Value& p : pending->as_array()) {
    const json::Value* path = p.find("path");
    const json::Value* file_hex = p.find("file_hash");
    const json::Value* template_hex = p.find("template_hash");
    crypto::Digest file_hash{}, template_hash{};
    if (path == nullptr || !path->is_string() || file_hex == nullptr ||
        !file_hex->is_string() || template_hex == nullptr ||
        !template_hex->is_string() ||
        !hex_decode(file_hex->as_string(), file_hash.data(),
                    file_hash.size()) ||
        !hex_decode(template_hex->as_string(), template_hash.data(),
                    template_hash.size())) {
      return false;
    }
    if (template_hash !=
        crypto::template_hash_of(file_hash, path->as_string())) {
      return false;
    }
  }
  return true;
}

FuzzOutcome run_checkpoint(const Bytes& input) {
  auto doc = json::parse(to_string(input));
  if (!doc.ok()) return FuzzOutcome::rejected();

  // One long-lived restore rig: restore() fully replaces agent and audit
  // state on success and leaves them untouched on failure, so reuse is
  // deterministic and saves a key derivation per execution.
  struct RestoreRig {
    SimClock clock;
    netsim::SimNetwork network{&clock, 1};
    keylime::Verifier primary{&network, &clock, kCheckpointSeed};
    keylime::Verifier secondary{&network, &clock, kCheckpointSeed};
  };
  static RestoreRig* rig = new RestoreRig();

  if (!rig->primary.restore(doc.value()).ok()) return FuzzOutcome::rejected();
  for (const json::Value& agent : doc.value().find("agents")->as_array()) {
    if (!backlog_hashes_are_own(agent)) {
      return FuzzOutcome::violation(
          "restore() admitted a backlog entry whose template hash is not "
          "its own");
    }
  }
  const std::string first = rig->primary.checkpoint().dump();
  auto first_doc = json::parse(first);
  if (!first_doc.ok()) {
    return FuzzOutcome::violation("checkpoint of restored state is not JSON");
  }
  if (!rig->secondary.restore(first_doc.value()).ok()) {
    return FuzzOutcome::violation(
        "checkpoint of restored state failed to restore");
  }
  if (rig->secondary.checkpoint().dump() != first) {
    return FuzzOutcome::violation("checkpoint/restore is not a fixed point");
  }
  return FuzzOutcome::accepted();
}

Bytes gen_checkpoint(Rng& rng) {
  const auto& samples = sample_checkpoints();
  return samples[rng.uniform(samples.size())];
}

// ----------------------------------------------------------- migration

/// Genuine handoff payloads, minted once from an enrolled rig: real
/// agent slices wrapped in real envelopes, the way a pool resize puts
/// them on the wire.
const std::vector<Bytes>& sample_handoffs() {
  static const std::vector<Bytes> kSamples = [] {
    std::vector<Bytes> samples;
    CheckpointRig rig;
    rig.run_activity(/*tamper=*/true);
    std::uint64_t shard = 0;
    for (const std::string& id : rig.verifier.agent_ids()) {
      auto slice = rig.verifier.export_agent(id);
      if (!slice.ok()) continue;
      keylime::HandoffPayload p;
      p.agent_id = id;
      p.source_shard = shard;
      p.dest_shard = shard + 1;
      p.agent_slice = slice.value();
      p.schedule.next_poll = 60 * (shard + 1);
      p.schedule.current_backoff = 30 * shard;
      p.schedule.polls = shard + 2;
      p.schedule.comms_failures = shard;
      samples.push_back(p.encode());
      ++shard;
    }
    return samples;
  }();
  return kSamples;
}

FuzzOutcome run_migration(const Bytes& input) {
  auto decoded = keylime::HandoffPayload::decode(input);
  if (!decoded.ok()) return FuzzOutcome::rejected();
  const keylime::HandoffPayload& p = decoded.value();

  // Accepted payloads must survive a canonical round trip.
  const Bytes wire = p.encode();
  auto redecoded = keylime::HandoffPayload::decode(wire);
  if (!redecoded.ok()) {
    return FuzzOutcome::violation("accepted payload failed to re-decode: " +
                                  redecoded.error().to_string());
  }
  if (redecoded.value().encode() != wire) {
    return FuzzOutcome::violation("encode/decode is not a fixed point");
  }

  // The receiving shard applies a decoded payload via import_agent, which
  // must be transactional: a rejected slice leaves the destination
  // verifier byte-identical (a partial apply here is a forked audit
  // chain waiting to happen). The slice carries no policy, so the rig
  // binds the shared empty revision, as a pool binds the one the
  // agent's owning shard holds. A long-lived rig keeps executions cheap;
  // the baseline restore keeps them deterministic.
  struct ImportRig {
    SimClock clock;
    netsim::SimNetwork network{&clock, 2};
    keylime::Verifier dst{&network, &clock, kCheckpointSeed};
    json::Value baseline;
    ImportRig() : baseline(dst.checkpoint()) {}
  };
  static ImportRig* rig = new ImportRig();

  const std::string before = rig->dst.checkpoint().dump();
  if (rig->dst.import_agent(p.agent_slice, keylime::PolicyRevision::empty())
          .ok()) {
    if (!backlog_hashes_are_own(p.agent_slice)) {
      return FuzzOutcome::violation(
          "import_agent() admitted a backlog entry whose template hash is "
          "not its own");
    }
    if (!rig->dst.restore(rig->baseline).ok()) {
      return FuzzOutcome::violation("rig baseline restore failed after import");
    }
  } else if (rig->dst.checkpoint().dump() != before) {
    return FuzzOutcome::violation("failed import partially applied");
  }
  return FuzzOutcome::accepted();
}

Bytes gen_migration(Rng& rng) {
  const auto& samples = sample_handoffs();
  return samples[rng.uniform(samples.size())];
}

// -------------------------------------------------- telemetry_snapshot

FuzzOutcome run_telemetry_snapshot(const Bytes& input) {
  auto doc = json::parse(to_string(input));
  if (!doc.ok()) return FuzzOutcome::rejected();
  auto snap = telemetry::snapshot_from_json(doc.value());
  if (!snap.ok()) return FuzzOutcome::rejected();
  const std::string canonical = telemetry::to_json(snap.value()).dump();
  auto redoc = json::parse(canonical);
  if (!redoc.ok()) {
    return FuzzOutcome::violation("canonical snapshot is not JSON");
  }
  auto resnap = telemetry::snapshot_from_json(redoc.value());
  if (!resnap.ok()) {
    return FuzzOutcome::violation("canonical snapshot failed to re-import: " +
                                  resnap.error().to_string());
  }
  if (telemetry::to_json(resnap.value()).dump() != canonical) {
    return FuzzOutcome::violation("snapshot JSON is not a fixed point");
  }
  // Percentiles over restored histograms must stay finite and ordered.
  for (const auto& point : resnap.value().points) {
    if (point.kind != telemetry::MetricKind::kHistogram) continue;
    const double p50 = point.histogram.percentile(50);
    const double p99 = point.histogram.percentile(99);
    if (!(p50 <= p99) && point.histogram.count > 0) {
      return FuzzOutcome::violation("restored histogram has p50 > p99");
    }
  }
  return FuzzOutcome::accepted();
}

// --------------------------------------------------- incident_snapshot

FuzzOutcome run_incident_snapshot(const Bytes& input) {
  auto doc = json::parse(to_string(input));
  if (!doc.ok()) return FuzzOutcome::rejected();
  auto snap = keylime::alert_pipeline::snapshot_from_json(doc.value());
  if (!snap.ok()) return FuzzOutcome::rejected();
  const std::string canonical =
      keylime::alert_pipeline::to_json(snap.value()).dump();
  auto redoc = json::parse(canonical);
  if (!redoc.ok()) {
    return FuzzOutcome::violation("canonical snapshot is not JSON");
  }
  auto resnap = keylime::alert_pipeline::snapshot_from_json(redoc.value());
  if (!resnap.ok()) {
    return FuzzOutcome::violation("canonical snapshot failed to re-import: " +
                                  resnap.error().to_string());
  }
  if (keylime::alert_pipeline::to_json(resnap.value()).dump() != canonical) {
    return FuzzOutcome::violation("snapshot JSON is not a fixed point");
  }
  // No partial state: everything the decoder accepted must satisfy the
  // incident invariants — a document that slipped past validation with,
  // say, more suppressed alerts than alerts would poison triage math.
  std::uint64_t prev_id = 0;
  for (const auto& inc : resnap.value().incidents) {
    if (inc.id <= prev_id) {
      return FuzzOutcome::violation("incident ids not strictly increasing");
    }
    prev_id = inc.id;
    if (inc.alerts == 0 || inc.suppressed >= inc.alerts ||
        inc.first_seen > inc.last_seen ||
        inc.sample_agents.size() > inc.affected_agents ||
        (inc.open && inc.closed_at != 0)) {
      return FuzzOutcome::violation("accepted incident violates invariants");
    }
  }
  return FuzzOutcome::accepted();
}

Bytes gen_incident_snapshot(Rng& rng) {
  static const char* kSeverities[] = {"integrity_violation", "policy_skew",
                                      "staleness", "transport"};
  static const char* kReasons[] = {"hash_mismatch", "not_in_policy",
                                   "comms_failure", "staleness"};
  json::Value doc;
  doc.set("version", 1);
  json::Value incidents{json::Array{}};
  const std::size_t n = 1 + rng.uniform(4);
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    id += 1 + rng.uniform(3);
    json::Value inc;
    inc.set("id", static_cast<std::int64_t>(id));
    inc.set("severity", kSeverities[rng.uniform(4)]);
    inc.set("reason", kReasons[rng.uniform(4)]);
    inc.set("subject", rng.chance(0.5)
                           ? "/usr/bin/" + rng.ident(5) + "@sha256:" +
                                 rng.ident(8)
                           : std::string());
    inc.set("policy_revision", static_cast<std::int64_t>(rng.uniform(10)));
    const std::uint64_t first = rng.uniform(500);
    const std::uint64_t last = first + rng.uniform(500);
    inc.set("first_seen", static_cast<std::int64_t>(first));
    inc.set("last_seen", static_cast<std::int64_t>(last));
    const std::uint64_t alerts = 1 + rng.uniform(1000);
    inc.set("alerts", static_cast<std::int64_t>(alerts));
    inc.set("suppressed", static_cast<std::int64_t>(rng.uniform(alerts)));
    const std::uint64_t sample = 1 + rng.uniform(5);
    const std::uint64_t affected = sample + rng.uniform(2000);
    inc.set("affected_agents", static_cast<std::int64_t>(affected));
    json::Value ids{json::Array{}};
    std::uint64_t agent = rng.uniform(10);
    for (std::uint64_t s = 0; s < sample; ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "agent-%04llu",
                    static_cast<unsigned long long>(agent));
      ids.push_back(std::string(buf));
      agent += 1 + rng.uniform(3);
    }
    inc.set("sample_agents", std::move(ids));
    const bool open = rng.chance(0.6);
    inc.set("open", open);
    inc.set("closed_at",
            static_cast<std::int64_t>(open ? 0 : last + rng.uniform(900)));
    incidents.push_back(std::move(inc));
  }
  doc.set("incidents", std::move(incidents));
  return to_bytes(doc.dump());
}

// ------------------------------------------------------------ scenario

FuzzOutcome run_scenario_file(const Bytes& input) {
  auto parsed = scenario::Scenario::parse(to_string(input));
  if (!parsed.ok()) return FuzzOutcome::rejected();
  // A validated scenario must survive the canonical round trip: to_json
  // emits every effective knob (defaults included), so a re-parse that
  // fails or drifts means the validator and the serializer disagree
  // about what configuration a file pins — exactly the "ran a different
  // experiment than was written" bug the differential suite exists for.
  const std::string canonical = parsed.value().to_json().dump();
  auto reparsed = scenario::Scenario::parse(canonical);
  if (!reparsed.ok()) {
    return FuzzOutcome::violation("canonical form failed to re-validate: " +
                                  reparsed.error().to_string());
  }
  if (reparsed.value().to_json().dump() != canonical) {
    return FuzzOutcome::violation("to_json/parse is not a fixed point");
  }
  return FuzzOutcome::accepted();
}

// -------------------------------------------------------- policy_delta

// The static apply rig: every parsed delta is applied against one fixed
// base policy, so both provenance gates (wrong base digest, lying target
// digest) and the structural-conflict checks are reachable from fuzzed
// wire bytes — and a rejected delta must leave that shared base
// byte-identical (apply() is pure).
const keylime::RuntimePolicy& delta_base_policy() {
  static const keylime::RuntimePolicy* base = [] {
    auto* policy = new keylime::RuntimePolicy();
    for (int i = 0; i < 8; ++i) {
      const std::string path = "/usr/bin/base-" + std::to_string(i);
      policy->allow(path, crypto::sha256("delta-base:" + path));
    }
    policy->allow("/usr/bin/base-3", crypto::sha256("delta-base:alt"));
    policy->exclude("/tmp/*");
    policy->exclude("*.log");
    return policy;
  }();
  return *base;
}

// The indexes an accepted delta yields: an overlay layer over the base's
// index, and a second layer over that from the reverse diff, back to the
// base. Each must give the verdict and `known` flag of a full build of
// its policy, and RuntimePolicy::check's verdict, on every base and
// target path probed with its old hashes, its new hashes and a digest
// neither policy lists. Empty when they all agree.
std::string incremental_index_divergence(
    const keylime::RuntimePolicy& base, const keylime::RuntimePolicy& target,
    const keylime::policy_store::PolicyDelta& delta) {
  using keylime::PolicyIndex;
  std::vector<std::string> paths;
  const auto collect = [&](const std::string& path,
                           const std::vector<crypto::Digest>&) {
    paths.push_back(path);
  };
  base.for_each_path(collect);
  target.for_each_path(collect);
  const auto agrees = [&](const PolicyIndex& index,
                          const keylime::RuntimePolicy& policy) {
    const auto fresh = PolicyIndex::build(policy);
    for (const std::string& path : paths) {
      std::vector<crypto::Digest> digests{crypto::sha256("bogus:" + path)};
      for (const keylime::RuntimePolicy* side : {&base, &target}) {
        if (const auto* hashes = side->hashes_for(path)) {
          digests.insert(digests.end(), hashes->begin(), hashes->end());
        }
      }
      for (const crypto::Digest& d : digests) {
        bool known = false, fresh_known = false;
        const keylime::PolicyMatch verdict = index.check(path, d, &known);
        if (verdict != fresh->check(path, d, &fresh_known) ||
            known != fresh_known || verdict != policy.check(path, d)) {
          return false;
        }
      }
    }
    return true;
  };
  const auto layer = PolicyIndex::build_incremental(PolicyIndex::build(base),
                                                    target, delta, 1);
  if (!agrees(*layer, target)) {
    return "incremental index diverged from a full build of the target";
  }
  const auto second = PolicyIndex::build_incremental(
      layer, base, keylime::policy_store::diff(target, base), 2);
  if (!agrees(*second, base)) {
    return "reverse overlay layer diverged from a full build of the base";
  }
  return "";
}

FuzzOutcome run_policy_delta(const Bytes& input) {
  namespace ps = keylime::policy_store;
  auto parsed = ps::PolicyDelta::parse(to_string(input));
  if (!parsed.ok()) return FuzzOutcome::rejected();
  const ps::PolicyDelta& delta = parsed.value();
  auto reparsed = ps::PolicyDelta::parse(delta.serialize());
  if (!reparsed.ok()) {
    return FuzzOutcome::violation("serialize failed to re-parse: " +
                                  reparsed.error().to_string());
  }
  if (!(reparsed.value() == delta) ||
      reparsed.value().serialize() != delta.serialize()) {
    return FuzzOutcome::violation("serialize/parse is not a fixed point");
  }

  const keylime::RuntimePolicy& base = delta_base_policy();
  const std::string before = base.to_json().dump();
  auto applied = ps::apply(base, delta);
  if (base.to_json().dump() != before) {
    return FuzzOutcome::violation("apply() mutated its base policy");
  }
  if (applied.ok()) {
    if (delta.base_digest != ps::policy_digest(base)) {
      return FuzzOutcome::violation("apply() accepted a wrong-base delta");
    }
    if (ps::policy_digest(applied.value()) != delta.target_digest) {
      return FuzzOutcome::violation(
          "apply() output does not hash to the claimed target digest");
    }
    const std::string divergence =
        incremental_index_divergence(base, applied.value(), delta);
    if (!divergence.empty()) return FuzzOutcome::violation(divergence);
  }
  return FuzzOutcome::accepted();
}

Bytes gen_policy_delta(Rng& rng) {
  namespace ps = keylime::policy_store;
  const keylime::RuntimePolicy& base = delta_base_policy();
  keylime::RuntimePolicy target = base;
  const std::size_t edits = 1 + rng.uniform(5);
  for (std::size_t i = 0; i < edits; ++i) {
    switch (rng.uniform(4)) {
      case 0:
        target.set_hashes("/usr/bin/new-" + rng.ident(4),
                          {crypto::sha256(rng.ident(8))});
        break;
      case 1:
        target.remove_path("/usr/bin/base-" + std::to_string(rng.uniform(8)));
        break;
      case 2:
        target.set_hashes("/usr/bin/base-" + std::to_string(rng.uniform(8)),
                          {crypto::sha256(rng.ident(8))});
        break;
      default:
        target.exclude("/var/" + rng.ident(3) + "/*");
        break;
    }
  }
  if (ps::policy_digest(target) == ps::policy_digest(base)) {
    target.set_hashes("/usr/bin/forced", {crypto::sha256("forced")});
  }
  return to_bytes(ps::diff(base, target).serialize());
}

// ------------------------------------------------------------ registry

std::string sample_log_text(Rng& rng) {
  std::string text;
  const std::size_t n = 1 + rng.uniform(4);
  for (std::size_t i = 0; i < n; ++i) {
    text += gen_log_entry(rng).to_string();
    if (i + 1 < n) text += "\n";
  }
  // LogEntry::parse takes one line; emit just one most of the time.
  return rng.chance(0.8) ? gen_log_entry(rng).to_string() : text;
}

std::vector<FuzzTarget> build_targets() {
  std::vector<FuzzTarget> targets;
  targets.push_back(FuzzTarget{
      "ima_log_entry",
      run_ima_log_entry,
      [](Rng& rng) { return to_bytes(sample_log_text(rng)); },
      {"sha256:", "ima-ng", "boot_aggregate", "10 ", " ", "/snap/",
       "999999999999999999999"}});
  targets.push_back(FuzzTarget{
      "json",
      run_json,
      [](Rng& rng) { return to_bytes(gen_json(rng).dump()); },
      {"{", "}", "[", "]", "\"", "\\u", "\\", "true", "false", "null", "1e999",
       "-", ".", "e+", ","}});
  targets.push_back(FuzzTarget{
      "runtime_policy",
      run_runtime_policy,
      [](Rng& rng) { return to_bytes(gen_policy(rng).serialize()); },
      {"exclude ", " sha256:", "/tmp/*", "\n", "*", "?"}});
  targets.push_back(FuzzTarget{
      "wire",
      run_wire,
      [](Rng& rng) { return gen_wire_frame(rng); },
      {}});
  targets.push_back(FuzzTarget{
      "checkpoint",
      run_checkpoint,
      gen_checkpoint,
      {"agents", "audit", "version", "\"ak\"", "\"state\"", "failed",
       "attesting", "pending", "records", "digests", "mb_refstate",
       "boot_baseline", "log_offset"}});
  targets.push_back(FuzzTarget{
      "migration",
      run_migration,
      gen_migration,
      {"version", "agent", "source_shard", "dest_shard", "slice", "schedule",
       "next_poll", "backoff", "polls", "comms_failures", "nonce_counter",
       "audit_seq", "audit_prev", "\"id\"", "log_offset", "pending"}});
  targets.push_back(FuzzTarget{
      "telemetry_snapshot",
      run_telemetry_snapshot,
      [](Rng& rng) {
        // Mint a plausible snapshot document from generated JSON plus a
        // well-formed skeleton, biased toward the strict histogram path.
        json::Value doc;
        doc.set("version", 1);
        json::Value metrics{json::Array{}};
        const std::size_t n = 1 + rng.uniform(4);
        for (std::size_t i = 0; i < n; ++i) {
          json::Value m;
          m.set("name", "cia_" + rng.ident(6));
          if (rng.chance(0.5)) {
            m.set("kind", rng.chance(0.5) ? "counter" : "gauge");
            m.set("value", static_cast<double>(rng.uniform(1000)));
          } else {
            m.set("kind", "histogram");
            json::Value bounds{json::Array{}};
            json::Value counts{json::Array{}};
            const std::size_t buckets = 1 + rng.uniform(4);
            std::uint64_t total = 0;
            double bound = 0;
            for (std::size_t b = 0; b < buckets; ++b) {
              bound += 1.0 + static_cast<double>(rng.uniform(10));
              bounds.push_back(bound);
            }
            for (std::size_t b = 0; b < buckets + 1; ++b) {
              const std::uint64_t c = rng.uniform(20);
              counts.push_back(static_cast<std::int64_t>(c));
              total += c;
            }
            m.set("bounds", std::move(bounds));
            m.set("counts", std::move(counts));
            m.set("count", static_cast<std::int64_t>(total));
            m.set("sum", static_cast<double>(rng.uniform(5000)));
            m.set("min", 0.5);
            // Above the last bound: the overflow bucket may be occupied.
            m.set("max", bound + 1.0);
          }
          if (rng.chance(0.5)) {
            json::Value labels;
            labels.set("agent", rng.ident(4));
            m.set("labels", std::move(labels));
          }
          metrics.push_back(std::move(m));
        }
        doc.set("metrics", std::move(metrics));
        return to_bytes(doc.dump());
      },
      {"metrics", "kind", "counter", "gauge", "histogram", "bounds", "counts",
       "count", "sum", "labels", "value", "min", "max", "version"}});
  targets.push_back(FuzzTarget{
      "incident_snapshot",
      run_incident_snapshot,
      gen_incident_snapshot,
      {"version", "incidents", "severity", "integrity_violation",
       "policy_skew", "staleness", "transport", "reason", "subject",
       "policy_revision", "first_seen", "last_seen", "alerts", "suppressed",
       "affected_agents", "sample_agents", "open", "closed_at", "\"id\""}});
  targets.push_back(FuzzTarget{
      "scenario",
      run_scenario_file,
      [](Rng& rng) { return to_bytes(gen_scenario(rng).dump()); },
      {"version", "name", "kind", "seed", "chaos", "churn", "storm", "fleet",
       "fleet_run", "attacks", "faults", "resize_at", "round", "shards",
       "agents", "drop_rate", "timeout_rate", "timeout_latency", "script",
       "rounds", "storm_rounds", "bad_paths", "pipeline", "retrying_transport",
       "wan-loss", "flaky-window", "archive_packages", "policy_rollout",
       "canary_fraction", "bake_rounds", "alert_budget"}});
  targets.push_back(FuzzTarget{
      "policy_delta",
      run_policy_delta,
      gen_policy_delta,
      {"version", "base", "target", "entries", "op", "add", "remove",
       "replace", "path", "hashes", "excludes"}});
  return targets;
}

}  // namespace

const std::vector<FuzzTarget>& all_targets() {
  static const std::vector<FuzzTarget> kTargets = build_targets();
  return kTargets;
}

const FuzzTarget* find_target(const std::string& name) {
  for (const FuzzTarget& target : all_targets()) {
    if (target.name == name) return &target;
  }
  return nullptr;
}

}  // namespace cia::testkit
