// Tests for durable attestation (the hash-chained, signed audit log) and
// revocation notification.
#include <gtest/gtest.h>

#include "keylime/agent.hpp"
#include "keylime/audit.hpp"
#include "keylime/notifier.hpp"
#include "keylime/registrar.hpp"
#include "keylime/verifier.hpp"
#include "oskernel/machine.hpp"

namespace cia::keylime {
namespace {

crypto::KeyPair test_key() {
  return crypto::derive_keypair(to_bytes("audit-seed"), "test");
}

// ----------------------------------------------------------- chain unit

TEST(AuditLogTest, AppendBuildsVerifiableChain) {
  AuditLog log(test_key());
  for (int i = 0; i < 5; ++i) {
    log.append(i * kHour, "node0",
               i % 2 ? AuditVerdict::kPassed : AuditVerdict::kFailed,
               static_cast<std::size_t>(i), 10, crypto::sha256(std::to_string(i)));
  }
  EXPECT_EQ(log.records().size(), 5u);
  EXPECT_TRUE(verify_audit_chain(log.records(), log.public_key()).ok());
}

TEST(AuditLogTest, EmptyChainVerifies) {
  AuditLog log(test_key());
  EXPECT_TRUE(verify_audit_chain(log.records(), log.public_key()).ok());
}

TEST(AuditLogTest, TamperedFieldIsDetected) {
  AuditLog log(test_key());
  log.append(0, "node0", AuditVerdict::kPassed, 0, 3, crypto::zero_digest());
  log.append(1, "node0", AuditVerdict::kFailed, 1, 2, crypto::zero_digest());
  auto records = log.records();
  records[0].verdict = AuditVerdict::kPassed;
  records[1].verdict = AuditVerdict::kPassed;  // whitewash the failure
  EXPECT_FALSE(verify_audit_chain(records, log.public_key()).ok());
}

TEST(AuditLogTest, RemovedRecordBreaksChain) {
  AuditLog log(test_key());
  for (int i = 0; i < 4; ++i) {
    log.append(i, "node0", AuditVerdict::kPassed, 0, 1, crypto::zero_digest());
  }
  auto records = log.records();
  records.erase(records.begin() + 1);
  EXPECT_FALSE(verify_audit_chain(records, log.public_key()).ok());
}

TEST(AuditLogTest, ReorderedRecordsAreDetected) {
  AuditLog log(test_key());
  for (int i = 0; i < 3; ++i) {
    log.append(i, "node0", AuditVerdict::kPassed, 0, 1,
               crypto::sha256(std::to_string(i)));
  }
  auto records = log.records();
  std::swap(records[0], records[1]);
  EXPECT_FALSE(verify_audit_chain(records, log.public_key()).ok());
}

TEST(AuditLogTest, ForgedSignatureIsDetected) {
  AuditLog log(test_key());
  log.append(0, "node0", AuditVerdict::kPassed, 0, 1, crypto::zero_digest());
  // An attacker re-signs a modified record with their own key.
  const auto attacker = crypto::derive_keypair(to_bytes("attacker"), "a");
  auto records = log.records();
  records[0].alerts = 0;
  records[0].record_hash = records[0].compute_hash();
  records[0].signature =
      crypto::sign(attacker, crypto::digest_bytes(records[0].record_hash));
  EXPECT_FALSE(verify_audit_chain(records, log.public_key()).ok());
}

TEST(AuditLogTest, JsonExportImportRoundTrip) {
  AuditLog log(test_key());
  for (int i = 0; i < 4; ++i) {
    log.append(i * kHour, "node0",
               i == 2 ? AuditVerdict::kFailed : AuditVerdict::kPassed,
               i == 2 ? 1u : 0u, 5, crypto::sha256(std::to_string(i)));
  }
  const json::Value doc = export_audit_chain(log.records(), log.public_key());
  auto parsed = json::parse(doc.pretty());
  ASSERT_TRUE(parsed.ok());
  auto imported = import_audit_chain(parsed.value());
  ASSERT_TRUE(imported.ok());
  const auto& [records, key] = imported.value();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(key, log.public_key());
  EXPECT_TRUE(verify_audit_chain(records, key).ok());
  EXPECT_EQ(records[2].verdict, AuditVerdict::kFailed);
}

TEST(AuditLogTest, ImportRejectsTamperedJson) {
  AuditLog log(test_key());
  log.append(0, "node0", AuditVerdict::kFailed, 1, 1, crypto::zero_digest());
  json::Value doc = export_audit_chain(log.records(), log.public_key());
  // Whitewash via the JSON form.
  doc.set("records", [&] {
    json::Value list{json::Array{}};
    json::Value record = log.records()[0].to_json();
    record.set("verdict", "passed");
    list.push_back(std::move(record));
    return list;
  }());
  auto imported = import_audit_chain(doc);
  ASSERT_TRUE(imported.ok());
  EXPECT_FALSE(verify_audit_chain(imported.value().first,
                                  imported.value().second).ok());
}

TEST(AuditLogTest, ImportRejectsGarbage) {
  EXPECT_FALSE(import_audit_chain(json::Value("nope")).ok());
  json::Value empty;
  empty.set("verifier_key", "zz");
  empty.set("records", json::Value(json::Array{}));
  EXPECT_FALSE(import_audit_chain(empty).ok());
}

// An agent's sub-chain handed from log `from` to log `to`, the way a
// migration moves it between shards.
void hand_over(AuditLog& from, AuditLog& to, const std::string& agent) {
  to.set_agent_tail(agent, from.agent_tail(agent));
  from.drop_agent_tail(agent);
}

TEST(AuditLogTest, AgentThatLeftAndCameBackVerifiesAndRestores) {
  AuditLog a(test_key()), b(test_key());
  a.append(0, "agent-x", AuditVerdict::kPassed, 0, 4, crypto::zero_digest());
  a.append(0, "agent-y", AuditVerdict::kPassed, 0, 4, crypto::zero_digest());
  hand_over(a, b, "agent-x");
  b.append(60, "agent-x", AuditVerdict::kPassed, 0, 4, crypto::zero_digest());
  hand_over(b, a, "agent-x");
  a.append(120, "agent-x", AuditVerdict::kPassed, 0, 4, crypto::zero_digest());
  ASSERT_EQ(a.records()[2].agent_seq, 2u);  // seq 1 sits on b

  EXPECT_TRUE(verify_audit_chain(a.records(), a.public_key()).ok());
  EXPECT_TRUE(verify_audit_chain(b.records(), b.public_key()).ok());
  AuditLog restored(test_key());
  ASSERT_TRUE(restored.restore(a.records()).ok());
  EXPECT_EQ(restored.agent_tail("agent-x").next_seq, 3u);
  EXPECT_EQ(restored.agent_tail("agent-x").prev_hash,
            a.agent_tail("agent-x").prev_hash);
}

TEST(AuditLogTest, WrongHandedTailIsStillABreak) {
  const auto poll = [](AuditLog& log, SimTime time) {
    log.append(time, "agent-x", AuditVerdict::kPassed, 0, 1,
               crypto::zero_digest());
  };
  const auto appended_after = [&](const AuditLog::AgentTail& bad_tail) {
    AuditLog log(test_key());
    poll(log, 0);
    poll(log, 1);
    log.set_agent_tail("agent-x", bad_tail);
    poll(log, 2);
    return log;
  };
  const crypto::Digest forged = crypto::sha256(std::string("forged"));
  AuditLog honest(test_key());
  poll(honest, 0);
  poll(honest, 1);
  const AuditLog::AgentTail right = honest.agent_tail("agent-x");

  for (const AuditLog::AgentTail& bad :
       {AuditLog::AgentTail{right.next_seq - 1, right.prev_hash},
        AuditLog::AgentTail{0, crypto::zero_digest()},
        AuditLog::AgentTail{right.next_seq, forged}}) {
    const AuditLog log = appended_after(bad);
    const Status verdict = verify_audit_chain(log.records(), log.public_key());
    ASSERT_FALSE(verdict.ok()) << "next_seq " << bad.next_seq;
    EXPECT_NE(verdict.error().to_string().find("broken agent sub-chain"),
              std::string::npos);
    AuditLog restored(test_key());
    EXPECT_FALSE(restored.restore(log.records()).ok());
  }
}

// ----------------------------------------------------- verifier wiring

struct AuditRig : ::testing::Test {
  AuditRig()
      : ca("mfg", to_bytes("mfg-seed")),
        network(&clock, 1),
        registrar(&network, &clock, 2),
        verifier(&network, &clock, 3),
        machine(config(), ca, &clock),
        agent(&machine, &network) {
    registrar.trust_manufacturer(ca.public_key());
    EXPECT_TRUE(machine.fs().create_file("/usr/bin/app", to_bytes("elf:app"),
                                         true).ok());
    EXPECT_TRUE(agent.register_with(Registrar::address()).ok());
    EXPECT_TRUE(verifier.add_agent("audit-node", agent.address()).ok());
    RuntimePolicy policy;
    policy.allow("/usr/bin/app", crypto::sha256(std::string("elf:app")));
    EXPECT_TRUE(verifier.set_policy("audit-node", policy).ok());
  }

  static oskernel::MachineConfig config() {
    oskernel::MachineConfig cfg;
    cfg.hostname = "audit-node";
    return cfg;
  }

  SimClock clock;
  crypto::CertificateAuthority ca;
  netsim::SimNetwork network;
  Registrar registrar;
  Verifier verifier;
  oskernel::Machine machine;
  Agent agent;
};

TEST_F(AuditRig, EveryPollProducesASignedRecord) {
  (void)machine.exec("/usr/bin/app");
  for (int i = 0; i < 3; ++i) {
    clock.advance(kMinute);
    (void)verifier.attest_once("audit-node");
  }
  const auto& records = verifier.audit().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(verify_audit_chain(records, verifier.audit().public_key()).ok());
  for (const auto& r : records) {
    EXPECT_EQ(r.verdict, AuditVerdict::kPassed);
    EXPECT_NE(r.quote_digest, crypto::zero_digest());
  }
}

TEST_F(AuditRig, FailureAndRebootAreRecorded) {
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil", to_bytes("e"), true).ok());
  (void)machine.exec("/usr/bin/evil");
  (void)verifier.attest_once("audit-node");  // -> kFailed
  (void)verifier.attest_once("audit-node");  // frozen: no record
  (void)verifier.resolve_failure("audit-node");
  machine.reboot();
  (void)verifier.attest_once("audit-node");  // -> kRebootSeen

  const auto& records = verifier.audit().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].verdict, AuditVerdict::kFailed);
  EXPECT_EQ(records[1].verdict, AuditVerdict::kRebootSeen);
  EXPECT_TRUE(verify_audit_chain(records, verifier.audit().public_key()).ok());
}

TEST_F(AuditRig, UnreachableAgentIsRecorded) {
  netsim::FaultConfig faults;
  faults.drop_rate = 1.0;
  network.set_faults(faults);
  (void)verifier.attest_once("audit-node");
  const auto& records = verifier.audit().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].verdict, AuditVerdict::kUnreachable);
}

TEST_F(AuditRig, NotifierFiresOnFailureTransitionOnly) {
  CollectingNotifier webhook;
  verifier.add_notifier(&webhook);

  (void)machine.exec("/usr/bin/app");
  (void)verifier.attest_once("audit-node");
  EXPECT_TRUE(webhook.events().empty()) << "healthy rounds do not notify";

  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil1", to_bytes("1"), true).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("2"), true).ok());
  (void)machine.exec("/usr/bin/evil1");
  (void)machine.exec("/usr/bin/evil2");
  (void)verifier.attest_once("audit-node");
  ASSERT_EQ(webhook.events().size(), 1u)
      << "one revocation per transition, not per alert";
  EXPECT_EQ(webhook.events()[0].agent_id, "audit-node");
  EXPECT_NE(webhook.events()[0].reason.find("evil1"), std::string::npos);

  // Resolve and fail again: a second transition, a second notification.
  (void)verifier.resolve_failure("audit-node");
  auto round = verifier.attest_once("audit-node");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(webhook.events().size(), 2u);
}

}  // namespace
}  // namespace cia::keylime
