// Unit + integration tests for the Keylime components: runtime policy
// semantics, registration/credential activation over the network, and the
// verifier's attestation state machine (including P2's stop-on-failure).
#include <gtest/gtest.h>

#include "keylime/agent.hpp"
#include "keylime/messages.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/registrar.hpp"
#include "keylime/runtime_policy.hpp"
#include "keylime/tenant.hpp"
#include "keylime/verifier.hpp"

namespace cia::keylime {
namespace {

// --------------------------------------------------------- runtime policy

TEST(RuntimePolicyTest, CheckOutcomes) {
  RuntimePolicy p;
  p.allow("/usr/bin/ls", std::string(64, 'a'));
  p.exclude("/tmp/*");

  EXPECT_EQ(p.check("/usr/bin/ls", std::string(64, 'a')), PolicyMatch::kAllowed);
  EXPECT_EQ(p.check("/usr/bin/ls", std::string(64, 'b')),
            PolicyMatch::kHashMismatch);
  EXPECT_EQ(p.check("/usr/bin/cat", std::string(64, 'a')),
            PolicyMatch::kNotInPolicy);
  EXPECT_EQ(p.check("/tmp/anything", std::string(64, 'c')),
            PolicyMatch::kExcluded);
}

TEST(RuntimePolicyTest, MultipleHashesPerPath) {
  RuntimePolicy p;
  p.allow("/usr/bin/x", std::string(64, '1'));
  p.allow("/usr/bin/x", std::string(64, '2'));
  EXPECT_EQ(p.entry_count(), 2u);
  EXPECT_EQ(p.path_count(), 1u);
  EXPECT_EQ(p.check("/usr/bin/x", std::string(64, '1')), PolicyMatch::kAllowed);
  EXPECT_EQ(p.check("/usr/bin/x", std::string(64, '2')), PolicyMatch::kAllowed);
}

TEST(RuntimePolicyTest, DuplicateAllowIsIdempotent) {
  RuntimePolicy p;
  p.allow("/usr/bin/x", std::string(64, '1'));
  p.allow("/usr/bin/x", std::string(64, '1'));
  EXPECT_EQ(p.entry_count(), 1u);
}

TEST(RuntimePolicyTest, AllowRefusesHashesThatAreNotDigests) {
  RuntimePolicy p;
  ASSERT_TRUE(p.allow("/usr/bin/ls", std::string(64, 'a')));
  const std::string before = p.serialize();
  for (const std::string& bad :
       {std::string(64, 'A'), std::string(63, 'a'), std::string(63, 'a') + "g",
        std::string(65, 'a'), std::string()}) {
    EXPECT_FALSE(p.allow("/usr/bin/tool", bad)) << bad;
    EXPECT_FALSE(p.allow("/usr/bin/ls", bad)) << bad;
  }
  EXPECT_EQ(p.entry_count(), 1u);
  EXPECT_EQ(p.path_count(), 1u);
  EXPECT_EQ(p.hashes_for("/usr/bin/tool"), nullptr)
      << "a refused allow() must not leave an empty path entry";
  EXPECT_EQ(p.serialize(), before);
  EXPECT_TRUE(p.allow("/usr/bin/ls", std::string(64, 'a')))
      << "a duplicate digest is accepted and changes nothing";
  EXPECT_EQ(p.entry_count(), 1u);
}

// The policy holds digests, so hex that names none has nowhere to go:
// both string mutators refuse it whole, a set_hashes() list with one bad
// entry included, and the policy stays exactly as it was.
TEST(RuntimePolicyTest, MutatorsRefuseHexThatNamesNoDigest) {
  RuntimePolicy p;
  ASSERT_TRUE(p.allow("/usr/bin/ls", std::string(64, 'a')));
  p.exclude("/tmp/*");
  const std::string text = p.serialize();
  const std::string digest = policy_store::policy_digest(p);
  const std::string good(64, 'b');
  for (const std::string& bad :
       {std::string(64, 'A'), std::string(63, 'a'), std::string(63, 'a') + "g",
        std::string(), "\"\\\t\x01\x7f\xff" + std::string(58, 'a')}) {
    EXPECT_FALSE(p.allow("/usr/bin/tool", bad)) << bad;
    EXPECT_FALSE(p.allow("/usr/bin/ls", bad)) << bad;
    EXPECT_FALSE(p.set_hashes("/usr/bin/tool", {bad})) << bad;
    EXPECT_FALSE(p.set_hashes("/usr/bin/ls", {good, bad})) << bad;
    EXPECT_EQ(p.entry_count(), 1u) << bad;
    EXPECT_EQ(p.serialize(), text) << bad;
    EXPECT_EQ(policy_store::policy_digest(p), digest) << bad;
  }
  EXPECT_EQ(p.hashes_for("/usr/bin/tool"), nullptr);
  EXPECT_TRUE(p.set_hashes("/usr/bin/ls", {good}));
  EXPECT_EQ(p.check("/usr/bin/ls", good), PolicyMatch::kAllowed);
  EXPECT_EQ(p.check("/usr/bin/ls", std::string(64, 'a')),
            PolicyMatch::kHashMismatch);
}

TEST(RuntimePolicyTest, DedupKeepsNewestHash) {
  RuntimePolicy p;
  p.allow("/usr/bin/x", std::string(64, '1'));
  p.allow("/usr/bin/x", std::string(64, '2'));
  EXPECT_EQ(p.dedup(), 1u);
  EXPECT_EQ(p.entry_count(), 1u);
  EXPECT_EQ(p.check("/usr/bin/x", std::string(64, '2')), PolicyMatch::kAllowed);
  EXPECT_EQ(p.check("/usr/bin/x", std::string(64, '1')),
            PolicyMatch::kHashMismatch)
      << "the stale hash must be gone after dedup";
}

TEST(RuntimePolicyTest, SerializeParseRoundTrip) {
  RuntimePolicy p;
  p.allow("/usr/bin/ls", std::string(64, 'a'));
  p.allow("/usr/bin/cat", std::string(64, 'b'));
  p.exclude("/tmp/*");
  auto parsed = RuntimePolicy::parse(p.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entry_count(), 2u);
  EXPECT_EQ(parsed.value().check("/usr/bin/ls", std::string(64, 'a')),
            PolicyMatch::kAllowed);
  EXPECT_EQ(parsed.value().check("/tmp/x", std::string(64, 'z')),
            PolicyMatch::kExcluded);
}

TEST(RuntimePolicyTest, ParseRejectsGarbage) {
  EXPECT_FALSE(RuntimePolicy::parse("not a policy line\n").ok());
  EXPECT_FALSE(RuntimePolicy::parse("/usr/bin/x sha256:short\n").ok());
}

TEST(RuntimePolicyTest, MergeCombines) {
  RuntimePolicy a, b;
  a.allow("/usr/bin/x", std::string(64, '1'));
  a.exclude("/tmp/*");
  b.allow("/usr/bin/y", std::string(64, '2'));
  b.exclude("/tmp/*");  // duplicate exclude must not double
  a.merge(b);
  EXPECT_EQ(a.entry_count(), 2u);
  EXPECT_EQ(a.excludes().size(), 1u);
}

TEST(RuntimePolicyTest, ByteSizeTracksEntries) {
  RuntimePolicy p;
  EXPECT_EQ(p.byte_size(), 0u);
  p.allow("/usr/bin/x", std::string(64, '1'));
  const auto one = p.byte_size();
  p.allow("/usr/bin/y", std::string(64, '2'));
  EXPECT_GT(p.byte_size(), one);
}

// ----------------------------------------------------- full protocol rig

struct Rig : ::testing::Test {
  Rig()
      : ca("tpm-manufacturer", to_bytes("mfg-seed")),
        network(&clock, 99),
        registrar(&network, &clock, 7),
        verifier(&network, &clock, 8),
        machine(make_config(), ca, &clock),
        agent(&machine, &network) {
    registrar.trust_manufacturer(ca.public_key());
    auto& fs = machine.fs();
    EXPECT_TRUE(fs.create_file("/usr/bin/ls", to_bytes("elf:ls"), true).ok());
    EXPECT_TRUE(fs.create_file("/usr/bin/cat", to_bytes("elf:cat"), true).ok());
  }

  static oskernel::MachineConfig make_config() {
    oskernel::MachineConfig cfg;
    cfg.hostname = "node0";
    return cfg;
  }

  RuntimePolicy baseline_policy() {
    RuntimePolicy p;
    p.allow("/usr/bin/ls", crypto::sha256(std::string("elf:ls")));
    p.allow("/usr/bin/cat", crypto::sha256(std::string("elf:cat")));
    return p;
  }

  void enroll() {
    ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
    ASSERT_TRUE(verifier.add_agent("node0", agent.address()).ok());
    ASSERT_TRUE(verifier.set_policy("node0", baseline_policy()).ok());
  }

  SimClock clock;
  crypto::CertificateAuthority ca;
  netsim::SimNetwork network;
  Registrar registrar;
  Verifier verifier;
  oskernel::Machine machine;
  Agent agent;
};

TEST_F(Rig, RegistrationActivates) {
  EXPECT_FALSE(registrar.is_active("node0"));
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  EXPECT_TRUE(registrar.is_active("node0"));
  EXPECT_EQ(registrar.registered_count(), 1u);
}

TEST_F(Rig, RegistrationRejectsUntrustedManufacturer) {
  SimClock clock2;
  netsim::SimNetwork net2(&clock2, 1);
  Registrar strict(&net2, &clock2, 2);  // trusts nobody
  oskernel::MachineConfig cfg;
  cfg.hostname = "rogue";
  oskernel::Machine rogue_machine(cfg, ca, &clock2);
  Agent rogue_agent(&rogue_machine, &net2);
  EXPECT_FALSE(rogue_agent.register_with(Registrar::address()).ok());
  EXPECT_FALSE(strict.is_active("rogue"));
}

TEST_F(Rig, VerifierRefusesUnregisteredAgent) {
  EXPECT_FALSE(verifier.add_agent("node0", agent.address()).ok());
}

TEST_F(Rig, CleanAttestationPasses) {
  enroll();
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/cat").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round.value().alerts.empty());
  EXPECT_EQ(round.value().state, AgentState::kAttesting);
  EXPECT_EQ(round.value().new_entries, 3u);  // boot aggregate + 2 execs
}

TEST_F(Rig, IncrementalPollingOnlyShipsNewEntries) {
  enroll();
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/cat").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().new_entries, 1u);
  EXPECT_TRUE(round.value().alerts.empty());
}

TEST_F(Rig, UnknownBinaryRaisesNotInPolicy) {
  enroll();
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil", to_bytes("elf:evil"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().alerts.size(), 1u);
  EXPECT_EQ(round.value().alerts[0].type, AlertType::kNotInPolicy);
  EXPECT_EQ(round.value().alerts[0].path, "/usr/bin/evil");
  EXPECT_EQ(verifier.state("node0"), AgentState::kFailed);
}

TEST_F(Rig, ModifiedBinaryRaisesHashMismatch) {
  enroll();
  ASSERT_TRUE(machine.fs().write_file("/usr/bin/ls", to_bytes("elf:trojan")).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().alerts.size(), 1u);
  EXPECT_EQ(round.value().alerts[0].type, AlertType::kHashMismatch);
}

TEST_F(Rig, FailedAgentIsNoLongerPolled_P2) {
  enroll();
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil", to_bytes("e"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  ASSERT_EQ(verifier.state("node0"), AgentState::kFailed);

  const auto alerts_before = verifier.alerts().size();
  // New malicious activity while failed: nothing is fetched or evaluated.
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("e2"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil2").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().new_entries, 0u);
  EXPECT_EQ(verifier.alerts().size(), alerts_before)
      << "stock Keylime stops polling after a failure (P2)";
}

TEST_F(Rig, StopOnFailureLeavesLogPartiallyEvaluated) {
  enroll();
  // Two violations in one batch: only the first is evaluated.
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil1", to_bytes("e1"), true).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("e2"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil1").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil2").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().alerts.size(), 1u);
  EXPECT_GT(verifier.pending_entries("node0"), 0u)
      << "the incomplete attestation log of P2";
}

TEST_F(Rig, ContinueOnFailureEvaluatesWholeLog) {
  VerifierConfig config;
  config.continue_on_failure = true;
  Verifier tolerant(&network, &clock, 10, config);
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  ASSERT_TRUE(tolerant.add_agent("node0", agent.address()).ok());
  ASSERT_TRUE(tolerant.set_policy("node0", baseline_policy()).ok());

  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil1", to_bytes("e1"), true).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("e2"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil1").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil2").ok());
  auto round = tolerant.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().alerts.size(), 2u)
      << "the mitigation must evaluate every entry";
  EXPECT_EQ(tolerant.pending_entries("node0"), 0u);
}

TEST_F(Rig, ResolveFailureResumesAndEvaluatesBacklog) {
  enroll();
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil1", to_bytes("e1"), true).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("e2"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil1").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil2").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  ASSERT_EQ(verifier.state("node0"), AgentState::kFailed);

  // Operator adds evil1 to the policy (it was a benign FP) and resolves.
  RuntimePolicy fixed = baseline_policy();
  fixed.allow("/usr/bin/evil1", crypto::sha256(std::string("e1")));
  ASSERT_TRUE(verifier.set_policy("node0", fixed).ok());
  ASSERT_TRUE(verifier.resolve_failure("node0").ok());

  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().alerts.size(), 1u)
      << "the backlog entry (evil2) is finally evaluated — late detection";
  EXPECT_EQ(round.value().alerts[0].path, "/usr/bin/evil2");
}

// A backlog entry's template hash is what indexed appraisal answers
// from, so an agent slice must not be able to claim one: an entry
// carrying an allowed line's template hash under another path would be
// allowed outright on the importing shard.
TEST_F(Rig, ImportRejectsAForgedBacklogTemplateHash) {
  enroll();
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil1", to_bytes("e1"), true).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil2", to_bytes("e2"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil1").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil2").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  ASSERT_EQ(verifier.pending_entries("node0"), 1u);

  auto slice = verifier.export_agent("node0");
  ASSERT_TRUE(slice.ok());
  json::Value forged = slice.value();
  json::Value& entry =
      forged.as_object().at("pending").as_array().front();
  ASSERT_EQ(entry.find("path")->as_string(), "/usr/bin/evil2");
  entry.set("template_hash",
            crypto::digest_hex(crypto::template_hash_of(
                crypto::sha256(std::string("elf:ls")), "/usr/bin/ls")));
  EXPECT_FALSE(Verifier::validate_agent_slice(forged).ok());

  Verifier dst(&network, &clock, 11);
  const std::string before = dst.checkpoint().dump();
  const Status rejected =
      dst.import_agent(forged, verifier.revision("node0"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::kCorrupted);
  EXPECT_EQ(dst.checkpoint().dump(), before)
      << "a rejected slice must leave no partial state";
  ASSERT_TRUE(dst.import_agent(slice.value(), verifier.revision("node0")).ok());
  EXPECT_EQ(dst.pending_entries("node0"), 1u);
}

// A slice is agent state only: the policy binding moves by reference, so
// a handoff costs the same whatever the size of the policy.
TEST_F(Rig, ExportedSliceCarriesNoPolicy) {
  enroll();
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());

  const auto tools = [](int lines) {
    RuntimePolicy p;
    for (int i = 0; i < lines; ++i) {
      p.allow("/usr/bin/tool-" + std::to_string(i),
              crypto::sha256("tool-" + std::to_string(i)));
    }
    return p;
  };
  ASSERT_TRUE(verifier.set_policy("node0", tools(10)).ok());
  auto small_slice = verifier.export_agent("node0");
  ASSERT_TRUE(verifier.set_policy("node0", tools(20000)).ok());
  auto large_slice = verifier.export_agent("node0");
  ASSERT_TRUE(small_slice.ok());
  ASSERT_TRUE(large_slice.ok());
  EXPECT_EQ(small_slice.value().find("policy"), nullptr);
  EXPECT_EQ(large_slice.value().find("policy"), nullptr);
  EXPECT_EQ(small_slice.value().dump().size(),
            large_slice.value().dump().size());
}

// The importing verifier binds the revision it is handed, and refuses to
// bind none.
TEST_F(Rig, ImportBindsTheGivenRevisionAndRefusesANullOne) {
  enroll();
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  auto slice = verifier.export_agent("node0");
  ASSERT_TRUE(slice.ok());

  Verifier dst(&network, &clock, 11);
  const std::string before = dst.checkpoint().dump();
  const Status rejected = dst.import_agent(slice.value(), nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::kInvalidArgument);
  EXPECT_EQ(dst.checkpoint().dump(), before)
      << "a refused import must leave no partial state";

  const auto revision = verifier.revision("node0");
  ASSERT_TRUE(dst.import_agent(slice.value(), revision).ok());
  EXPECT_EQ(dst.revision("node0"), revision);

  // A slice that still embeds a policy imports the same way: the reader
  // ignores the key and binds only the revision it is handed.
  json::Value embedded = slice.value();
  RuntimePolicy smuggled;
  smuggled.allow("/usr/bin/rogue", crypto::sha256(std::string("e1")));
  embedded.set("policy", smuggled.to_json());
  ASSERT_TRUE(Verifier::validate_agent_slice(embedded).ok());
  Verifier other(&network, &clock, 12);
  ASSERT_TRUE(other.import_agent(embedded, revision).ok());
  EXPECT_EQ(other.revision("node0"), revision);
}

// Restoring a checkpoint parses and indexes each distinct embedded policy
// once: agents that held equal policies share one indexed revision, and
// appraisal after the restore raises exactly what it would have before.
TEST_F(Rig, RestoreSharesOneIndexedRevisionPerDistinctPolicy) {
  enroll();
  oskernel::MachineConfig cfg1;
  cfg1.hostname = "node1";
  cfg1.seed = 2;
  oskernel::Machine machine1(cfg1, ca, &clock);
  Agent agent1(&machine1, &network);
  oskernel::MachineConfig cfg2;
  cfg2.hostname = "node2";
  cfg2.seed = 3;
  oskernel::Machine machine2(cfg2, ca, &clock);
  Agent agent2(&machine2, &network);
  for (oskernel::Machine* m : {&machine1, &machine2}) {
    ASSERT_TRUE(m->fs().create_file("/usr/bin/ls", to_bytes("elf:ls"), true).ok());
    ASSERT_TRUE(
        m->fs().create_file("/usr/bin/cat", to_bytes("elf:cat"), true).ok());
  }
  ASSERT_TRUE(agent1.register_with(Registrar::address()).ok());
  ASSERT_TRUE(agent2.register_with(Registrar::address()).ok());
  ASSERT_TRUE(verifier.add_agent("node1", agent1.address()).ok());
  ASSERT_TRUE(verifier.add_agent("node2", agent2.address()).ok());
  // node0 and node1 hold equal policies through two separate revisions;
  // node2 holds another policy, which allows ls only.
  ASSERT_TRUE(verifier.set_policy("node1", baseline_policy()).ok());
  RuntimePolicy ls_only;
  ls_only.allow("/usr/bin/ls", crypto::sha256(std::string("elf:ls")));
  ASSERT_TRUE(verifier.set_policy("node2", ls_only).ok());
  ASSERT_EQ(verifier.attest_all().size(), 3u);

  // Next round's traffic: cat is allowed on node0/node1 but not on node2,
  // and a rogue binary runs on node1.
  for (oskernel::Machine* m : {&machine, &machine1, &machine2}) {
    ASSERT_TRUE(m->exec("/usr/bin/cat").ok());
  }
  ASSERT_TRUE(
      machine1.fs().create_file("/usr/bin/rogue", to_bytes("e1"), true).ok());
  ASSERT_TRUE(machine1.exec("/usr/bin/rogue").ok());

  const json::Value checkpoint = verifier.checkpoint();
  Verifier restored(&network, &clock, 8);
  ASSERT_TRUE(restored.restore(checkpoint).ok());
  EXPECT_EQ(restored.checkpoint().dump(), checkpoint.dump());

  const auto r0 = restored.revision("node0");
  const auto r1 = restored.revision("node1");
  const auto r2 = restored.revision("node2");
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r0, r1) << "equal embedded policies share one revision";
  EXPECT_NE(r0, r2);
  EXPECT_NE(r0->index, nullptr);
  EXPECT_NE(r2->index, nullptr);
  EXPECT_EQ(r0->revision(), 0u) << "a checkpoint carries no revision tag";

  const std::size_t before = verifier.alerts().size();
  ASSERT_EQ(verifier.attest_all().size(), 3u);
  ASSERT_EQ(restored.attest_all().size(), 3u);
  const auto summary = [](const std::vector<Alert>& alerts, std::size_t from) {
    std::vector<std::string> out;
    for (std::size_t i = from; i < alerts.size(); ++i) {
      const Alert& a = alerts[i];
      out.push_back(a.agent_id + " " + alert_type_name(a.type) + " " + a.path +
                    " " + a.observed_hash_hex + " " + a.detail + " " +
                    std::to_string(a.log_index) + " " +
                    std::to_string(a.time) + " " +
                    std::to_string(a.policy_revision));
    }
    return out;
  };
  const std::vector<std::string> original = summary(verifier.alerts(), before);
  EXPECT_EQ(original.size(), 2u);
  EXPECT_EQ(summary(restored.alerts(), 0), original);
  EXPECT_GT(restored.index_stats().hits, 0u)
      << "restored agents appraise through the index";
}

// A man-in-the-middle that forwards the agent's traffic verbatim except
// for rewriting the (unsigned) boot_count field of quote responses. The
// quote signature still covers the REAL boot count via bound_quote_nonce,
// so the verifier must reject the response outright.
class BootCountForgingProxy : public netsim::Endpoint {
 public:
  BootCountForgingProxy(netsim::SimNetwork* net, std::string target)
      : net_(net), target_(std::move(target)) {}

  bool forge = false;

  Result<Bytes> handle(const std::string& kind, const Bytes& payload) override {
    auto resp = net_->call(target_, kind, payload);
    if (!forge || kind != kMsgQuote || !resp.ok()) return resp;
    auto qr = QuoteResponse::decode(resp.value());
    if (!qr.ok()) return resp;
    qr.value().boot_count += 1;  // fake "the agent rebooted"
    return qr.value().encode();
  }

 private:
  netsim::SimNetwork* net_;
  std::string target_;
};

// Regression pin: acting on an UNAUTHENTICATED boot_count used to let a
// single garbled response roll log_offset back to zero, so the next
// round re-fetched the complete log and re-appraised (and re-alerted on)
// every entry. The reboot signal must only be honoured from a verified
// quote.
TEST_F(Rig, ForgedBootCountCannotRewindTheLogCursor) {
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  BootCountForgingProxy proxy(&network, agent.address());
  network.attach("mitm", &proxy);
  ASSERT_TRUE(verifier.add_agent("node0", "mitm").ok());
  ASSERT_TRUE(verifier.set_policy("node0", baseline_policy()).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  ASSERT_TRUE(machine.exec("/usr/bin/cat").ok());

  auto clean = verifier.attest_once("node0");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().new_entries, 3u);  // boot aggregate + 2 execs
  EXPECT_TRUE(clean.value().alerts.empty());

  proxy.forge = true;
  auto forged = verifier.attest_once("node0");
  ASSERT_TRUE(forged.ok());
  ASSERT_EQ(forged.value().alerts.size(), 1u);
  EXPECT_EQ(forged.value().alerts[0].type, AlertType::kQuoteInvalid)
      << "a rewritten boot_count must fail quote verification";
  EXPECT_FALSE(forged.value().reboot_detected)
      << "an unauthenticated boot_count must never count as a reboot";

  // After the operator clears the alert, the log cursor must still be
  // where the clean round left it: nothing is re-fetched, nothing is
  // double-appraised.
  proxy.forge = false;
  ASSERT_TRUE(verifier.resolve_failure("node0").ok());
  auto resumed = verifier.attest_once("node0");
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value().new_entries, 0u)
      << "regression: forged boot_count rewound log_offset";
  EXPECT_TRUE(resumed.value().alerts.empty());

  // A genuine reboot (boot_count authenticated under the AK signature)
  // must still reset the incremental state.
  machine.reboot();
  auto rebooted = verifier.attest_once("node0");
  ASSERT_TRUE(rebooted.ok());
  EXPECT_TRUE(rebooted.value().reboot_detected);
}

TEST_F(Rig, RebootResetsAttestationState) {
  enroll();
  ASSERT_TRUE(machine.exec("/usr/bin/ls").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());
  machine.reboot();
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round.value().reboot_detected);
  // The next round replays the fresh log from scratch.
  ASSERT_TRUE(machine.exec("/usr/bin/cat").ok());
  auto round2 = verifier.attest_once("node0");
  ASSERT_TRUE(round2.ok());
  EXPECT_TRUE(round2.value().alerts.empty());
  EXPECT_EQ(round2.value().new_entries, 2u);  // boot aggregate + cat
}

TEST_F(Rig, ExcludedPathNeverAlerts_P1) {
  enroll();
  RuntimePolicy p = baseline_policy();
  p.exclude("/opt/scratch/*");
  ASSERT_TRUE(verifier.set_policy("node0", p).ok());
  ASSERT_TRUE(machine.fs().create_file("/opt/scratch/tool", to_bytes("t"), true).ok());
  ASSERT_TRUE(machine.exec("/opt/scratch/tool").ok());
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round.value().alerts.empty())
      << "P1: Keylime path excludes silence everything beneath them";
}

TEST_F(Rig, DroppedNetworkIsTransient) {
  enroll();
  netsim::FaultConfig faults;
  faults.drop_rate = 1.0;
  network.set_faults(faults);
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().alerts.size(), 1u);
  EXPECT_EQ(round.value().alerts[0].type, AlertType::kCommsFailure);
  EXPECT_EQ(verifier.state("node0"), AgentState::kAttesting)
      << "comms failures must not fail the agent";

  network.set_faults(netsim::FaultConfig{});
  auto round2 = verifier.attest_once("node0");
  ASSERT_TRUE(round2.ok());
  EXPECT_TRUE(round2.value().alerts.empty());
}

TEST_F(Rig, TamperedResponseIsRejected) {
  enroll();
  netsim::FaultConfig faults;
  faults.tamper_rate = 1.0;
  network.set_faults(faults);
  auto round = verifier.attest_once("node0");
  ASSERT_TRUE(round.ok());
  ASSERT_FALSE(round.value().alerts.empty());
  const AlertType t = round.value().alerts[0].type;
  EXPECT_TRUE(t == AlertType::kQuoteInvalid || t == AlertType::kReplayMismatch)
      << "a corrupted response must fail cryptographic validation";
}

TEST_F(Rig, TenantEnrollAndReport) {
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  Tenant tenant(&verifier, &registrar);
  ASSERT_TRUE(tenant.enroll(agent, baseline_policy()).ok());
  const std::string report = tenant.status_report();
  EXPECT_NE(report.find("node0"), std::string::npos);
  EXPECT_NE(report.find("attesting"), std::string::npos);
}

TEST_F(Rig, TenantStatusJson) {
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  Tenant tenant(&verifier, &registrar);
  ASSERT_TRUE(tenant.enroll(agent, baseline_policy()).ok());
  ASSERT_TRUE(machine.fs().create_file("/usr/bin/evil", to_bytes("e"), true).ok());
  ASSERT_TRUE(machine.exec("/usr/bin/evil").ok());
  ASSERT_TRUE(verifier.attest_once("node0").ok());

  const json::Value doc = tenant.status_json();
  const auto& agents = doc.find("agents")->as_array();
  ASSERT_EQ(agents.size(), 1u);
  EXPECT_EQ(agents[0].find("id")->as_string(), "node0");
  EXPECT_EQ(agents[0].find("state")->as_string(), "failed");
  EXPECT_EQ(agents[0].find("alerts")->as_int(), 1);
  // The JSON round-trips through the parser (dashboard-consumable).
  EXPECT_TRUE(json::parse(doc.dump()).ok());
}

TEST_F(Rig, TenantEnrollRequiresRegistration) {
  Tenant tenant(&verifier, &registrar);
  EXPECT_FALSE(tenant.enroll(agent, baseline_policy()).ok());
}

// A solo verifier installs pushes through the same PolicyHead as a pool:
// a same digest reuses the head revision, a delta rebasing from the head
// is an O(delta) overlay that appraises exactly like a full build, and
// anything else is a full build.
TEST_F(Rig, PushRevisionSharesTheHeadDecision) {
  namespace ps = policy_store;
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  ASSERT_TRUE(verifier.add_agent("node0", agent.address()).ok());
  const auto digest_of = [](const std::string& seed) {
    return crypto::sha256(seed);
  };

  RuntimePolicy v1;
  v1.exclude("/tmp/*");
  v1.exclude("*.log");
  for (int i = 0; i < 200; ++i) {
    const std::string path = "/usr/bin/tool-" + std::to_string(i);
    v1.allow(path, digest_of(path));
    if (i % 7 == 0) v1.allow(path, digest_of(path + ":old"));
  }
  v1.allow("/var/app/run.log", digest_of("run.log"));
  v1.allow("/tmp/scratch", digest_of("scratch"));

  // v2: replaced, removed, added and newly excluded lines.
  RuntimePolicy v2 = v1;
  for (int i = 0; i < 200; i += 5) {
    const std::string path = "/usr/bin/tool-" + std::to_string(i);
    if (i % 10 == 0) {
      v2.remove_path(path);
    } else {
      v2.set_hashes(path, std::vector<crypto::Digest>{digest_of(path + ":v2")});
    }
  }
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/opt/new/tool-" + std::to_string(i);
    v2.allow(path, digest_of(path));
  }
  v2.allow("/var/app/new.log", digest_of("new.log"));
  v2.remove_path("/tmp/scratch");

  const auto full = PolicyIndex::build(v2);  // the oracle for the overlay
  const std::uint64_t full0 = PolicyIndex::full_build_count();
  const std::uint64_t incr0 = PolicyIndex::incremental_build_count();
  const auto builds = [&] {
    return std::make_pair(PolicyIndex::full_build_count() - full0,
                          PolicyIndex::incremental_build_count() - incr0);
  };
  using Builds = std::pair<std::uint64_t, std::uint64_t>;

  const Status refused = verifier.push_revision({"node0"}, v1, "", nullptr);
  ASSERT_FALSE(refused.ok()) << "an empty digest proves nothing";
  EXPECT_EQ(refused.error().code, Errc::kInvalidArgument);
  EXPECT_EQ(verifier.revision("node0"), PolicyRevision::empty());

  const std::string d1 = ps::policy_digest(v1);
  ASSERT_TRUE(verifier.push_revision({"node0"}, v1, d1, nullptr).ok());
  const auto head = verifier.revision("node0");
  ASSERT_NE(head->index, nullptr);
  EXPECT_EQ(verifier.policy_revision_of("node0"), 1u);
  EXPECT_EQ(builds(), Builds(1, 0));

  // Same digest: the very head revision object, no build, no new tag.
  ASSERT_TRUE(verifier.push_revision({"node0"}, v1, d1, nullptr).ok());
  EXPECT_EQ(verifier.revision("node0"), head);
  EXPECT_EQ(verifier.policy_revision_of("node0"), 1u);
  EXPECT_EQ(builds(), Builds(1, 0));

  // A delta rebasing from the head: one overlay, zero full builds.
  const ps::PolicyDelta forward = ps::diff(v1, v2);
  ASSERT_TRUE(
      verifier.push_revision({"node0"}, v2, forward.target_digest, &forward)
          .ok());
  EXPECT_EQ(builds(), Builds(1, 1));
  const auto overlay = verifier.revision("node0");
  ASSERT_NE(overlay->index, nullptr);
  EXPECT_EQ(overlay->index->layer_depth(), 1u);
  EXPECT_EQ(verifier.policy_revision_of("node0"), 2u);

  // Every line of both policies, plus a bogus digest per path, appraises
  // as a full build of v2 does (the `known` bit included) and as v2's
  // own linear check does.
  std::size_t probes = 0;
  const auto probe = [&](const std::string& path, const crypto::Digest& hash) {
    bool known_overlay = false;
    bool known_full = true;
    const PolicyMatch got = overlay->index->check(path, hash, &known_overlay);
    EXPECT_EQ(got, full->check(path, hash, &known_full)) << path;
    EXPECT_EQ(known_overlay, known_full) << path;
    EXPECT_EQ(got, v2.check(path, hash)) << path;
    ++probes;
  };
  for (const RuntimePolicy* p : {&v1, &v2}) {
    p->for_each_path([&](const std::string& path,
                         const std::vector<crypto::Digest>& hashes) {
      for (const crypto::Digest& h : hashes) probe(path, h);
      probe(path, digest_of("bogus:" + path));
    });
  }
  probe("/usr/local/bin/unknown", digest_of("unknown"));
  EXPECT_GT(probes, v1.entry_count() + v2.entry_count());

  // A delta whose base is not the head cannot rebase: a full build.
  RuntimePolicy v3 = v1;
  v3.allow("/opt/branch/tool", digest_of("branch"));
  const ps::PolicyDelta off_head = ps::diff(v1, v3);
  ASSERT_TRUE(
      verifier.push_revision({"node0"}, v3, off_head.target_digest, &off_head)
          .ok());
  EXPECT_EQ(builds(), Builds(2, 1));
  EXPECT_EQ(verifier.revision("node0")->index->layer_depth(), 0u);

  // A delta from the head that replaces the excludes: a full build too.
  RuntimePolicy v4 = v3;
  v4.set_excludes({"/tmp/*"});
  const ps::PolicyDelta new_excludes = ps::diff(v3, v4);
  ASSERT_TRUE(new_excludes.touches_excludes());
  ASSERT_TRUE(verifier
                  .push_revision({"node0"}, v4, new_excludes.target_digest,
                                 &new_excludes)
                  .ok());
  EXPECT_EQ(builds(), Builds(3, 1));
  EXPECT_EQ(verifier.policy_revision_of("node0"), 4u);
  EXPECT_EQ(verifier.revision("node0")->index->check(
                "/var/app/run.log", digest_of("run.log")),
            PolicyMatch::kAllowed);
}

// The head checks the pushed digest instead of trusting it: policy B
// pushed under the head's digest A would otherwise come back as A's
// revision, reused, with the agent left on A.
TEST_F(Rig, PushRevisionRefusesADigestThatDoesNotNameThePolicy) {
  namespace ps = policy_store;
  ASSERT_TRUE(agent.register_with(Registrar::address()).ok());
  ASSERT_TRUE(verifier.add_agent("node0", agent.address()).ok());
  RuntimePolicy a;
  a.allow("/usr/bin/a", crypto::sha256(std::string("a")));
  RuntimePolicy b = a;
  b.allow("/usr/bin/b", crypto::sha256(std::string("b")));
  const std::string da = ps::policy_digest(a);
  const std::string db = ps::policy_digest(b);
  ASSERT_TRUE(verifier.push_revision({"node0"}, a, da, nullptr).ok());
  const auto head = verifier.revision("node0");
  const std::uint64_t full0 = PolicyIndex::full_build_count();
  const std::uint64_t incr0 = PolicyIndex::incremental_build_count();

  const ps::PolicyDelta forward = ps::diff(a, b);
  const std::string stranger =
      crypto::digest_hex(crypto::sha256(std::string("stranger")));
  struct Push {
    const RuntimePolicy* policy;
    std::string digest;
    const ps::PolicyDelta* delta;
  };
  for (const Push& push : {Push{&b, da, nullptr}, Push{&b, da, &forward},
                           Push{&b, stranger, nullptr},
                           Push{&a, db, &forward}}) {
    const Status s = verifier.push_revision({"node0"}, *push.policy,
                                            push.digest, push.delta);
    ASSERT_FALSE(s.ok()) << "a digest that does not name the policy";
    EXPECT_EQ(s.error().code, Errc::kInvalidArgument);
    EXPECT_EQ(verifier.revision("node0"), head);
    EXPECT_EQ(verifier.policy_revision_of("node0"), 1u);
  }
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 0u);
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 0u);

  // The head is untouched: A's digest still reuses it, and B under its
  // own digest rebases from it.
  ASSERT_TRUE(verifier.push_revision({"node0"}, a, da, nullptr).ok());
  EXPECT_EQ(verifier.revision("node0"), head);
  ASSERT_TRUE(verifier.push_revision({"node0"}, b, db, &forward).ok());
  EXPECT_EQ(verifier.policy_revision_of("node0"), 2u);
  EXPECT_EQ(PolicyIndex::incremental_build_count() - incr0, 1u);
  EXPECT_EQ(PolicyIndex::full_build_count() - full0, 0u);
  EXPECT_EQ(verifier.revision("node0")->index->check(
                "/usr/bin/b", crypto::sha256(std::string("b"))),
            PolicyMatch::kAllowed);
}

TEST_F(Rig, AttestAllCoversFleet) {
  enroll();
  oskernel::MachineConfig cfg2;
  cfg2.hostname = "node1";
  cfg2.seed = 2;
  oskernel::Machine machine2(cfg2, ca, &clock);
  Agent agent2(&machine2, &network);
  ASSERT_TRUE(agent2.register_with(Registrar::address()).ok());
  ASSERT_TRUE(verifier.add_agent("node1", agent2.address()).ok());
  ASSERT_TRUE(verifier.set_policy("node1", RuntimePolicy{}).ok());

  const auto rounds = verifier.attest_all();
  EXPECT_EQ(rounds.size(), 2u);
}

}  // namespace
}  // namespace cia::keylime
