// Micro-benchmarks of the substrates (google-benchmark): hashing, quote
// signing/verification, IMA measurement, log replay, policy matching, and
// wire serialization. These establish that the verifier-side costs scale
// to fleet-sized deployments.
#include <benchmark/benchmark.h>

#include <memory>

#include "crypto/hmac.hpp"
#include "keylime/agent.hpp"
#include "keylime/registrar.hpp"
#include "keylime/verifier.hpp"
#include "netsim/network.hpp"
#include "oskernel/machine.hpp"
#include "crypto/schnorr.hpp"
#include "ima/ima.hpp"
#include "keylime/messages.hpp"
#include "keylime/runtime_policy.hpp"
#include "tpm/tpm.hpp"
#include "vfs/vfs.hpp"

namespace {

using namespace cia;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

// The template-hash shape the verifier's appraisal loop feeds
// sha256_batch: a 32-byte file hash plus a ~68-character path, two
// segments, ~100 bytes per record. Lanes vs the same harness pinned to
// the retained scalar loop — the per-record speedup the block-pipelined
// verify+fold inherits.
struct BatchShape {
  std::vector<crypto::Digest> file_hashes;
  std::vector<std::string> paths;
  std::vector<crypto::HashInput> in;
  std::vector<crypto::Digest> out;

  explicit BatchShape(std::size_t n)
      : file_hashes(n), paths(n), in(n), out(n) {
    for (std::size_t i = 0; i < n; ++i) {
      file_hashes[i] = crypto::sha256("content" + std::to_string(i));
      paths[i] = "/usr/lib/x86_64-linux-gnu/package-staging-area/libtool-" +
                 std::to_string(i) + ".so.0";
      in[i] = {file_hashes[i].data(), file_hashes[i].size(),
               reinterpret_cast<const std::uint8_t*>(paths[i].data()),
               paths[i].size()};
    }
  }
};

void BM_Sha256BatchLanes(benchmark::State& state) {
  BatchShape shape(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::sha256_batch(shape.in.data(), shape.in.size(), shape.out.data());
    benchmark::DoNotOptimize(shape.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256BatchLanes)->Arg(128)->Arg(1024);

void BM_Sha256BatchScalarLoop(benchmark::State& state) {
  BatchShape shape(static_cast<std::size_t>(state.range(0)));
  crypto::force_backend(crypto::Sha256Backend::kScalar);
  for (auto _ : state) {
    crypto::sha256_batch(shape.in.data(), shape.in.size(), shape.out.data());
    benchmark::DoNotOptimize(shape.out.data());
  }
  crypto::force_backend(crypto::Sha256Backend::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256BatchScalarLoop)->Arg(128)->Arg(1024);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SchnorrSign(benchmark::State& state) {
  const auto key = crypto::derive_keypair(to_bytes("seed"), "bench");
  const Bytes msg = to_bytes("attestation message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(key, msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const auto key = crypto::derive_keypair(to_bytes("seed"), "bench");
  const Bytes msg = to_bytes("attestation message");
  const auto sig = crypto::sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(key.pub, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_TpmQuote(benchmark::State& state) {
  const crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  tpm::Tpm2 tpm("bench", to_bytes("seed"), ca);
  tpm.extend(tpm::kImaPcr, crypto::sha256(std::string("m")));
  const Bytes nonce = to_bytes("nonce");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpm.quote(nonce, {tpm::kImaPcr}));
  }
}
BENCHMARK(BM_TpmQuote);

void BM_ImaMeasureExec(benchmark::State& state) {
  const crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  tpm::Tpm2 tpm("bench", to_bytes("seed"), ca);
  vfs::Vfs fs;
  ima::Ima ima(ima::ImaPolicy::keylime_recommended(), ima::ImaConfig{}, &fs,
               &tpm);
  ima.on_boot("bench");
  int i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string path = "/usr/bin/tool" + std::to_string(i++);
    (void)fs.create_file(path, to_bytes("elf:" + path), true);
    state.ResumeTiming();
    ima.on_exec(path);
  }
}
BENCHMARK(BM_ImaMeasureExec);

void BM_LogReplay(benchmark::State& state) {
  std::vector<ima::LogEntry> log(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < log.size(); ++i) {
    log[i].template_hash = crypto::sha256("entry" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ima::replay_log(log));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LogReplay)->Arg(1000)->Arg(10000);

void BM_LogReplayFreshContext(benchmark::State& state) {
  // The pre-optimization replay_log shape: a fresh Sha256 per entry,
  // finalized with the old byte-at-a-time padding it implied. Kept as a
  // baseline against BM_LogReplay (one context reused via reset()) so
  // the delta of the satellite fix stays measurable.
  std::vector<ima::LogEntry> log(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < log.size(); ++i) {
    log[i].template_hash = crypto::sha256("entry" + std::to_string(i));
  }
  for (auto _ : state) {
    crypto::Digest pcr = crypto::zero_digest();
    for (const ima::LogEntry& e : log) {
      crypto::Sha256 ctx;
      ctx.update(pcr.data(), pcr.size());
      ctx.update(e.template_hash.data(), e.template_hash.size());
      pcr = ctx.finish();
    }
    benchmark::DoNotOptimize(pcr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LogReplayFreshContext)->Arg(1000)->Arg(10000);

void BM_PolicyCheck(benchmark::State& state) {
  keylime::RuntimePolicy policy;
  for (int i = 0; i < state.range(0); ++i) {
    policy.allow("/usr/bin/tool" + std::to_string(i),
                 crypto::sha256(std::to_string(i)));
  }
  policy.exclude("/tmp/*");
  const std::string probe = "/usr/bin/tool" + std::to_string(state.range(0) / 2);
  const crypto::Digest hash =
      crypto::sha256(std::to_string(state.range(0) / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.check(probe, hash));
  }
}
BENCHMARK(BM_PolicyCheck)->Arg(1000)->Arg(100000);

void BM_PolicySerialize(benchmark::State& state) {
  keylime::RuntimePolicy policy;
  for (int i = 0; i < 10000; ++i) {
    policy.allow("/usr/bin/tool" + std::to_string(i),
                 crypto::sha256(std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.serialize());
  }
}
BENCHMARK(BM_PolicySerialize);

void BM_QuoteResponseRoundTrip(benchmark::State& state) {
  const crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  tpm::Tpm2 tpm("bench", to_bytes("seed"), ca);
  keylime::QuoteResponse resp;
  resp.quote = tpm.quote(to_bytes("nonce"), {tpm::kImaPcr});
  resp.entries.resize(64);
  for (std::size_t i = 0; i < resp.entries.size(); ++i) {
    resp.entries[i].path = "/usr/bin/tool" + std::to_string(i);
    resp.entries[i].file_hash = crypto::sha256(std::to_string(i));
    resp.entries[i].template_hash = crypto::sha256("t" + std::to_string(i));
  }
  resp.total_log_length = 64;
  resp.boot_count = 1;
  for (auto _ : state) {
    const Bytes encoded = resp.encode();
    benchmark::DoNotOptimize(keylime::QuoteResponse::decode(encoded));
  }
}
BENCHMARK(BM_QuoteResponseRoundTrip);

void BM_VfsCreateRename(benchmark::State& state) {
  vfs::Vfs fs;
  int i = 0;
  for (auto _ : state) {
    const std::string src = "/tmp/f" + std::to_string(i);
    const std::string dst = "/usr/bin/f" + std::to_string(i);
    ++i;
    (void)fs.create_file(src, to_bytes("x"), true);
    (void)fs.rename(src, dst);
  }
}
BENCHMARK(BM_VfsCreateRename);

void BM_FleetAttestAll(benchmark::State& state) {
  // End-to-end verifier throughput: N healthy agents, one attest_all
  // sweep per iteration (quote verify dominates).
  const auto n = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  netsim::SimNetwork network(&clock, 1);
  const crypto::CertificateAuthority ca("mfg", to_bytes("seed"));
  keylime::Registrar registrar(&network, &clock, 2);
  registrar.trust_manufacturer(ca.public_key());
  keylime::Verifier verifier(&network, &clock, 3);
  std::vector<std::unique_ptr<oskernel::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  for (std::size_t i = 0; i < n; ++i) {
    oskernel::MachineConfig cfg;
    cfg.hostname = "fleet-" + std::to_string(i);
    cfg.seed = i + 1;
    machines.push_back(std::make_unique<oskernel::Machine>(cfg, ca, &clock));
    agents.push_back(std::make_unique<keylime::Agent>(machines.back().get(),
                                                      &network));
    (void)agents.back()->register_with(keylime::Registrar::address());
    (void)verifier.add_agent(cfg.hostname, agents.back()->address());
    (void)verifier.set_policy(cfg.hostname, keylime::RuntimePolicy{});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.attest_all());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FleetAttestAll)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
