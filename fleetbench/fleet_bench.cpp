// Fleet attestation benchmark program.
//
// Drives experiments::PoolFleet and keylime::VerifierPool through one of
// four closed-loop workloads and prints every end-to-end metric by name
// and unit, the attempted/failed operation counts, the output checks, and
// — as its last line — one JSON result object. With --trace 1 it instead
// reports per-layer metrics: it samples real polls and update cycles of
// the same workload between rounds and replays their steps through each
// layer's public function, recording one span per call.
//
//   fleet_bench --workload steady|first_contact|rollout|reshard
//               --seed N --seconds S --trace 0|1
//               [--size full|tiny] [--inject unknown_exec|bad_base]
//               [--spans FILE]
//
// The loop is closed: the next run_round() starts only after the previous
// one returned. Workload generation (machine exec, IMA measurement,
// policy synthesis) runs outside every end-to-end timer and is reported
// as workload.gen_ms. See README.md beside this file for the glossary.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "experiments/pool_experiment.hpp"
#include "keylime/appraisal_cache.hpp"
#include "keylime/audit.hpp"
#include "keylime/messages.hpp"
#include "keylime/policy_index.hpp"
#include "keylime/policy_store/store.hpp"
#include "keylime/verifier.hpp"
#include "telemetry/metrics.hpp"

namespace fleetbench {
namespace {

using namespace cia;
namespace ps = keylime::policy_store;

// --------------------------------------------------------------- options

enum class Workload { kSteady, kFirstContact, kRollout, kReshard };

struct Options {
  Workload workload = Workload::kSteady;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string inject;  // "", "unknown_exec", "bad_base"
  std::string spans_path;
};

/// The fleet and policy shape of one workload.
struct Shape {
  std::size_t agents = 0;
  std::size_t shards = 4;
  std::size_t binaries = 0;       // fleet image size
  std::size_t execs = 0;          // binaries executed per workload round
  std::size_t globs = 128;        // exclude-list length
  std::size_t synthetic = 0;      // extra package-shaped policy entries
  std::size_t setups = 5;         // set-up repetitions (setup_s median)
  std::size_t warmup_updates = 2;  // untimed update cycles before timing
  std::size_t rounds_per_resize = 12;  // reshard: full-ring rounds a cycle
  // The main phase's schedule, per second of --seconds: workload steps,
  // update cycles on the workloads that do not loop on them (so that
  // every workload reports every end-to-end metric), and, in a traced
  // run, shrink-and-grow resize pairs for the migration layer. Each
  // count is at least its minimum, and odd, so a median is one sample.
  double steps_per_s = 0;
  double updates_per_s = 0;
  double pairs_per_s = 0;
  std::size_t min_ops = 3;
  std::size_t aux_min = 3;
};

Shape shape_for(const Options& o) {
  Shape s;
  const bool t = o.tiny;
  switch (o.workload) {
    case Workload::kSteady:
      s.agents = t ? 8 : 256;
      s.binaries = t ? 48 : 480;
      s.execs = 4;
      s.steps_per_s = 3;
      s.updates_per_s = 0.75;
      s.pairs_per_s = 0.35;
      s.min_ops = t ? 3 : 20;
      s.setups = 7;
      break;
    case Workload::kFirstContact:
      s.agents = t ? 4 : 8;
      s.binaries = t ? 400 : 50000;
      s.execs = s.binaries;  // every repetition re-executes the image
      s.steps_per_s = 0.3;
      s.updates_per_s = 0.55;
      s.pairs_per_s = 0.15;
      s.setups = 3;  // each set-up writes a 50,000-file image per machine
      break;
    case Workload::kRollout:
      s.agents = t ? 4 : 16;
      s.binaries = t ? 48 : 480;
      s.execs = 4;
      s.globs = 96;
      s.synthetic = t ? 2000 : 30000;
      s.steps_per_s = 1.2;  // the workload's own steps are update cycles
      s.pairs_per_s = 0.15;
      s.setups = 7;  // a set-up takes about 0.3 s
      // A cycle slows by about half over the first 25 cycles, then
      // levels off; time the level.
      s.warmup_updates = t ? 2 : 24;
      break;
    case Workload::kReshard:
      s.agents = t ? 8 : 32;
      s.binaries = t ? 48 : 64;
      s.execs = 4;
      s.globs = 96;
      s.synthetic = t ? 2000 : 20000;
      s.steps_per_s = 0.25;  // the workload's own steps resize
      s.updates_per_s = 0.2;
      break;
  }
  if (t) {
    s.shards = 2;
    s.setups = 2;
    s.aux_min = 2;
  }
  // At most one allocated shard per CPU: the pool spawns one worker per
  // allocated shard per round.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  s.shards = std::max<std::size_t>(2, std::min<std::size_t>(s.shards, cpus));
  return s;
}

// ------------------------------------------------------------ the report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> check_failures;
  std::uint64_t checks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok && check_failures.size() < 20) check_failures.push_back(what);
    if (!ok && check_failures.size() == 20) {
      check_failures.push_back("(further check failures elided)");
    }
  }
  bool correct() const { return check_failures.empty(); }
};

// --------------------------------------------------------- policy shapes

/// A production-shaped exclude list: churn-file suffixes, spool trees,
/// tool scratch dirs and plain directory excludes, in equal parts.
void add_exclude_list(keylime::RuntimePolicy& policy, std::size_t globs) {
  const char* suffixes[] = {"log", "tmp", "swp", "pyc",
                            "bak", "cache", "old", "lock"};
  for (std::size_t i = 0; i < globs; ++i) {
    switch (i % 4) {
      case 0:
        policy.exclude(strformat("*.%s.%zu", suffixes[i % 8], i / 4));
        break;
      case 1:
        policy.exclude(strformat("*/spool-%03zu/*", i));
        break;
      case 2:
        policy.exclude(strformat("*/tool-scratch-%03zu/*", i));
        break;
      default:
        policy.exclude(strformat("/var/cache/app-%03zu/*", i));
        break;
    }
  }
}

std::string synthetic_path(std::size_t i) {
  return strformat("/usr/lib/x86_64-linux-gnu/pkg-%05zu/libtool-%zu.so.0",
                   i / 4, i % 4);
}

std::string seeded_hash(std::uint64_t seed, const std::string& what) {
  return crypto::digest_hex(crypto::sha256(
      strformat("%llu:", static_cast<unsigned long long>(seed)) + what));
}

/// Package-shaped entries (two acceptable hashes per path), the shape of
/// a distribution-wide runtime policy.
void add_synthetic(keylime::RuntimePolicy& policy, std::size_t entries,
                   std::uint64_t seed) {
  for (std::size_t i = 0; i < entries / 2; ++i) {
    const std::string path = synthetic_path(i);
    for (std::size_t h = 0; h < 2; ++h) {
      policy.allow(path, seeded_hash(seed, strformat("content-%zu-%zu", i, h)));
    }
  }
}

// ------------------------------------------------------------------ rig

/// One fleet under test, with the telemetry registry and alert pipeline
/// attached as in production. Declaration order matters: the fleet
/// holds raw pointers to both, so it is destroyed first.
struct Rig {
  telemetry::MetricsRegistry metrics;
  keylime::alert_pipeline::AlertPipeline pipeline;
  std::unique_ptr<experiments::PoolFleet> fleet;
  keylime::RuntimePolicy policy;  // the head revision every agent holds
  std::string digest;             // its content address
  std::uint64_t next_round = 0;   // workload-round counter
  std::uint64_t consumed = 0;     // IMA entries already shipped
};

/// The timed run_round() calls of one phase. Rates are taken per round
/// and reported as medians, so a burst of load from outside the process
/// moves a few samples rather than the result.
struct RoundLog {
  std::vector<double> wall_ms;
  std::vector<double> polls_per_s;
  std::vector<double> cpu_ms_per_poll;
  std::vector<double> entries_per_s;
  double cpu_ms = 0;
  std::uint64_t polls = 0;
  std::uint64_t entries = 0;

  void add(double wall, double cpu, std::uint64_t round_polls,
           std::uint64_t round_entries) {
    wall_ms.push_back(wall);
    cpu_ms += cpu;
    polls += round_polls;
    entries += round_entries;
    if (round_polls > 0 && wall > 0) {
      const double n = static_cast<double>(round_polls);
      polls_per_s.push_back(n / (wall / 1e3));
      cpu_ms_per_poll.push_back(cpu / n);
      entries_per_s.push_back(static_cast<double>(round_entries) /
                              (wall / 1e3));
    }
  }
};

struct MigrationTally {
  std::uint64_t moved = 0;
  std::uint64_t ok = 0;
  std::uint64_t fallback = 0;
  std::uint64_t failed = 0;
  std::uint64_t revision_lost = 0;
  std::uint64_t op_failures = 0;  // moved agents whose move failed
};

class Bench {
 public:
  Bench(const Options& options, Report& report)
      : opt_(options),
        shape_(shape_for(options)),
        report_(report),
        rec_(false),
        rng_(options.seed ^ 0x5eedf1ee7ull),
        audit_(crypto::derive_keypair(to_bytes("fleetbench-audit"),
                                      "audit-signing")) {}

  int run();

 private:
  // ---- building blocks
  std::unique_ptr<Rig> setup_once(double* setup_ms);
  keylime::RuntimePolicy synthesize_policy(Rig& rig);
  std::uint64_t total_log_entries(Rig& rig);
  void timed_round(Rig& rig, RoundLog* log, std::uint64_t op);
  void gen_workload_round(Rig& rig);
  void update_cycle(Rig& rig, std::uint64_t cycle, RoundLog* rounds,
                    std::vector<double>* update_s);
  double resize_once(Rig& rig, std::size_t target);
  void resize_pair(Rig& rig, std::size_t rounds_between, std::uint64_t op);
  void replay_poll(Rig& rig, std::size_t k, std::uint64_t offset,
                   std::uint64_t op);
  Status push_full(Rig& rig, const keylime::RuntimePolicy& policy);

  // ---- workloads (one main-phase step each)
  void step_steady(Rig& rig, std::uint64_t op);
  void step_first_contact(Rig& rig, std::uint64_t op);
  void step_rollout(Rig& rig, std::uint64_t op);
  void step_reshard(Rig& rig, std::uint64_t op);

  void final_checks(Rig& rig);
  void report_end_to_end(double setup_s);
  void report_layers(Rig& rig, double untraced_headline,
                     double traced_headline);
  double headline() const;

  const Options& opt_;
  Shape shape_;
  Report& report_;
  SpanRecorder rec_;  // enabled for the traced half of a traced run
  Rng rng_;
  HostRecord host_;
  ReferenceWork reference_;
  std::vector<double> ref1_ms_, refn_ms_;  // reference work, 1 and N threads

  // Main-phase samples (the end-to-end metrics).
  RoundLog main_rounds_;
  RoundLog traced_rounds_;
  std::vector<double> update_s_;
  std::vector<double> resize_ms_;
  std::vector<double> setup_ms_;
  MigrationTally migrations_;

  // Traced-run bookkeeping.
  keylime::AuditLog audit_;  // benchmark-owned log for audit.append
  std::shared_ptr<const keylime::PolicyIndex> bench_index_;
  keylime::AppraisalCache bench_cache_;
  std::uint64_t replayed_entries_ = 0;
  std::vector<double> payload_bytes_;     // exported slice sizes
  std::vector<double> moved_per_resize_;  // agents moved by each resize
  double shard_skew_ = 0;
  std::size_t active_ = 0;          // shards on the ring
  std::uint64_t alerts_seen_ = 0;
};

// ------------------------------------------------------ building blocks

keylime::RuntimePolicy Bench::synthesize_policy(Rig& rig) {
  auto span = rec_.scope("workload.gen", 0);
  keylime::RuntimePolicy policy = rig.fleet->fleet_policy();
  add_exclude_list(policy, shape_.globs);
  add_synthetic(policy, shape_.synthetic, opt_.seed);
  return policy;
}

Status Bench::push_full(Rig& rig, const keylime::RuntimePolicy& policy) {
  const std::string digest = ps::policy_digest(policy);
  Status s = rig.fleet->pool().push_revision(rig.fleet->agent_ids(), policy,
                                             digest, nullptr);
  if (s.ok()) {
    rig.policy = policy;
    rig.digest = digest;
  }
  return s;
}

std::unique_ptr<Rig> Bench::setup_once(double* setup_ms) {
  // Timed: fleet construction, enrolment, the first (content-addressed)
  // policy push, and one warm-up round. Policy synthesis and the warm-up
  // round's machine execs are workload generation and are subtracted.
  auto rig = std::make_unique<Rig>();
  const auto start = Clock::now();
  double gen_ms = 0;

  experiments::PoolFleetOptions fo;
  fo.agents = shape_.agents;
  fo.shards = shape_.shards;
  fo.seed = opt_.seed;
  fo.binaries_per_machine = shape_.binaries;
  fo.execs_per_round = shape_.execs;
  fo.retrying_transport = true;
  fo.metrics = &rig->metrics;
  rig->fleet = std::make_unique<experiments::PoolFleet>(fo);
  report_.check(rig->fleet->init_status().ok(), "fleet construction");
  if (!rig->fleet->init_status().ok()) return nullptr;
  rig->pipeline.use_telemetry(&rig->metrics);
  rig->fleet->pool().use_alert_pipeline(&rig->pipeline);

  auto gen_start = Clock::now();
  keylime::RuntimePolicy policy = synthesize_policy(*rig);
  gen_ms += ms_since(gen_start);
  report_.check(push_full(*rig, policy).ok(), "first policy push");

  if (opt_.workload != Workload::kFirstContact) {
    gen_start = Clock::now();
    gen_workload_round(*rig);
    gen_ms += ms_since(gen_start);
  }
  timed_round(*rig, nullptr, 0);
  *setup_ms = ms_since(start) - gen_ms;
  active_ = rig->fleet->pool().active_shard_count();
  return rig;
}

std::uint64_t Bench::total_log_entries(Rig& rig) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rig.fleet->agent_ids().size(); ++i) {
    total += rig.fleet->machine(i).ima().log().size();
  }
  return total;
}

/// Every machine executes the round's slice of the image, binaries no
/// round since the last boot executed, so IMA measures each of them. When
/// the slice wraps, IMA would log nothing new: every machine reboots
/// first and the verifier sees the reboot in an untimed round, after
/// which the image measures afresh.
void Bench::gen_workload_round(Rig& rig) {
  const std::uint64_t round = rig.next_round++;
  const std::size_t rounds_per_boot =
      std::max<std::size_t>(1, shape_.binaries / shape_.execs);
  if (round > 0 && round % rounds_per_boot == 0) {
    {
      auto span = rec_.scope("workload.gen", round);
      for (const std::string& id : rig.fleet->agent_ids()) {
        report_.check(rig.fleet->reboot_agent(id).ok(), "reboot " + id);
      }
    }
    timed_round(rig, nullptr, round);
    rig.consumed = 0;  // the next poll re-walks every fresh log from zero
  }
  auto span = rec_.scope("workload.gen", round);
  rig.fleet->run_workload_round(round);
}

void Bench::timed_round(Rig& rig, RoundLog* log, std::uint64_t op) {
  keylime::VerifierPool& pool = rig.fleet->pool();
  const std::uint64_t raw_before = rig.pipeline.stats().raw;
  const double cpu0 = process_cpu_ms();
  const auto start = Clock::now();
  std::size_t polls = 0;
  {
    auto span = rec_.scope("round", op);
    polls = pool.run_round();
  }
  const double wall = ms_since(start);
  const double cpu = process_cpu_ms() - cpu0;

  // Every enrolled agent answers every round; each raw alert is a poll
  // that did not pass.
  // After a reboot the logs restart, and the verifier re-walks them.
  const std::uint64_t now_entries = total_log_entries(rig);
  const std::uint64_t entries = now_entries >= rig.consumed
                                    ? now_entries - rig.consumed
                                    : now_entries;
  rig.consumed = now_entries;
  const std::uint64_t alerts = rig.pipeline.stats().raw - raw_before;
  alerts_seen_ += alerts;
  report_.attempted += polls;
  report_.failed += std::min<std::uint64_t>(alerts, polls);
  report_.check(polls == rig.fleet->agent_ids().size(),
                strformat("round %llu polled %zu of %zu agents",
                          static_cast<unsigned long long>(op), polls,
                          rig.fleet->agent_ids().size()));
  if (log != nullptr) log->add(wall, cpu, polls, entries);
}

/// Find the agent endpoint wherever its shard network currently holds it.
netsim::Endpoint* agent_endpoint(keylime::VerifierPool& pool,
                                 const std::string& id) {
  const std::string address = "agent:" + id;
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    if (pool.network(s).attached(address)) {
      return pool.network(s).endpoint(address);
    }
  }
  return nullptr;
}

void Bench::replay_poll(Rig& rig, std::size_t k, std::uint64_t offset,
                        std::uint64_t op) {
  if (!rec_.enabled()) return;
  const std::string& id = rig.fleet->agent_ids().at(k);
  oskernel::Machine& machine = rig.fleet->machine(k);
  netsim::Endpoint* agent = agent_endpoint(rig.fleet->pool(), id);
  report_.check(agent != nullptr, "replay: agent endpoint of " + id);
  if (agent == nullptr) return;
  if (!bench_index_) bench_index_ = keylime::PolicyIndex::build(rig.policy);

  auto replay = rec_.scope("replay", op);
  const Bytes nonce = rng_.bytes(20);
  {
    auto span = rec_.scope("tpm.quote", op);
    const tpm::Quote q = machine.tpm().quote(nonce, keylime::quoted_pcrs());
    report_.check(!q.pcr_values.empty(), "replay: TPM quote");
  }
  keylime::QuoteRequest req;
  req.nonce = nonce;
  req.log_offset = offset;
  Result<Bytes> resp = [&] {
    auto span = rec_.scope("agent.serve", op);
    return agent->handle(keylime::kMsgQuote, req.encode());
  }();
  report_.check(resp.ok(), "replay: agent served the quote request");
  if (!resp.ok()) return;
  Result<keylime::QuoteResponseView> view = [&] {
    auto span = rec_.scope("messages.decode", op);
    return keylime::QuoteResponseView::decode(resp.value());
  }();
  report_.check(view.ok(), "replay: response decodes");
  if (!view.ok()) return;
  const keylime::QuoteResponseView& qr = view.value();
  {
    auto span = rec_.scope("crypto.quote_verify", op);
    report_.check(qr.quote.verify(machine.tpm().ak_public()),
                  "replay: quote signature verifies");
  }
  {
    auto span = rec_.scope("verify_fold", op);
    constexpr std::size_t kBlock = 128;
    crypto::HashInput inputs[kBlock];
    crypto::Digest computed[kBlock];
    crypto::Digest folded = crypto::zero_digest();
    bool match = true;
    for (std::size_t base = 0; base < qr.entries.size(); base += kBlock) {
      const std::size_t n = std::min(kBlock, qr.entries.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        const keylime::LogEntryView& e = qr.entries[base + i];
        inputs[i] = {e.file_hash.data(), e.file_hash.size(),
                     reinterpret_cast<const std::uint8_t*>(e.path.data()),
                     e.path.size()};
      }
      crypto::sha256_batch(inputs, n, computed);
      for (std::size_t i = 0; i < n; ++i) {
        match = match && computed[i] == qr.entries[base + i].template_hash;
        folded = crypto::pcr_fold(folded, computed[i]);
      }
    }
    report_.check(match, "replay: template hashes match entry data");
    if (offset == 0) {
      report_.check(folded == qr.quote.pcr_values.back(),
                    "replay: full log reproduces the quoted PCR");
    }
  }
  std::size_t bad = 0;
  {
    auto span = rec_.scope("appraise", op);
    for (const keylime::LogEntryView& e : qr.entries) {
      if (e.path == "boot_aggregate") continue;
      std::optional<keylime::PolicyMatch> verdict =
          bench_cache_.lookup(e.template_hash, bench_index_->uid());
      if (!verdict) {
        verdict = bench_index_->check(e.path, e.file_hash);
        bench_cache_.insert(e.template_hash, bench_index_->uid(), *verdict);
      }
      bad += *verdict != keylime::PolicyMatch::kAllowed &&
             *verdict != keylime::PolicyMatch::kExcluded;
    }
  }
  report_.check(bad == 0, strformat("replay: %zu entries out of policy", bad));
  {
    auto span = rec_.scope("audit.append", op);
    audit_.append(static_cast<SimTime>(op), id, keylime::AuditVerdict::kPassed,
                  0, qr.entries.size(),
                  crypto::sha256(qr.quote.attested_message()));
  }
  replayed_entries_ += qr.entries.size();
}

/// One daily update, from "update in hand" to every agent appraising
/// under it. The upgraded binaries are installed and executed first
/// (workload generation); then the timed steps run in order.
void Bench::update_cycle(Rig& rig, std::uint64_t cycle, RoundLog* rounds,
                         std::vector<double>* update_s) {
  experiments::PoolFleet& fleet = *rig.fleet;
  keylime::VerifierPool& pool = fleet.pool();
  const std::size_t agents = fleet.agent_ids().size();
  ++report_.attempted;

  // ---- workload generation: upgrade 4 packaged binaries on every
  // machine and derive the target policy (untimed). They live outside
  // the image the workload rounds execute, so every round still brings
  // the same number of new measurements.
  keylime::RuntimePolicy target;
  std::uint64_t offset0 = 0;
  {
    auto span = rec_.scope("workload.gen", cycle);
    offset0 = fleet.machine(cycle % agents).ima().log().size();
    target = rig.policy;
    constexpr std::size_t kUpgraded = 4;
    for (std::size_t k = 0; k < kUpgraded; ++k) {
      const std::string path = strformat(
          "/usr/sbin/daily-%02zu",
          static_cast<std::size_t>((cycle * kUpgraded + k) % 64));
      const Bytes content = to_bytes(strformat(
          "elf:%s:seed%llu:rev%llu", path.c_str(),
          static_cast<unsigned long long>(opt_.seed),
          static_cast<unsigned long long>(cycle)));
      for (std::size_t i = 0; i < agents; ++i) {
        oskernel::Machine& m = fleet.machine(i);
        if (m.fs().exists(path)) {
          (void)m.fs().write_file(path, content);
        } else {
          (void)m.fs().create_file(path, content, true);
        }
        (void)m.exec(path);
      }
      const auto st = fleet.machine(0).fs().stat(path);
      if (st.ok()) {
        target.set_hashes(path, {crypto::digest_hex(st.value().content_hash)});
      }
    }
    // The rest of the paper's 1,271 : 323,734 proportion: package
    // upgrades (replaced hash pairs), new files, and removal of the
    // previous cycle's new files.
    const std::size_t lines = std::max<std::size_t>(
        kUpgraded, (rig.policy.entry_count() * 1271) / 323734);
    const std::size_t rest = lines - kUpgraded;
    const std::size_t adds = rest / 4;
    const std::size_t replaces = shape_.synthetic > 0 ? rest - 2 * adds : 0;
    const std::size_t pkg_paths = shape_.synthetic / 2;
    for (std::size_t i = 0; i < replaces && pkg_paths > 0; ++i) {
      const std::size_t p = (cycle * 7919 + i * 104729) % pkg_paths;
      target.set_hashes(
          synthetic_path(p),
          {seeded_hash(opt_.seed, strformat("up-%llu-%zu-0",
                                            static_cast<unsigned long long>(cycle), p)),
           seeded_hash(opt_.seed, strformat("up-%llu-%zu-1",
                                            static_cast<unsigned long long>(cycle), p))});
    }
    for (std::size_t i = 0; i < adds; ++i) {
      target.allow(strformat("/srv/daily/c%llu-new-%05zu",
                             static_cast<unsigned long long>(cycle), i),
                   seeded_hash(opt_.seed, strformat("fresh-%zu", i)));
      if (cycle > 0) {
        (void)target.remove_path(
            strformat("/srv/daily/c%llu-new-%05zu",
                      static_cast<unsigned long long>(cycle - 1), i));
      }
    }
  }

  // ---- timed: update in hand -> every agent appraising under it.
  std::string target_digest;
  ps::PolicyDelta delta;
  Result<keylime::RuntimePolicy> applied =
      err(Errc::kInvalidArgument, "not applied");
  std::uint64_t revision = 0;
  {
    auto cycle_span = rec_.scope("update", cycle);
    const auto start = Clock::now();
    {
      auto span = rec_.scope("policy_store.digest", cycle);
      target_digest = ps::policy_digest(target);
    }
    {
      auto span = rec_.scope("policy_store.diff", cycle);
      delta = ps::diff(rig.policy, target);
    }
    report_.check(delta.target_digest == target_digest &&
                      delta.base_digest == rig.digest,
                  "diff binds the base and target digests");
    if (opt_.inject == "bad_base" && cycle == 1) {
      delta.base_digest = target_digest;  // minted against another base
    }
    {
      auto span = rec_.scope("policy_store.apply_verify", cycle);
      applied = ps::apply(rig.policy, delta);
    }
    if (applied.ok()) {
      Status pushed = [&] {
        auto span = rec_.scope("pool.push", cycle);
        return pool.push_revision(fleet.agent_ids(), applied.value(),
                                  target_digest, &delta);
      }();
      report_.check(pushed.ok(), "push_revision accepted the delta");
      revision = pool.policy_revision();
      {
        auto span = rec_.scope("pool.install_round", cycle);
        timed_round(rig, rounds, cycle);
      }
      if (update_s != nullptr) update_s->push_back(ms_since(start) / 1e3);
    }
  }
  if (!applied.ok()) {
    // A refused delta is a failed push. The orchestrator then falls back
    // to a full push of the target, so the fleet keeps appraising
    // correctly; the cycle is not an update_s sample.
    ++report_.failed;
    std::printf("update cycle %llu: delta push refused (%s); full push\n",
                static_cast<unsigned long long>(cycle),
                applied.error().message.c_str());
    report_.check(push_full(rig, target).ok(), "fallback full push");
    timed_round(rig, nullptr, cycle);
    return;
  }
  for (const std::string& id : fleet.agent_ids()) {
    if (pool.policy_revision_of(id) != revision) {
      report_.check(false, strformat("%s holds revision %llu, pushed %llu",
                                     id.c_str(),
                                     static_cast<unsigned long long>(
                                         pool.policy_revision_of(id)),
                                     static_cast<unsigned long long>(revision)));
      break;
    }
  }

  if (rec_.enabled()) {
    // Index builds, replayed on benchmark-owned indexes: the overlay
    // patch push_revision paid, and the full build a digest-less push
    // would have paid.
    if (!bench_index_) bench_index_ = keylime::PolicyIndex::build(rig.policy);
    {
      auto span = rec_.scope("policy_index.build_incremental", cycle);
      (void)keylime::PolicyIndex::build_incremental(
          bench_index_, applied.value(), delta, revision);
    }
    {
      auto span = rec_.scope("policy_index.build_full", cycle);
      bench_index_ = keylime::PolicyIndex::build(applied.value(), revision);
    }
    bench_cache_.clear();
  }
  rig.policy = std::move(applied).take();
  rig.digest = target_digest;
  replay_poll(rig, cycle % agents, offset0, cycle);
}

/// One resize() call, then the moved agents' tally and one untimed round.
/// Returns the call's wall time in ms, or -1 when it failed.
double Bench::resize_once(Rig& rig, std::size_t target) {
  experiments::PoolFleet& fleet = *rig.fleet;
  keylime::VerifierPool& pool = fleet.pool();
  const std::vector<std::string>& ids = fleet.agent_ids();
  std::map<std::string, std::uint64_t> revision_before, handoffs_before;
  for (const std::string& id : ids) {
    revision_before[id] = pool.policy_revision_of(id);
    handoffs_before[id] = pool.handoffs(id);
  }
  const keylime::VerifierPool::MigrationStats before = pool.migration_stats();
  ++report_.attempted;
  const std::uint64_t op = pool.migration_stats().resizes;

  const auto start = Clock::now();
  Status s = [&] {
    auto span = rec_.scope("resize", op);
    return pool.resize(target);
  }();
  const double wall = ms_since(start);
  if (!s.ok()) ++report_.failed;
  report_.check(s.ok(), "resize accepted");
  active_ = pool.active_shard_count();

  // Each moved agent is one migration: it fails when the handoff did not
  // end ok, or when the agent's policy binding changed across the move.
  const keylime::VerifierPool::MigrationStats& after = pool.migration_stats();
  migrations_.ok += after.ok - before.ok;
  migrations_.fallback += after.fallback - before.fallback;
  migrations_.failed += after.failed - before.failed;
  std::vector<std::string> moved;
  for (const std::string& id : ids) {
    if (pool.handoffs(id) == handoffs_before[id]) continue;
    moved.push_back(id);
    ++migrations_.moved;
    const bool lost = pool.policy_revision_of(id) != revision_before[id];
    migrations_.revision_lost += lost;
  }
  migrations_.op_failures += (after.fallback - before.fallback) +
                             (after.failed - before.failed);
  for (const std::string& id : moved) {
    migrations_.op_failures +=
        pool.policy_revision_of(id) != revision_before[id];
  }

  if (rec_.enabled()) {
    // Replay what the handoff carried: export each moved agent's slice
    // from the verifier now holding it, size it, validate it.
    for (const std::string& id : moved) {
      for (std::size_t sh = 0; sh < pool.shard_count(); ++sh) {
        if (!pool.verifier(sh).agent_address(id)) continue;
        Result<json::Value> slice = [&] {
          auto span = rec_.scope("migration.export", op);
          return pool.verifier(sh).export_agent(id);
        }();
        report_.check(slice.ok(), "export_agent of a moved agent");
        if (!slice.ok()) break;
        payload_bytes_.push_back(
            static_cast<double>(slice.value().dump().size()));
        Status valid = [&] {
          auto span = rec_.scope("migration.validate", op);
          return keylime::Verifier::validate_agent_slice(slice.value());
        }();
        report_.check(valid.ok(), "exported slice validates");
        break;
      }
    }
    moved_per_resize_.push_back(static_cast<double>(moved.size()));
  }

  // Re-bind the moved agents to the head revision (the same digest, so
  // the pool reuses its index) before the next round, so that every
  // resize starts from the same state.
  if (!moved.empty() && !rig.digest.empty()) {
    report_.check(pool.push_revision(moved, rig.policy, rig.digest, nullptr)
                      .ok(),
                  "re-bind moved agents");
  }
  timed_round(rig, nullptr, op);
  return s.ok() ? wall : -1;
}

/// Shrinks the ring by one shard, runs `rounds_between` workload rounds on
/// the smaller ring, and grows it back. A shrink and a grow move agents in
/// opposite directions and need not cost the same, so a median over single
/// calls would jump between the two; one resize_ms sample is instead the
/// mean of the pair.
void Bench::resize_pair(Rig& rig, std::size_t rounds_between,
                        std::uint64_t op) {
  const double shrink = resize_once(rig, shape_.shards - 1);
  for (std::size_t r = 0; r < rounds_between; ++r) {
    gen_workload_round(rig);
    timed_round(rig, nullptr, op);
  }
  const double grow = resize_once(rig, shape_.shards);
  if (shrink >= 0 && grow >= 0) resize_ms_.push_back((shrink + grow) / 2);
}

// ------------------------------------------------------------ workloads

void Bench::step_steady(Rig& rig, std::uint64_t op) {
  const std::size_t k = op % rig.fleet->agent_ids().size();
  const std::uint64_t offset = rig.fleet->machine(k).ima().log().size();
  gen_workload_round(rig);
  timed_round(rig, &main_rounds_, op);
  replay_poll(rig, k, offset, op);
  if (opt_.inject == "unknown_exec" && op == 0) {
    // An unknown binary on one machine: the next poll of that agent must
    // raise an alert and fail the output check.
    rig.fleet->exec_unknown(0);
  }
}

void Bench::step_first_contact(Rig& rig, std::uint64_t op) {
  experiments::PoolFleet& fleet = *rig.fleet;
  const std::size_t agents = fleet.agent_ids().size();
  // Untimed: reboot every machine and let the verifier see the reboot,
  // then re-execute the image and push a fresh revision so every
  // verdict cache starts cold.
  for (const std::string& id : fleet.agent_ids()) {
    report_.check(fleet.reboot_agent(id).ok(), "reboot " + id);
  }
  timed_round(rig, nullptr, op);
  rig.consumed = 0;  // the next poll re-walks every fresh log from zero
  {
    auto span = rec_.scope("workload.gen", op);
    fleet.run_workload_round(0);
  }
  keylime::RuntimePolicy fresh = rig.policy;
  fresh.allow(strformat("/srv/fleetbench/revision-%llu",
                        static_cast<unsigned long long>(op)),
              seeded_hash(opt_.seed, "revision-marker"));
  report_.check(push_full(rig, fresh).ok(), "fresh revision push");
  bench_index_.reset();  // replays appraise against the fresh revision

  const keylime::VerifierPool::Stats before = fleet.pool().stats();
  const std::uint64_t generated = total_log_entries(rig);
  timed_round(rig, &main_rounds_, op);
  const keylime::VerifierPool::Stats after = fleet.pool().stats();
  // Every entry but each log's boot_aggregate is appraised: from the
  // verdict cache or by an index probe.
  const std::uint64_t appraised = (after.index_hits - before.index_hits) +
                                  (after.index_misses - before.index_misses) +
                                  (after.cache_hits - before.cache_hits);
  report_.check(appraised + agents == generated,
                strformat("first contact appraised %llu of %llu entries",
                          static_cast<unsigned long long>(appraised),
                          static_cast<unsigned long long>(generated - agents)));
  bench_cache_.clear();
  replay_poll(rig, op % agents, 0, op);
}

void Bench::step_rollout(Rig& rig, std::uint64_t op) {
  update_cycle(rig, op, &main_rounds_, &update_s_);
}

/// One full cycle: rounds on the full ring, shrink it by one shard, a
/// couple of rounds on the smaller ring, grow it back. Round rates are
/// timed on the full ring only, so every run times the same ring size.
void Bench::step_reshard(Rig& rig, std::uint64_t op) {
  for (std::size_t r = 0; r < shape_.rounds_per_resize; ++r) {
    const std::size_t k = (op + r) % rig.fleet->agent_ids().size();
    const std::uint64_t offset = rig.fleet->machine(k).ima().log().size();
    gen_workload_round(rig);
    timed_round(rig, &main_rounds_, op);
    replay_poll(rig, k, offset, op);
  }
  resize_pair(rig, 2, op);
}

// ---------------------------------------------------------------- checks

/// verify_audit_chain without its per-log sub-chain rule, from record
/// `from` on (the records before it already verified): sequence numbers,
/// chain links, record hashes and signatures.
Status verify_records(const std::vector<keylime::AuditRecord>& records,
                      const crypto::PublicKey& key, std::size_t from) {
  if (from > records.size()) from = 0;
  crypto::Digest prev =
      from == 0 ? crypto::zero_digest() : records[from - 1].record_hash;
  for (std::size_t i = from; i < records.size(); ++i) {
    const keylime::AuditRecord& r = records[i];
    if (r.sequence != i || r.prev_hash != prev ||
        r.record_hash != r.compute_hash() ||
        !crypto::verify(key, crypto::digest_bytes(r.record_hash),
                        r.signature)) {
      return err(Errc::kCorrupted, strformat("record %zu does not verify", i));
    }
    prev = r.record_hash;
  }
  return Status::ok_status();
}

/// Every agent's records, gathered from all shards and ordered by
/// agent_seq, must form one unbroken sub-chain from its first record.
Status verify_agent_subchains(const keylime::VerifierPool& pool) {
  std::map<std::string, std::vector<const keylime::AuditRecord*>> by_agent;
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    for (const keylime::AuditRecord& r : pool.verifier(s).audit().records()) {
      by_agent[r.agent_id].push_back(&r);
    }
  }
  for (auto& [agent, records] : by_agent) {
    std::sort(records.begin(), records.end(),
              [](const keylime::AuditRecord* a, const keylime::AuditRecord* b) {
                return a->agent_seq < b->agent_seq;
              });
    crypto::Digest prev = crypto::zero_digest();
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i]->agent_seq != i || records[i]->agent_prev_hash != prev) {
        return err(Errc::kCorrupted,
                   strformat("%s: sub-chain breaks at agent_seq %zu",
                             agent.c_str(), i));
      }
      prev = records[i]->agent_hash();
    }
  }
  return Status::ok_status();
}

void Bench::final_checks(Rig& rig) {
  keylime::VerifierPool& pool = rig.fleet->pool();
  // Benign workloads raise zero alerts and every agent still attests.
  report_.check(alerts_seen_ == 0 && pool.alerts().empty(),
                strformat("%llu alerts raised",
                          static_cast<unsigned long long>(alerts_seen_)));
  for (const std::string& id : rig.fleet->agent_ids()) {
    const auto state = pool.state(id);
    if (!state || *state != keylime::AgentState::kAttesting) {
      report_.check(false, id + " is not attesting");
      break;
    }
  }
  // Every shard's audit chain verifies; one thread per shard (this runs
  // after all measurement).
  //
  // verify_audit_chain checks an agent's sub-chain only within one log,
  // so an agent that migrated away and later back reads there as a
  // broken sub-chain although no record changed. A shard it flags for
  // that reason is re-verified record by record without the per-log
  // sub-chain rule, and every agent's sub-chain is then checked across
  // all shards together.
  const std::size_t shards = pool.shard_count();
  std::vector<Status> verdicts(shards);
  std::vector<char> relinked(shards, 0);  // one writer per element
  {
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < shards; ++s) {
      workers.emplace_back([&pool, &verdicts, &relinked, s] {
        const keylime::AuditLog& log = pool.verifier(s).audit();
        verdicts[s] = keylime::verify_audit_chain(log.records(),
                                                  log.public_key());
        std::size_t at = 0;
        if (verdicts[s].ok() ||
            verdicts[s].error().message.find("broken agent sub-chain") ==
                std::string::npos ||
            std::sscanf(verdicts[s].error().message.c_str(), "record %zu:",
                        &at) != 1) {
          return;
        }
        // verify_audit_chain stopped at record `at`; every record before
        // it passed.
        relinked[s] = 1;
        verdicts[s] = verify_records(log.records(), log.public_key(), at);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  std::size_t flagged = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    flagged += relinked[s];
    report_.check(verdicts[s].ok(),
                  strformat("audit chain of shard %zu: %s", s,
                            verdicts[s].ok()
                                ? "ok"
                                : verdicts[s].error().message.c_str()));
  }
  const Status stitched = verify_agent_subchains(pool);
  report_.check(stitched.ok(), "agent sub-chains across shards: " +
                                   (stitched.ok() ? std::string("ok")
                                                  : stitched.error().message));
  if (flagged > 0) {
    std::printf("audit: verify_audit_chain flagged %zu of %zu shards for "
                "agents that migrated back; records and cross-shard "
                "sub-chains verified\n",
                flagged, shards);
  }
  const std::size_t benchmark_records = audit_.records().size();
  report_.check(keylime::verify_audit_chain(audit_.records(),
                                            audit_.public_key())
                        .ok() ||
                    benchmark_records == 0,
                "benchmark-owned audit chain verifies");
}

// --------------------------------------------------------------- report

void Bench::report_end_to_end(double setup_s) {
  auto add = [&](const char* name, double v, const char* unit) {
    report_.end_to_end.push_back({name, v, unit});
  };
  add("setup_s", setup_s, "s");
  add("polls_per_s", median(main_rounds_.polls_per_s), "polls/s");
  add("cpu_ms_per_poll", median(main_rounds_.cpu_ms_per_poll), "ms");
  add("round_ms_p50", median(main_rounds_.wall_ms), "ms");
  add("entries_per_s", median(main_rounds_.entries_per_s), "entries/s");
  add("update_s_p50", median(update_s_), "s");
  add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The workload's headline time per operation, for the tracing overhead.
double Bench::headline() const {
  const RoundLog& rounds = main_rounds_;
  switch (opt_.workload) {
    case Workload::kSteady:
      return rounds.polls > 0
                 ? rounds.cpu_ms / static_cast<double>(rounds.polls)
                 : 0;
    case Workload::kFirstContact:
      return median(rounds.wall_ms);
    case Workload::kRollout:
      return median(update_s_) * 1e3;
    case Workload::kReshard:
      return median(resize_ms_);
  }
  return 0;
}

void Bench::report_layers(Rig& rig, double untraced_headline,
                          double traced_headline) {
  const std::map<std::string, std::vector<double>> self = rec_.self_by_name();
  const std::map<std::string, std::vector<double>> dur =
      rec_.duration_by_name();
  // Median self time of one call, and summed self time of all calls, µs.
  const auto med = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const auto total = [&](const std::map<std::string, std::vector<double>>& m,
                         const char* name) {
    auto it = m.find(name);
    double sum = 0;
    if (it != m.end()) {
      for (double v : it->second) sum += v;
    }
    return sum;
  };
  const double entries = static_cast<double>(std::max<std::uint64_t>(
      1, replayed_entries_));
  auto add = [&](const char* name, double v, const char* unit) {
    report_.per_layer.push_back({name, v, unit});
  };

  const HostRecord& h = host_;
  add("host.nproc", h.nproc, "count");
  add("host.busy2_ratio", h.busy2_ratio, "x");
  add("host.busy4_ratio", h.busy4_ratio, "x");
  add("host.ref1_ms", median(ref1_ms_), "ms");
  add("host.refn_ms", median(refn_ms_), "ms");

  const double quote_us = med("tpm.quote");
  const double serve_us = med("agent.serve");
  const double verify_us = med("crypto.quote_verify");
  const double append_us = med("audit.append");
  add("tpm.quote_us", quote_us, "us");
  add("agent.serve_us", serve_us, "us");
  add("crypto.quote_verify_us", verify_us, "us");
  add("audit.append_us", append_us, "us");
  // agent.serve already contains one Tpm2::quote, so the fixed cost of a
  // poll is serve + verify + append.
  const double fixed_us = serve_us + verify_us + append_us;
  add("poll.fixed_us", fixed_us, "us");
  const double decode_ns = total(self, "messages.decode") * 1e3 / entries;
  const double fold_ns = total(self, "verify_fold") * 1e3 / entries;
  const double appraise_ns = total(self, "appraise") * 1e3 / entries;
  add("messages.decode_ns_per_entry", decode_ns, "ns");
  add("verify_fold.ns_per_entry", fold_ns, "ns");
  add("appraise.ns_per_entry", appraise_ns, "ns");

  const keylime::VerifierPool::Stats st = rig.fleet->pool().stats();
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  const double probes = static_cast<double>(st.index_hits + st.index_misses);
  add("appraisal_cache.hit_ratio",
      lookups > 0 ? static_cast<double>(st.cache_hits) / lookups : 0, "ratio");
  add("appraisal_cache.lookups", lookups, "count");
  add("policy_index.glob_fallback_ratio",
      probes > 0 ? static_cast<double>(st.index_misses) / probes : 0, "ratio");
  add("policy_index.probes", probes, "count");
  add("pool.shard_skew", shard_skew_, "ratio");

  // Telemetry: series count and the cost of one snapshot.
  std::vector<double> snap_ms;
  std::size_t series = 0;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    auto span = rec_.scope("telemetry.snapshot", static_cast<std::uint64_t>(i));
    series = rig.metrics.snapshot().points.size();
    snap_ms.push_back(ms_since(start));
  }
  add("telemetry.series", static_cast<double>(series), "count");
  add("telemetry.snapshot_ms", median(snap_ms), "ms");

  add("policy_store.digest_ms", med("policy_store.digest") / 1e3, "ms");
  add("policy_store.diff_ms", med("policy_store.diff") / 1e3, "ms");
  add("policy_store.apply_verify_ms", med("policy_store.apply_verify") / 1e3,
      "ms");
  add("policy_index.build_incremental_ms",
      med("policy_index.build_incremental") / 1e3, "ms");
  add("policy_index.build_full_ms", med("policy_index.build_full") / 1e3,
      "ms");
  add("pool.push_ms", med("pool.push") / 1e3, "ms");
  // The install round's own time is its run_round() child span.
  const auto it = dur.find("pool.install_round");
  add("pool.install_round_ms",
      it == dur.end() ? 0.0 : median(it->second) / 1e3, "ms");

  add("pool.resize_ms", median(resize_ms_), "ms");
  add("migration.export_ms", med("migration.export") / 1e3, "ms");
  add("migration.payload_kb", median(payload_bytes_) / 1024.0, "KB");
  add("migration.validate_ms", med("migration.validate") / 1e3, "ms");
  add("migration.moved", static_cast<double>(migrations_.moved), "count");
  add("migration.fallback", static_cast<double>(migrations_.fallback),
      "count");
  add("migration.revision_lost",
      static_cast<double>(migrations_.revision_lost), "count");

  add("workload.gen_ms", med("workload.gen") / 1e3, "ms");

  // Unattributed: the end-to-end time of the workload's operation minus
  // the layer self times replayed for it, as a share of the former.
  double e2e = 0, layers = 0;
  switch (opt_.workload) {
    case Workload::kSteady:
    case Workload::kFirstContact: {
      e2e = traced_rounds_.polls > 0
                ? traced_rounds_.cpu_ms * 1e3 /
                      static_cast<double>(traced_rounds_.polls)
                : 0;
      const double per_poll_entries =
          traced_rounds_.polls > 0
              ? static_cast<double>(traced_rounds_.entries) /
                    static_cast<double>(traced_rounds_.polls)
              : 0;
      layers = fixed_us +
               per_poll_entries * (decode_ns + fold_ns + appraise_ns) / 1e3;
      break;
    }
    case Workload::kRollout:
      // Every step of an update cycle is a layer span; what is left is
      // the cycle's own self time.
      e2e = total(dur, "update");
      layers = e2e - total(self, "update");
      break;
    case Workload::kReshard:
      e2e = med("resize");
      layers = median(moved_per_resize_) *
               (med("migration.export") + med("migration.validate"));
      break;
  }
  add("unattributed_pct", e2e > 0 ? 100.0 * (e2e - layers) / e2e : 0, "%");
  add("trace.overhead_pct",
      untraced_headline > 0
          ? 100.0 * (traced_headline - untraced_headline) / untraced_headline
          : 0,
      "%");
}

// ------------------------------------------------------------------ run

int Bench::run() {
  host_ = probe_host();
  std::printf("fleetbench workload=%s seed=%llu seconds=%g trace=%d size=%s%s%s\n",
              opt_.workload_name.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0, opt_.tiny ? "tiny" : "full",
              opt_.inject.empty() ? "" : " inject=", opt_.inject.c_str());
  std::printf("host: nproc=%u sha256=%s busy_ratio_2=%.2f busy_ratio_4=%.2f\n",
              host_.nproc, host_.sha256_backend.c_str(), host_.busy2_ratio,
              host_.busy4_ratio);
  std::printf("shape: agents=%zu shards=%zu image=%zu execs/round=%zu "
              "globs=%zu synthetic_entries=%zu\n",
              shape_.agents, shape_.shards, shape_.binaries, shape_.execs,
              shape_.globs, shape_.synthetic);
  std::fflush(stdout);

  // ---- set-up, several times; the last rig is the one measured.
  std::unique_ptr<Rig> rig;
  for (std::size_t i = 0; i < shape_.setups; ++i) {
    rig.reset();
    double ms = 0;
    rig = setup_once(&ms);
    if (!rig) break;
    setup_ms_.push_back(ms);
  }
  if (!rig) {
    std::printf("set-up failed\n");
    return 1;
  }
  // Attempts and alerts of the discarded set-ups do not count.
  report_.attempted = 0;
  report_.failed = 0;
  alerts_seen_ = 0;
  {
    // Agents per active shard: the slowest shard sets the round.
    keylime::VerifierPool& pool = rig->fleet->pool();
    double max_agents = 0, sum = 0;
    for (std::size_t s = 0; s < pool.active_shard_count(); ++s) {
      const double n = static_cast<double>(pool.verifier(s).agent_ids().size());
      max_agents = std::max(max_agents, n);
      sum += n;
    }
    const double mean = sum / static_cast<double>(pool.active_shard_count());
    shard_skew_ = mean > 0 ? max_agents / mean : 0;
  }

  // ---- warm-up, untimed: the first update cycles after set-up run on a
  // fresh heap and come out up to twice as fast as later ones.
  for (std::uint64_t i = 0; i < shape_.warmup_updates; ++i) {
    update_cycle(*rig, 900 + i, nullptr, nullptr);
  }

  // ---- main phase. A traced run spends its first half untraced (the
  // baseline for the tracing overhead) and its second half traced.
  using StepFn = void (Bench::*)(Rig&, std::uint64_t);
  StepFn step = &Bench::step_steady;
  switch (opt_.workload) {
    case Workload::kSteady: step = &Bench::step_steady; break;
    case Workload::kFirstContact: step = &Bench::step_first_contact; break;
    case Workload::kRollout: step = &Bench::step_rollout; break;
    case Workload::kReshard: step = &Bench::step_reshard; break;
  }
  // Resizes run in pairs (shrink, grow back), so the workload's own
  // steps always run on the full ring.
  std::uint64_t op = 0, aux_updates = 0;
  const auto aux_update = [&] {
    update_cycle(*rig, 1000 + aux_updates++, nullptr, &update_s_);
  };
  const auto aux_resize = [&] { resize_pair(*rig, 0, op); };
  // A phase runs a fixed schedule that follows from its length alone: so
  // many update cycles back to back, then so many workload steps; a
  // traced phase runs its resize pairs last. Every run of a workload
  // therefore does the same operations in the same order whatever the
  // host's speed; --seed changes only the inputs. Update
  // cycles come out slower late in a run than early in it, and slower
  // after a resize or a first-contact step than before, so a schedule
  // paced by the clock, or one that mixed them into the steps, would
  // shift their medians from run to run.
  const auto count = [](double seconds, double per_s, std::size_t least) {
    if (per_s <= 0) return std::size_t{0};
    const auto n = static_cast<std::size_t>(std::llround(seconds * per_s));
    return std::max(least, n) | 1;
  };
  const auto run_phase = [&](double seconds, std::size_t min_ops,
                             std::size_t aux_min) {
    const std::size_t steps = count(seconds, shape_.steps_per_s, min_ops);
    const std::size_t updates = count(seconds, shape_.updates_per_s, aux_min);
    for (std::size_t k = 0; k < updates; ++k) aux_update();
    auto last_ref = Clock::now();
    for (std::size_t i = 0; i < steps; ++i) {
      (this->*step)(*rig, op++);
      // The host record's speed sample: reference work between steps,
      // outside every timer, about once a second.
      if (ms_since(last_ref) >= 1000) {
        reference_.run_ms(1);  // bring the table back into cache
        ref1_ms_.push_back(reference_.run_ms(1));
        refn_ms_.push_back(
            reference_.run_ms(static_cast<unsigned>(shape_.shards)));
        last_ref = Clock::now();
      }
    }
    if (rec_.enabled()) {
      const std::size_t pairs = count(seconds, shape_.pairs_per_s, aux_min);
      for (std::size_t k = 0; k < pairs; ++k) aux_resize();
    }
  };
  double untraced_headline = 0, traced_headline = 0;
  if (opt_.trace) {
    const std::size_t half_min = std::max<std::size_t>(2, shape_.min_ops / 2);
    run_phase(opt_.seconds / 2, half_min, 1);
    untraced_headline = headline();
    main_rounds_ = RoundLog{};
    update_s_.clear();
    resize_ms_.clear();
    rec_.set_enabled(true);
    run_phase(opt_.seconds / 2, half_min, 1);
    traced_rounds_ = main_rounds_;
    traced_headline = headline();
  } else {
    run_phase(opt_.seconds, shape_.min_ops, shape_.aux_min);
  }

  final_checks(*rig);
  if (opt_.trace) {
    report_layers(*rig, untraced_headline, traced_headline);
  } else {
    report_end_to_end(median(setup_ms_) / 1e3);
  }

  // ---- human-readable lines
  const std::vector<Metric>& shown =
      opt_.trace ? report_.per_layer : report_.end_to_end;
  for (const Metric& m : shown) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("host speed: reference work %.3f ms on 1 thread, %.3f ms on "
              "%zu threads (medians of %zu samples)\n",
              median(ref1_ms_), median(refn_ms_), shape_.shards,
              ref1_ms_.size());
  std::printf("samples: setups=%zu rounds=%zu updates=%zu resizes=%zu\n",
              setup_ms_.size(), main_rounds_.wall_ms.size(), update_s_.size(),
              resize_ms_.size());
  const auto list = [](const char* what, const std::vector<double>& xs,
                       double scale) {
    std::printf("  %s:", what);
    for (double x : xs) std::printf(" %.1f", x * scale);
    std::printf("\n");
  };
  list("setup_ms", setup_ms_, 1);
  list("update_ms", update_s_, 1e3);
  list("resize_ms", resize_ms_, 1);
  const double share =
      migrations_.moved > 0
          ? 100.0 * static_cast<double>(migrations_.op_failures) /
                static_cast<double>(migrations_.moved)
          : 0;
  std::printf("migrations: moved=%llu ok=%llu fallback=%llu failed=%llu "
              "revision_lost=%llu failed_share=%.1f%%\n",
              static_cast<unsigned long long>(migrations_.moved),
              static_cast<unsigned long long>(migrations_.ok),
              static_cast<unsigned long long>(migrations_.fallback),
              static_cast<unsigned long long>(migrations_.failed),
              static_cast<unsigned long long>(migrations_.revision_lost),
              share);
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report_.attempted),
              static_cast<unsigned long long>(report_.failed));
  std::printf("checks: %llu run, %zu failed\n",
              static_cast<unsigned long long>(report_.checks),
              report_.check_failures.size());
  for (const std::string& f : report_.check_failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  if (opt_.trace && !opt_.spans_path.empty()) {
    if (rec_.write_jsonl(opt_.spans_path)) {
      std::printf("spans: %zu written to %s\n", rec_.spans().size(),
                  opt_.spans_path.c_str());
    } else {
      std::printf("spans: cannot write %s\n", opt_.spans_path.c_str());
    }
  }
  return 0;
}

// ------------------------------------------------------------------ cli

bool parse_options(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (arg == "--workload") {
      have_workload = true;
      o->workload_name = val;
      if (val == "steady") o->workload = Workload::kSteady;
      else if (val == "first_contact") o->workload = Workload::kFirstContact;
      else if (val == "rollout") o->workload = Workload::kRollout;
      else if (val == "reshard") o->workload = Workload::kReshard;
      else return false;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(val.c_str(), nullptr);
      if (!(o->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      o->trace = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "tiny") return false;
      o->tiny = val == "tiny";
    } else if (arg == "--inject") {
      if (val != "unknown_exec" && val != "bad_base") return false;
      o->inject = val;
    } else if (arg == "--spans") {
      o->spans_path = val;
    } else {
      return false;
    }
  }
  return have_workload;
}

void print_result(const Report& r, bool trace) {
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  cia::set_log_level(cia::LogLevel::kError);
  fleetbench::Options options;
  if (!fleetbench::parse_options(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload steady|first_contact|rollout|"
                 "reshard [--seed N] [--seconds S] [--trace 0|1] "
                 "[--size full|tiny] [--inject unknown_exec|bad_base] "
                 "[--spans FILE]\n");
    return 2;
  }
  fleetbench::Report report;
  fleetbench::Bench bench(options, report);
  if (bench.run() != 0) return 1;
  fleetbench::print_result(report, options.trace);
  return report.correct() ? 0 : 1;
}
