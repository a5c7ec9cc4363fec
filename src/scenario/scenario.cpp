#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>

#include "common/strutil.hpp"
#include "experiments/chaos_experiment.hpp"

namespace cia::scenario {

namespace {

/// Typed field access over one JSON object with strict, path-qualified
/// diagnostics. First error wins; later getters become no-ops so a
/// caller can read a whole section unconditionally and check once.
class ObjectReader {
 public:
  ObjectReader(const json::Value& value, std::string path, Error* error)
      : value_(value), path_(std::move(path)), error_(error) {
    if (!failed() && !value_.is_object()) {
      fail(path_ + ": must be a JSON object");
    }
  }

  bool failed() const { return error_->message.empty() ? false : true; }

  /// Reject any key outside `allowed` (call after reading the fields).
  void reject_unknown(std::initializer_list<const char*> allowed) {
    if (failed() || !value_.is_object()) return;
    for (const auto& [key, unused] : value_.as_object()) {
      (void)unused;
      const bool known =
          std::any_of(allowed.begin(), allowed.end(),
                      [&key](const char* a) { return key == a; });
      if (!known) {
        fail(path_ + ": unknown field \"" + key + "\"");
        return;
      }
    }
  }

  bool has(const char* key) const {
    return value_.is_object() && value_.find(key) != nullptr;
  }

  std::int64_t integer(const char* key, std::int64_t def, std::int64_t min,
                       std::int64_t max) {
    if (failed()) return def;
    const json::Value* v = value_.find(key);
    if (!v) return def;
    if (!v->is_number() || v->as_number() != std::floor(v->as_number()) ||
        v->as_number() < -static_cast<double>(kMaxExactInt) ||
        v->as_number() > static_cast<double>(kMaxExactInt)) {
      fail(field(key) + ": must be an integer");
      return def;
    }
    const std::int64_t n = v->as_int();
    if (n < min || n > max) {
      fail(field(key) + ": must be between " + std::to_string(min) + " and " +
           std::to_string(max));
      return def;
    }
    return n;
  }

  double number(const char* key, double def, double min, double max) {
    if (failed()) return def;
    const json::Value* v = value_.find(key);
    if (!v) return def;
    if (!v->is_number()) {
      fail(field(key) + ": must be a number");
      return def;
    }
    const double n = v->as_number();
    if (!(n >= min && n <= max)) {
      fail(field(key) + ": must be between " + format_number(min) + " and " +
           format_number(max));
      return def;
    }
    return n;
  }

  bool boolean(const char* key, bool def) {
    if (failed()) return def;
    const json::Value* v = value_.find(key);
    if (!v) return def;
    if (!v->is_bool()) {
      fail(field(key) + ": must be a boolean");
      return def;
    }
    return v->as_bool();
  }

  std::string string(const char* key, const std::string& def) {
    if (failed()) return def;
    const json::Value* v = value_.find(key);
    if (!v) return def;
    if (!v->is_string()) {
      fail(field(key) + ": must be a string");
      return def;
    }
    return v->as_string();
  }

  /// The raw child value (nullptr when absent); type checks are the
  /// caller's job (nested ObjectReader / array walk).
  const json::Value* child(const char* key) const { return value_.find(key); }

  std::string field(const char* key) const { return path_ + "." + key; }

  void fail(std::string message) {
    if (failed()) return;
    *error_ = err(Errc::kInvalidArgument, std::move(message));
  }

 private:
  static std::string format_number(double v) {
    if (v == std::floor(v) && std::abs(v) < 1e15) {
      return std::to_string(static_cast<std::int64_t>(v));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  const json::Value& value_;
  std::string path_;
  Error* error_;
};

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 80) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

FleetSection read_fleet(const json::Value& v, Error* error) {
  FleetSection fleet;
  ObjectReader r(v, "$.fleet", error);
  fleet.agents = r.integer("agents", fleet.agents, 1, 100000);
  fleet.shards = r.integer("shards", fleet.shards, 1, 64);
  fleet.binaries_per_machine =
      r.integer("binaries_per_machine", fleet.binaries_per_machine, 1, 4096);
  fleet.execs_per_round =
      r.integer("execs_per_round", fleet.execs_per_round, 1, 4096);
  fleet.retrying_transport =
      r.boolean("retrying_transport", fleet.retrying_transport);
  r.reject_unknown({"agents", "shards", "binaries_per_machine",
                    "execs_per_round", "retrying_transport"});
  return fleet;
}

FaultSection read_faults(const json::Value& v, Error* error) {
  FaultSection faults;
  ObjectReader r(v, "$.faults", error);
  faults.drop_rate = r.number("drop_rate", faults.drop_rate, 0.0, 0.999);
  faults.timeout_rate = r.number("timeout_rate", faults.timeout_rate, 0.0, 0.999);
  faults.duplicate_rate =
      r.number("duplicate_rate", faults.duplicate_rate, 0.0, 0.999);
  faults.timeout_latency =
      r.integer("timeout_latency", faults.timeout_latency, 0, kDay);
  r.reject_unknown(
      {"drop_rate", "timeout_rate", "duplicate_rate", "timeout_latency"});
  return faults;
}

std::vector<ResizeEvent> read_resize_at(const json::Value& v, Error* error) {
  std::vector<ResizeEvent> events;
  if (!v.is_array()) {
    if (error->message.empty()) {
      *error = err(Errc::kInvalidArgument, "$.resize_at: must be an array");
    }
    return events;
  }
  std::size_t i = 0;
  for (const json::Value& entry : v.as_array()) {
    const std::string path = "$.resize_at[" + std::to_string(i) + "]";
    ObjectReader r(entry, path, error);
    ResizeEvent event;
    if (!r.has("round")) r.fail(path + ".round: required field is missing");
    if (!r.has("shards")) r.fail(path + ".shards: required field is missing");
    event.round = r.integer("round", 0, 0, 100000);
    event.shards = r.integer("shards", 1, 1, 64);
    r.reject_unknown({"round", "shards"});
    events.push_back(event);
    ++i;
  }
  return events;
}

PipelineSection read_pipeline(const json::Value& v, Error* error) {
  PipelineSection pipeline;
  ObjectReader r(v, "$.storm.pipeline", error);
  pipeline.cooldown = r.integer("cooldown", pipeline.cooldown, 0, kDay);
  pipeline.quiet_close = r.integer("quiet_close", pipeline.quiet_close, 0, kDay);
  pipeline.staleness_after =
      r.integer("staleness_after", pipeline.staleness_after, 0, 100000);
  pipeline.sample_agents =
      r.integer("sample_agents", pipeline.sample_agents, 1, 1000);
  r.reject_unknown(
      {"cooldown", "quiet_close", "staleness_after", "sample_agents"});
  return pipeline;
}

StormSection read_storm(const json::Value& v, Error* error) {
  StormSection storm;
  ObjectReader r(v, "$.storm", error);
  storm.warmup_rounds = r.integer("warmup_rounds", storm.warmup_rounds, 0, 1000);
  storm.storm_rounds =
      r.integer("storm_rounds", storm.storm_rounds, 1, 100000);
  storm.round_period = r.integer("round_period", storm.round_period, 1, kDay);
  storm.bad_paths = r.integer("bad_paths", storm.bad_paths, 1, 4096);
  if (const json::Value* p = r.child("pipeline")) {
    storm.pipeline = read_pipeline(*p, error);
  }
  r.reject_unknown(
      {"warmup_rounds", "storm_rounds", "round_period", "bad_paths",
       "pipeline"});
  return storm;
}

PolicyRolloutSection read_policy_rollout(const json::Value& v, Error* error) {
  PolicyRolloutSection rollout;
  ObjectReader r(v, "$.policy_rollout", error);
  rollout.canary_fraction =
      r.number("canary_fraction", rollout.canary_fraction, 0.000001, 1.0);
  rollout.bake_rounds = r.integer("bake_rounds", rollout.bake_rounds, 1, 100000);
  rollout.alert_budget =
      r.integer("alert_budget", rollout.alert_budget, 0, kMaxExactInt);
  rollout.seed = static_cast<std::uint64_t>(
      r.integer("seed", static_cast<std::int64_t>(rollout.seed), 0,
                kMaxExactInt));
  r.reject_unknown({"canary_fraction", "bake_rounds", "alert_budget", "seed"});
  return rollout;
}

ChurnSection read_churn(const json::Value& v, Error* error) {
  ChurnSection churn;
  ObjectReader r(v, "$.churn", error);
  churn.rounds = r.integer("rounds", churn.rounds, 1, 100000);
  churn.round_period = r.integer("round_period", churn.round_period, 1, kDay);
  churn.max_joins_per_round =
      r.integer("max_joins_per_round", churn.max_joins_per_round, 0, 1000);
  churn.max_leaves_per_round =
      r.integer("max_leaves_per_round", churn.max_leaves_per_round, 0, 1000);
  churn.max_reboots_per_round =
      r.integer("max_reboots_per_round", churn.max_reboots_per_round, 0, 1000);
  r.reject_unknown({"rounds", "round_period", "max_joins_per_round",
                    "max_leaves_per_round", "max_reboots_per_round"});
  return churn;
}

ChaosSection read_chaos(const json::Value& v, Error* error) {
  ChaosSection chaos;
  ObjectReader r(v, "$.chaos", error);
  chaos.script = r.string("script", chaos.script);
  chaos.nodes = r.integer("nodes", chaos.nodes, 1, 64);
  chaos.days = r.integer("days", chaos.days, 2, 366);
  chaos.retrying_transport =
      r.boolean("retrying_transport", chaos.retrying_transport);
  chaos.base_packages = r.integer("base_packages", chaos.base_packages, 1, 100000);
  chaos.provision_extra =
      r.integer("provision_extra", chaos.provision_extra, 0, 10000);
  r.reject_unknown({"script", "nodes", "days", "retrying_transport",
                    "base_packages", "provision_extra"});
  if (!r.failed()) {
    const auto& scripts = experiments::chaos_scenarios();
    if (std::find(scripts.begin(), scripts.end(), chaos.script) ==
        scripts.end()) {
      r.fail("$.chaos.script: unknown chaos script \"" + chaos.script +
             "\" (one of: " + join(scripts, ", ") + ")");
    }
  }
  return chaos;
}

FleetRunSection read_fleet_run(const json::Value& v, Error* error) {
  FleetRunSection run;
  ObjectReader r(v, "$.fleet_run", error);
  run.rounds = r.integer("rounds", run.rounds, 1, 100000);
  r.reject_unknown({"rounds"});
  return run;
}

AttacksSection read_attacks(const json::Value& v, Error* error) {
  AttacksSection attacks;
  ObjectReader r(v, "$.attacks", error);
  attacks.archive_packages =
      r.integer("archive_packages", attacks.archive_packages, 50, 100000);
  r.reject_unknown({"archive_packages"});
  return attacks;
}

json::Value fleet_json(const FleetSection& fleet) {
  json::Value v;
  v.set("agents", fleet.agents);
  v.set("shards", fleet.shards);
  v.set("binaries_per_machine", fleet.binaries_per_machine);
  v.set("execs_per_round", fleet.execs_per_round);
  v.set("retrying_transport", fleet.retrying_transport);
  return v;
}

json::Value faults_json(const FaultSection& faults) {
  json::Value v;
  v.set("drop_rate", faults.drop_rate);
  v.set("timeout_rate", faults.timeout_rate);
  v.set("duplicate_rate", faults.duplicate_rate);
  v.set("timeout_latency", faults.timeout_latency);
  return v;
}

json::Value policy_rollout_json(const PolicyRolloutSection& rollout) {
  json::Value v;
  v.set("canary_fraction", rollout.canary_fraction);
  v.set("bake_rounds", rollout.bake_rounds);
  v.set("alert_budget", rollout.alert_budget);
  v.set("seed", static_cast<std::int64_t>(rollout.seed));
  return v;
}

json::Value resize_json(const std::vector<ResizeEvent>& events) {
  json::Value v{json::Array{}};
  for (const ResizeEvent& event : events) {
    json::Value e;
    e.set("round", event.round);
    e.set("shards", event.shards);
    v.push_back(std::move(e));
  }
  return v;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kChaos: return "chaos";
    case Kind::kChurn: return "churn";
    case Kind::kStorm: return "storm";
    case Kind::kFleet: return "fleet";
    case Kind::kAttacks: return "attacks";
  }
  return "unknown";
}

Result<Scenario> Scenario::from_json(const json::Value& doc) {
  Error error;
  ObjectReader top(doc, "$", &error);
  Scenario sc;

  // Version first: a future format must fail closed with a message that
  // names the field, not trip over fields it half-understands.
  if (!top.has("version")) {
    top.fail("$.version: required field is missing");
  }
  sc.version = top.integer("version", 1, 1, kMaxExactInt);
  if (!top.failed() && sc.version != 1) {
    top.fail("$.version: unsupported scenario version " +
             std::to_string(sc.version) + " (this build reads version 1)");
  }

  if (!top.has("name")) top.fail("$.name: required field is missing");
  sc.name = top.string("name", "");
  if (!top.failed() && !valid_name(sc.name)) {
    top.fail("$.name: must be 1-80 characters of [a-z0-9._-]");
  }

  if (!top.has("kind")) top.fail("$.kind: required field is missing");
  const std::string kind = top.string("kind", "");
  if (!top.failed()) {
    if (kind == "chaos") {
      sc.kind = Kind::kChaos;
    } else if (kind == "churn") {
      sc.kind = Kind::kChurn;
    } else if (kind == "storm") {
      sc.kind = Kind::kStorm;
    } else if (kind == "fleet") {
      sc.kind = Kind::kFleet;
    } else if (kind == "attacks") {
      sc.kind = Kind::kAttacks;
    } else {
      top.fail("$.kind: unknown kind \"" + kind +
               "\" (expected chaos, churn, storm, fleet, or attacks)");
    }
  }
  sc.seed = static_cast<std::uint64_t>(
      top.integer("seed", static_cast<std::int64_t>(sc.seed), 0, kMaxExactInt));

  top.reject_unknown({"version", "name", "kind", "seed", "fleet", "faults",
                      "resize_at", "storm", "policy_rollout", "churn", "chaos",
                      "fleet_run", "attacks"});
  if (top.failed()) return error;

  // Section / kind compatibility.
  struct SectionRule {
    const char* section;
    Kind allowed[3];
    std::size_t count;
  };
  static constexpr SectionRule kRules[] = {
      {"fleet", {Kind::kStorm, Kind::kChurn, Kind::kFleet}, 3},
      {"faults", {Kind::kStorm, Kind::kChurn, Kind::kFleet}, 3},
      {"resize_at", {Kind::kStorm, Kind::kChurn, Kind::kChurn}, 2},
      {"storm", {Kind::kStorm, Kind::kStorm, Kind::kStorm}, 1},
      {"policy_rollout", {Kind::kStorm, Kind::kFleet, Kind::kFleet}, 2},
      {"churn", {Kind::kChurn, Kind::kChurn, Kind::kChurn}, 1},
      {"chaos", {Kind::kChaos, Kind::kChaos, Kind::kChaos}, 1},
      {"fleet_run", {Kind::kFleet, Kind::kFleet, Kind::kFleet}, 1},
      {"attacks", {Kind::kAttacks, Kind::kAttacks, Kind::kAttacks}, 1},
  };
  for (const SectionRule& rule : kRules) {
    if (!top.has(rule.section)) continue;
    const bool allowed = std::find(rule.allowed, rule.allowed + rule.count,
                                   sc.kind) != rule.allowed + rule.count;
    if (!allowed) {
      return err(Errc::kInvalidArgument,
                 std::string("$.") + rule.section + ": not valid for kind \"" +
                     kind_name(sc.kind) + "\"");
    }
  }
  const char* required_section = nullptr;
  switch (sc.kind) {
    case Kind::kChaos: required_section = "chaos"; break;
    case Kind::kChurn: required_section = "churn"; break;
    case Kind::kStorm: required_section = "storm"; break;
    case Kind::kFleet: required_section = "fleet_run"; break;
    case Kind::kAttacks: required_section = "attacks"; break;
  }
  if (!top.has(required_section)) {
    return err(Errc::kInvalidArgument,
               std::string("$.") + required_section +
                   ": required for kind \"" + kind_name(sc.kind) + "\"");
  }

  if (const json::Value* v = top.child("fleet")) {
    sc.fleet = read_fleet(*v, &error);
  }
  if (const json::Value* v = top.child("faults")) {
    sc.faults = read_faults(*v, &error);
  }
  if (const json::Value* v = top.child("resize_at")) {
    sc.resize_at = read_resize_at(*v, &error);
  }
  if (const json::Value* v = top.child("storm")) {
    sc.storm = read_storm(*v, &error);
  }
  if (const json::Value* v = top.child("policy_rollout")) {
    sc.policy_rollout = read_policy_rollout(*v, &error);
  }
  if (const json::Value* v = top.child("churn")) {
    sc.churn = read_churn(*v, &error);
  }
  if (const json::Value* v = top.child("chaos")) {
    sc.chaos = read_chaos(*v, &error);
  }
  if (const json::Value* v = top.child("fleet_run")) {
    sc.fleet_run = read_fleet_run(*v, &error);
  }
  if (const json::Value* v = top.child("attacks")) {
    sc.attacks = read_attacks(*v, &error);
  }
  if (!error.message.empty()) return error;

  // Cross-reference checks: every constraint a hand-coded harness used
  // to enforce implicitly, now a named rejection.
  if (sc.kind == Kind::kStorm) {
    // Storm fleets default to retries-off; only an EXPLICIT true is the
    // contradiction worth rejecting.
    const json::Value* fleet_v = top.child("fleet");
    const bool explicit_retry =
        fleet_v && fleet_v->is_object() && fleet_v->find("retrying_transport");
    if (sc.fleet.retrying_transport && explicit_retry) {
      return err(Errc::kInvalidArgument,
                 "$.fleet.retrying_transport: kind \"storm\" requires false "
                 "(retry backoff shifts shard clocks by co-residency, "
                 "breaking incident-stream partition invariance)");
    }
    sc.fleet.retrying_transport = false;
    if (sc.faults.timeout_rate > 0 || sc.faults.duplicate_rate > 0) {
      return err(Errc::kInvalidArgument,
                 std::string("$.faults.") +
                     (sc.faults.timeout_rate > 0 ? "timeout_rate"
                                                 : "duplicate_rate") +
                     ": kind \"storm\" allows drop faults only (time-free "
                     "chaos keeps alert timestamps partition-invariant)");
    }
    if (sc.storm.bad_paths > sc.fleet.binaries_per_machine) {
      return err(Errc::kInvalidArgument,
                 "$.storm.bad_paths: exceeds fleet.binaries_per_machine (" +
                     std::to_string(sc.fleet.binaries_per_machine) + ")");
    }
    if (sc.resize_at.size() > 1) {
      return err(Errc::kInvalidArgument,
                 "$.resize_at: kind \"storm\" supports at most one resize "
                 "event");
    }
    if (!sc.resize_at.empty() &&
        sc.resize_at[0].round >= sc.storm.storm_rounds) {
      return err(Errc::kInvalidArgument,
                 "$.resize_at[0].round: must be < storm.storm_rounds (" +
                     std::to_string(sc.storm.storm_rounds) + ")");
    }
  }
  if (sc.kind == Kind::kChurn) {
    for (std::size_t i = 0; i < sc.resize_at.size(); ++i) {
      if (sc.resize_at[i].round >= sc.churn.rounds) {
        return err(Errc::kInvalidArgument,
                   "$.resize_at[" + std::to_string(i) +
                       "].round: must be < churn.rounds (" +
                       std::to_string(sc.churn.rounds) + ")");
      }
    }
  }
  if (sc.policy_rollout && sc.kind == Kind::kFleet) {
    // The promote path needs the bake window to close inside the run;
    // a rollback can trip at any boundary, so storms are unconstrained.
    if (sc.policy_rollout->bake_rounds >= sc.fleet_run.rounds) {
      return err(Errc::kInvalidArgument,
                 "$.policy_rollout.bake_rounds: must be < fleet_run.rounds (" +
                     std::to_string(sc.fleet_run.rounds) +
                     ") or the staged revision can never promote");
    }
  }
  if (sc.kind == Kind::kFleet || sc.kind == Kind::kChurn) {
    if (sc.faults.timeout_rate > 0 && sc.faults.timeout_latency == 0) {
      return err(Errc::kInvalidArgument,
                 "$.faults.timeout_latency: must be > 0 when timeout_rate "
                 "is set");
    }
  }
  return sc;
}

Result<Scenario> Scenario::parse(const std::string& text) {
  auto doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return from_json(doc.value());
}

json::Value Scenario::to_json() const {
  json::Value doc;
  doc.set("version", version);
  doc.set("name", name);
  doc.set("kind", kind_name(kind));
  doc.set("seed", static_cast<std::int64_t>(seed));
  switch (kind) {
    case Kind::kChaos: {
      json::Value c;
      c.set("script", chaos.script);
      c.set("nodes", chaos.nodes);
      c.set("days", chaos.days);
      c.set("retrying_transport", chaos.retrying_transport);
      c.set("base_packages", chaos.base_packages);
      c.set("provision_extra", chaos.provision_extra);
      doc.set("chaos", std::move(c));
      break;
    }
    case Kind::kStorm: {
      doc.set("fleet", fleet_json(fleet));
      doc.set("faults", faults_json(faults));
      doc.set("resize_at", resize_json(resize_at));
      json::Value s;
      s.set("warmup_rounds", storm.warmup_rounds);
      s.set("storm_rounds", storm.storm_rounds);
      s.set("round_period", storm.round_period);
      s.set("bad_paths", storm.bad_paths);
      json::Value p;
      p.set("cooldown", storm.pipeline.cooldown);
      p.set("quiet_close", storm.pipeline.quiet_close);
      p.set("staleness_after", storm.pipeline.staleness_after);
      p.set("sample_agents", storm.pipeline.sample_agents);
      s.set("pipeline", std::move(p));
      doc.set("storm", std::move(s));
      if (policy_rollout) {
        doc.set("policy_rollout", policy_rollout_json(*policy_rollout));
      }
      break;
    }
    case Kind::kChurn: {
      doc.set("fleet", fleet_json(fleet));
      doc.set("faults", faults_json(faults));
      doc.set("resize_at", resize_json(resize_at));
      json::Value c;
      c.set("rounds", churn.rounds);
      c.set("round_period", churn.round_period);
      c.set("max_joins_per_round", churn.max_joins_per_round);
      c.set("max_leaves_per_round", churn.max_leaves_per_round);
      c.set("max_reboots_per_round", churn.max_reboots_per_round);
      doc.set("churn", std::move(c));
      break;
    }
    case Kind::kFleet: {
      doc.set("fleet", fleet_json(fleet));
      doc.set("faults", faults_json(faults));
      json::Value r;
      r.set("rounds", fleet_run.rounds);
      doc.set("fleet_run", std::move(r));
      if (policy_rollout) {
        doc.set("policy_rollout", policy_rollout_json(*policy_rollout));
      }
      break;
    }
    case Kind::kAttacks: {
      json::Value a;
      a.set("archive_packages", attacks.archive_packages);
      doc.set("attacks", std::move(a));
      break;
    }
  }
  return doc;
}

Result<Scenario> load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return err(Errc::kNotFound, "cannot read scenario file " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto sc = Scenario::parse(text);
  if (!sc.ok()) {
    return err(sc.error().code, path + ": " + sc.error().message);
  }
  return sc;
}

#ifndef CIA_SCENARIO_ROOT
#define CIA_SCENARIO_ROOT "scenarios"
#endif

std::string default_scenario_dir() {
  if (const char* env = std::getenv("CIA_SCENARIO_DIR"); env && *env) {
    return env;
  }
  return CIA_SCENARIO_ROOT;
}

std::vector<std::string> list_scenario_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (!item.is_regular_file()) continue;
    if (item.path().extension() != ".json") continue;
    files.push_back(item.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace cia::scenario
