// cia_metrics — view telemetry files exported by a scenario run
// (`cia_scenario run FILE --telemetry PREFIX`, docs/OBSERVABILITY.md).
//
//   cia_metrics diff BEFORE.json AFTER.json
//       Line-oriented diff of two saved metrics snapshots: one line per
//       added/removed/changed series, counters and gauges with deltas.
//       Exit status 1 when the snapshots differ.
//
//   cia_metrics incidents PREFIX.incidents.json
//       Render a canonical incident snapshot (written for storm kinds)
//       as a human triage table: severity, subject, affected-agent
//       width, suppressed tallies, sample agents.
//
// Unreadable or malformed input exits 2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "keylime/alert_pipeline/incident.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace cia;

Result<json::Value> load_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return err(Errc::kNotFound, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return json::parse(buf.str());
}

/// Human triage table over an incident snapshot: one row per incident,
/// widest (most affected agents) first within each severity.
std::string render_incident_table(
    const keylime::alert_pipeline::IncidentSnapshot& snapshot) {
  std::ostringstream out;
  out << "  ID  SEVERITY             STATE   AGENTS  ALERTS  SUPP.  "
         "FIRST..LAST  SUBJECT\n";
  for (const keylime::alert_pipeline::Incident& inc : snapshot.incidents) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%4llu  %-19s  %-6s  %6llu  %6llu  %5llu  %5llu..%-5llu  %s",
                  static_cast<unsigned long long>(inc.id),
                  severity_name(inc.severity), inc.open ? "open" : "closed",
                  static_cast<unsigned long long>(inc.affected_agents),
                  static_cast<unsigned long long>(inc.alerts),
                  static_cast<unsigned long long>(inc.suppressed),
                  static_cast<unsigned long long>(inc.first_seen),
                  static_cast<unsigned long long>(inc.last_seen),
                  inc.subject.empty() ? inc.reason.c_str()
                                      : inc.subject.c_str());
    out << line << "\n";
    out << "      sample agents:";
    for (const std::string& id : inc.sample_agents) out << " " << id;
    out << "\n";
  }
  return out.str();
}

int cmd_incidents(const std::string& path) {
  auto doc = load_json(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 doc.error().to_string().c_str());
    return 2;
  }
  auto snapshot = keylime::alert_pipeline::snapshot_from_json(doc.value());
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 snapshot.error().to_string().c_str());
    return 2;
  }
  std::fputs(render_incident_table(snapshot.value()).c_str(), stdout);
  return 0;
}

Result<telemetry::MetricsSnapshot> load_snapshot(const std::string& path) {
  auto doc = load_json(path);
  if (!doc.ok()) return doc.error();
  return telemetry::snapshot_from_json(doc.value());
}

int cmd_diff(const std::string& before_path, const std::string& after_path) {
  auto before = load_snapshot(before_path);
  if (!before.ok()) {
    std::fprintf(stderr, "%s: %s\n", before_path.c_str(),
                 before.error().to_string().c_str());
    return 2;
  }
  auto after = load_snapshot(after_path);
  if (!after.ok()) {
    std::fprintf(stderr, "%s: %s\n", after_path.c_str(),
                 after.error().to_string().c_str());
    return 2;
  }
  const std::string diff =
      telemetry::diff_snapshots(before.value(), after.value());
  if (diff.empty()) {
    std::printf("snapshots identical (%zu series)\n",
                before.value().points.size());
    return 0;
  }
  std::fputs(diff.c_str(), stdout);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  cia::set_log_level(cia::LogLevel::kError);
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
  if (cmd == "incidents" && argc == 3) return cmd_incidents(argv[2]);
  std::fprintf(stderr,
               "usage: cia_metrics diff BEFORE.json AFTER.json\n"
               "       cia_metrics incidents PREFIX.incidents.json\n");
  return 2;
}
