// Exporters for MetricsSnapshot: Prometheus text exposition for
// scraping, canonical JSON for archival/diffing (BENCH_*.json
// trajectories embed these so a result file is self-describing), and a
// line-oriented snapshot diff for the cia_metrics CLI.
#pragma once

#include <string>

#include "common/json.hpp"
#include "common/result.hpp"
#include "telemetry/metrics.hpp"

namespace cia::telemetry {

/// Prometheus text exposition format (one `# TYPE` line per family,
/// histograms as cumulative `_bucket{le=...}` plus `_sum`/`_count`).
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Canonical JSON document: {"version":1,"metrics":[...]} with points
/// sorted by (name, labels). Round-trips through snapshot_from_json().
json::Value to_json(const MetricsSnapshot& snapshot);

/// Parse a to_json() document back into a snapshot.
Result<MetricsSnapshot> snapshot_from_json(const json::Value& doc);

/// Human-readable diff between two snapshots: one line per added,
/// removed, or changed series (counters/gauges show the delta;
/// histograms compare count and sum). Empty when identical.
std::string diff_snapshots(const MetricsSnapshot& before,
                           const MetricsSnapshot& after);

/// Is this a wall-clock series? The `*_us` histograms time real work, so
/// two runs of one seed differ in them; the determinism contract
/// (docs/OBSERVABILITY.md) covers every other series.
bool is_wall_clock(const MetricPoint& point);

/// Does `after` differ from `before` in any series that is not
/// wall-clock? What `cia_metrics diff` exits 1 on.
bool differs_beyond_wall_clock(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

}  // namespace cia::telemetry
