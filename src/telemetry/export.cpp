#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strutil.hpp"

namespace cia::telemetry {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels,
                          const std::string& extra_key = "",
                          const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + escape_label(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + escape_label(extra_value) + "\"";
  }
  out += "}";
  return out;
}

/// Shortest representation that still round-trips typical metric values:
/// integers print without a decimal point.
std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return strformat("%lld", static_cast<long long>(v));
  }
  return strformat("%g", v);
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricPoint& point : snapshot.points) {
    if (point.name != last_family) {
      out += "# TYPE " + point.name + " " + metric_kind_name(point.kind) + "\n";
      last_family = point.name;
    }
    if (point.kind == MetricKind::kHistogram) {
      const HistogramSnapshot& h = point.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        cumulative += h.counts[b];
        const std::string le =
            b < h.bounds.size() ? render_number(h.bounds[b]) : "+Inf";
        out += point.name + "_bucket" + render_labels(point.labels, "le", le) +
               " " + strformat("%llu", static_cast<unsigned long long>(
                                           cumulative)) +
               "\n";
      }
      out += point.name + "_sum" + render_labels(point.labels) + " " +
             render_number(h.sum) + "\n";
      out += point.name + "_count" + render_labels(point.labels) + " " +
             strformat("%llu", static_cast<unsigned long long>(h.count)) + "\n";
    } else {
      out += point.name + render_labels(point.labels) + " " +
             render_number(point.value) + "\n";
    }
  }
  return out;
}

json::Value to_json(const MetricsSnapshot& snapshot) {
  json::Value metrics{json::Array{}};
  for (const MetricPoint& point : snapshot.points) {
    json::Value m;
    m.set("name", point.name);
    m.set("kind", metric_kind_name(point.kind));
    if (!point.labels.empty()) {
      json::Value labels{json::Object{}};
      for (const auto& [key, value] : point.labels) labels.set(key, value);
      m.set("labels", std::move(labels));
    }
    if (point.kind == MetricKind::kHistogram) {
      const HistogramSnapshot& h = point.histogram;
      json::Value bounds{json::Array{}};
      for (double b : h.bounds) bounds.push_back(b);
      json::Value counts{json::Array{}};
      for (std::uint64_t c : h.counts) {
        counts.push_back(static_cast<std::int64_t>(c));
      }
      m.set("bounds", std::move(bounds));
      m.set("counts", std::move(counts));
      m.set("count", static_cast<std::int64_t>(h.count));
      m.set("sum", h.sum);
      m.set("min", h.min);
      m.set("max", h.max);
      m.set("p50", h.percentile(50));
      m.set("p95", h.percentile(95));
      m.set("p99", h.percentile(99));
    } else {
      m.set("value", point.value);
    }
    metrics.push_back(std::move(m));
  }
  json::Value doc;
  doc.set("version", 1);
  doc.set("metrics", std::move(metrics));
  return doc;
}

Result<MetricsSnapshot> snapshot_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    return err(Errc::kCorrupted, "snapshot: not an object");
  }
  const json::Value* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_array()) {
    return err(Errc::kCorrupted, "snapshot: missing metrics array");
  }
  MetricsSnapshot snap;
  for (const json::Value& m : metrics->as_array()) {
    if (!m.is_object()) return err(Errc::kCorrupted, "snapshot: bad point");
    const json::Value* name = m.find("name");
    const json::Value* kind = m.find("kind");
    if (!name || !name->is_string() || !kind || !kind->is_string()) {
      return err(Errc::kCorrupted, "snapshot: point missing name/kind");
    }
    MetricPoint point;
    point.name = name->as_string();
    const std::string& kind_name = kind->as_string();
    if (kind_name == "counter") {
      point.kind = MetricKind::kCounter;
    } else if (kind_name == "gauge") {
      point.kind = MetricKind::kGauge;
    } else if (kind_name == "histogram") {
      point.kind = MetricKind::kHistogram;
    } else {
      return err(Errc::kCorrupted, "snapshot: unknown kind " + kind_name);
    }
    if (const json::Value* labels = m.find("labels")) {
      if (!labels->is_object()) {
        return err(Errc::kCorrupted, "snapshot: bad labels");
      }
      for (const auto& [key, value] : labels->as_object()) {
        if (!value.is_string()) {
          return err(Errc::kCorrupted, "snapshot: non-string label");
        }
        point.labels.emplace_back(key, value.as_string());
      }
      std::sort(point.labels.begin(), point.labels.end());
    }
    if (point.kind == MetricKind::kHistogram) {
      const json::Value* bounds = m.find("bounds");
      const json::Value* counts = m.find("counts");
      const json::Value* count = m.find("count");
      const json::Value* sum = m.find("sum");
      if (!bounds || !bounds->is_array() || !counts || !counts->is_array() ||
          !count || !count->is_number() || !sum || !sum->is_number()) {
        return err(Errc::kCorrupted, "snapshot: bad histogram fields");
      }
      for (const json::Value& b : bounds->as_array()) {
        if (!b.is_number()) {
          return err(Errc::kCorrupted, "snapshot: bad bound");
        }
        point.histogram.bounds.push_back(b.as_number());
      }
      // Histogram() sorts and dedupes its bounds, so a live registry can
      // only ever export strictly increasing ones. Accepting anything
      // else would admit states percentile() is not defined over (its
      // bucket interpolation assumes ordered edges).
      for (std::size_t i = 1; i < point.histogram.bounds.size(); ++i) {
        if (point.histogram.bounds[i] <= point.histogram.bounds[i - 1]) {
          return err(Errc::kCorrupted,
                     "snapshot: bounds not strictly increasing");
        }
      }
      for (const json::Value& c : counts->as_array()) {
        // A bucket count must be a non-negative integer; a negative or
        // fractional value would wrap to a huge std::uint64_t and poison
        // every percentile computed from the restored snapshot.
        if (!c.is_number() || c.as_number() < 0 ||
            c.as_number() != static_cast<double>(c.as_int())) {
          return err(Errc::kCorrupted, "snapshot: bad bucket count");
        }
        point.histogram.counts.push_back(
            static_cast<std::uint64_t>(c.as_int()));
      }
      if (point.histogram.counts.size() != point.histogram.bounds.size() + 1) {
        return err(Errc::kCorrupted, "snapshot: bucket/bound size mismatch");
      }
      if (count->as_number() < 0 ||
          count->as_number() != static_cast<double>(count->as_int())) {
        return err(Errc::kCorrupted, "snapshot: bad histogram count");
      }
      point.histogram.count = static_cast<std::uint64_t>(count->as_int());
      std::uint64_t bucket_total = 0;
      for (std::uint64_t c : point.histogram.counts) bucket_total += c;
      if (bucket_total != point.histogram.count) {
        return err(Errc::kCorrupted, "snapshot: bucket counts do not sum to count");
      }
      point.histogram.sum = sum->as_number();
      if (const json::Value* v = m.find("min"); v && v->is_number()) {
        point.histogram.min = v->as_number();
      }
      if (const json::Value* v = m.find("max"); v && v->is_number()) {
        point.histogram.max = v->as_number();
      }
      // observe() keeps min/max consistent with the buckets whenever
      // anything was recorded: min <= max, every value in the lowest
      // occupied bucket is >= min, and the highest occupied bucket holds
      // a value <= max. percentile() clamps bucket edges against min/max,
      // so admitting a contradictory triple makes it non-monotonic.
      if (point.histogram.count > 0) {
        const HistogramSnapshot& h = point.histogram;
        if (h.min > h.max) {
          return err(Errc::kCorrupted, "snapshot: histogram min > max");
        }
        std::size_t lowest = 0;
        while (h.counts[lowest] == 0) ++lowest;
        std::size_t highest = h.counts.size() - 1;
        while (h.counts[highest] == 0) --highest;
        if (lowest < h.bounds.size() && h.min > h.bounds[lowest]) {
          return err(Errc::kCorrupted,
                     "snapshot: histogram min above its lowest bucket");
        }
        if (highest > 0 && h.max <= h.bounds[highest - 1]) {
          return err(Errc::kCorrupted,
                     "snapshot: histogram max below its highest bucket");
        }
      }
    } else {
      const json::Value* value = m.find("value");
      if (!value || !value->is_number()) {
        return err(Errc::kCorrupted, "snapshot: point missing value");
      }
      point.value = value->as_number();
    }
    snap.points.push_back(std::move(point));
  }
  return snap;
}

std::string diff_snapshots(const MetricsSnapshot& before,
                           const MetricsSnapshot& after) {
  using Key = std::pair<std::string, Labels>;
  std::map<Key, const MetricPoint*> old_points;
  for (const MetricPoint& p : before.points) {
    old_points[{p.name, p.labels}] = &p;
  }
  std::string out;
  const auto series = [](const MetricPoint& p) {
    std::string s = p.name;
    if (!p.labels.empty()) {
      s += "{";
      bool first = true;
      for (const auto& [key, value] : p.labels) {
        if (!first) s += ",";
        first = false;
        s += key + "=" + value;
      }
      s += "}";
    }
    return s;
  };
  for (const MetricPoint& p : after.points) {
    auto it = old_points.find({p.name, p.labels});
    if (it == old_points.end()) {
      if (p.kind == MetricKind::kHistogram) {
        out += strformat("+ %s count=%llu sum=%g\n", series(p).c_str(),
                         static_cast<unsigned long long>(p.histogram.count),
                         p.histogram.sum);
      } else {
        out += strformat("+ %s %g\n", series(p).c_str(), p.value);
      }
      continue;
    }
    const MetricPoint& old = *it->second;
    old_points.erase(it);
    if (p.kind == MetricKind::kHistogram) {
      if (p.histogram.count != old.histogram.count ||
          p.histogram.sum != old.histogram.sum) {
        out += strformat(
            "~ %s count %llu -> %llu, sum %g -> %g, p95 %g -> %g\n",
            series(p).c_str(),
            static_cast<unsigned long long>(old.histogram.count),
            static_cast<unsigned long long>(p.histogram.count),
            old.histogram.sum, p.histogram.sum, old.histogram.percentile(95),
            p.histogram.percentile(95));
      }
    } else if (p.value != old.value) {
      out += strformat("~ %s %g -> %g (%+g)\n", series(p).c_str(), old.value,
                       p.value, p.value - old.value);
    }
  }
  for (const auto& [key, p] : old_points) {
    (void)key;
    out += strformat("- %s\n", series(*p).c_str());
  }
  return out;
}

bool is_wall_clock(const MetricPoint& point) {
  return point.name.ends_with("_us");
}

bool differs_beyond_wall_clock(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot old_part = before, new_part = after;
  std::erase_if(old_part.points, is_wall_clock);
  std::erase_if(new_part.points, is_wall_clock);
  return !diff_snapshots(old_part, new_part).empty();
}

}  // namespace cia::telemetry
