#include "experiments/report.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "common/strutil.hpp"

namespace cia::experiments {

namespace {

std::vector<double> minutes_series(const DynamicRunResult& run) {
  std::vector<double> out;
  for (const auto& u : run.updates) out.push_back(u.seconds / 60.0);
  return out;
}

std::vector<double> package_series(const DynamicRunResult& run) {
  std::vector<double> out;
  for (const auto& u : run.updates) {
    out.push_back(static_cast<double>(u.packages_processed));
  }
  return out;
}

std::vector<double> high_priority_series(const DynamicRunResult& run) {
  std::vector<double> out;
  for (const auto& u : run.updates) {
    out.push_back(static_cast<double>(u.packages_high_priority));
  }
  return out;
}

std::vector<double> entries_series(const DynamicRunResult& run) {
  std::vector<double> out;
  for (const auto& u : run.updates) {
    out.push_back(static_cast<double>(u.lines_added));
  }
  return out;
}

std::string paper_vs_measured(const char* metric, double paper, double measured,
                              const char* unit) {
  return strformat("  %-34s paper %8.2f %-8s measured %8.2f %s\n", metric,
                   paper, unit, measured, unit);
}

}  // namespace

std::string render_fig3(const DynamicRunResult& daily) {
  const auto series = minutes_series(daily);
  const Summary s = summarize(series);
  std::string out = "Fig. 3 — time to update an existing Keylime policy "
                    "(daily updates)\n\n";
  out += ascii_series(series, "day", "policy update time (minutes)");
  out += "\n";
  out += paper_vs_measured("mean update time", 2.36, s.mean, "min");
  out += paper_vs_measured("stddev", 5.26, s.stddev, "min");
  const double under10 =
      100.0 * static_cast<double>(std::count_if(
                  series.begin(), series.end(), [](double m) { return m < 10; })) /
      static_cast<double>(std::max<std::size_t>(series.size(), 1));
  out += strformat("  %-34s paper %8s %-8s measured %7.1f%%\n",
                   "days under 10 minutes", "most", "", under10);
  return out;
}

std::string render_fig4(const DynamicRunResult& daily) {
  const auto totals = package_series(daily);
  const auto highs = high_priority_series(daily);
  const Summary st = summarize(totals);
  const Summary sh = summarize(highs);
  std::string out = "Fig. 4 — new and changed packages containing "
                    "executables, per daily update\n\n";
  out += ascii_series(totals, "day", "packages with executables");
  out += "\n";
  out += paper_vs_measured("mean packages/update", 16.5, st.mean, "pkgs");
  out += paper_vs_measured("stddev", 26.8, st.stddev, "pkgs");
  out += paper_vs_measured("mean high-priority/update", 0.9, sh.mean, "pkgs");
  out += paper_vs_measured("stddev (high-priority)", 2.2, sh.stddev, "pkgs");
  return out;
}

std::string render_fig5(const DynamicRunResult& daily) {
  const auto series = entries_series(daily);
  const Summary s = summarize(series);
  std::string out = "Fig. 5 — file entries added to the policy, per daily "
                    "update\n\n";
  out += ascii_series(series, "day", "policy entries added");
  out += "\n";
  out += paper_vs_measured("mean entries/update", 1271.0, s.mean, "lines");
  double mb = 0;
  for (const auto& u : daily.updates) mb += static_cast<double>(u.bytes_added);
  mb /= static_cast<double>(std::max<std::size_t>(daily.updates.size(), 1)) *
        1024.0 * 1024.0;
  out += paper_vs_measured("mean policy growth", 0.16, mb, "MB");
  out += strformat(
      "  base policy: %zu lines, %.1f MB   (paper: 323,734 lines, 46 MB — the\n"
      "  simulated distribution is ~1/4 of Ubuntu Main+Security+Updates)\n",
      daily.base_policy_entries,
      static_cast<double>(daily.base_policy_bytes) / (1024.0 * 1024.0));
  return out;
}

std::string render_table1(const DynamicRunResult& daily,
                          const DynamicRunResult& weekly) {
  const auto row = [](const char* name, const DynamicRunResult& run) {
    double low = 0, high = 0, files = 0, minutes = 0;
    const double n = static_cast<double>(std::max<std::size_t>(1, run.updates.size()));
    for (const auto& u : run.updates) {
      low += static_cast<double>(u.packages_low_priority);
      high += static_cast<double>(u.packages_high_priority);
      files += static_cast<double>(u.lines_added);
      minutes += u.seconds / 60.0;
    }
    return strformat("  %-22s %10.1f %10.1f %12.0f %10.2f\n", name, low / n,
                     high / n, files / n, minutes / n);
  };
  std::string out =
      "Table I — per-update averages, daily vs weekly schedules\n\n"
      "  experiment              # low-pri   # high-pri   files upd.   time "
      "(min)\n";
  out += row("Daily update", daily);
  out += row("Weekly update", weekly);
  out += "\n  paper:\n";
  out += strformat("  %-22s %10.1f %10.1f %12.0f %10.2f\n", "Daily update",
                   15.6, 0.9, 1271.0, 2.36);
  out += strformat("  %-22s %10.1f %10.1f %12.0f %10.2f\n", "Weekly update",
                   76.4, 2.6, 5513.0, 7.50);
  return out;
}

std::string render_table2(const std::vector<AttackReport>& reports) {
  std::string out =
      "Table II — attacks vs Keylime (basic / adaptive / with §IV-C "
      "mitigations)\n\n"
      "  name          category     basic               adaptive   "
      "problems        mitigated            paper-mitig.\n";
  std::string category;
  for (const AttackReport& r : reports) {
    std::string problems;
    for (const auto p : r.exploits) {
      if (!problems.empty()) problems += ",";
      problems += attacks::problem_name(p);
    }
    if (r.category != category) {
      category = r.category;
      out += "  -- " + category + "\n";
    }
    out += strformat("  %-13s %-12s %-19s %-10s %-15s %-20s %s\n",
                     r.name.c_str(), r.category.c_str(),
                     detection_outcome_name(r.basic),
                     detection_outcome_name(r.adaptive), problems.c_str(),
                     detection_outcome_name(r.mitigated),
                     r.paper_expects_mitigable ? "detected*" : "evaded");
  }
  out +=
      "\n  paper: every basic attack is detected; every adaptive attack "
      "evades;\n  with the recommended fixes 7/8 become detectable (upon "
      "reboot / fresh\n  attestation) and Aoyama (pure Python, P5) still "
      "evades.\n";
  return out;
}

std::string render_fp_baseline(const FpBaselineResult& result) {
  std::string out = strformat(
      "§III-B — one week of benign operation under a static policy\n\n"
      "  days observed                 %d\n"
      "  false-positive alerts         %zu\n"
      "    hash mismatch (updates)     %zu\n"
      "    missing from policy         %zu\n"
      "    SNAP path truncation        %zu\n"
      "  operator interventions        %zu\n",
      result.days, result.alerts_total, result.update_hash_mismatch,
      result.update_missing_file, result.snap_truncation,
      result.operator_interventions);
  if (!result.sample_alerts.empty()) {
    out += "\n  sample alerts:\n";
    for (const auto& s : result.sample_alerts) out += "    " + s + "\n";
  }
  out += "\n  paper: alerts stem from two causes — unscheduled OS updates\n"
         "  (hash mismatch / missing file) and SNAP path truncation.\n";
  return out;
}

std::string render_fp_effectiveness(const DynamicRunResult& daily,
                                    const DynamicRunResult& weekly) {
  const int updates = daily.updates_run + weekly.updates_run;
  std::string out = strformat(
      "§III-D — dynamic policy generation, 66-day evaluation\n\n"
      "  daily run: %d days, %d updates, %zu false positives "
      "(%zu from the injected day-31 operator error)\n"
      "  weekly run: %d days, %d updates, %zu false positives\n"
      "  total: %d days, %d updates\n",
      daily.days, daily.updates_run, daily.false_positives,
      daily.incident_false_positives, weekly.days, weekly.updates_run,
      weekly.false_positives, daily.days + weekly.days, updates);
  out += strformat("  kernel maintenance reboots: %d (daily) + %d (weekly)\n",
                   daily.reboots, weekly.reboots);
  out += "\n  paper: 66 days, 36 updates, zero false positives except one\n"
         "  operator error (a release published after the mirror sync was\n"
         "  installed from the official archive instead of the mirror).\n";
  return out;
}

}  // namespace cia::experiments
