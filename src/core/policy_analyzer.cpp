#include "core/policy_analyzer.hpp"

#include <set>

#include "common/strutil.hpp"

namespace cia::core {

std::string CoverageReport::to_string() const {
  std::string out = strformat(
      "machine executables: %zu\n"
      "  covered:           %zu (%.1f%%)\n"
      "  stale hash:        %zu\n"
      "  uncovered:         %zu\n"
      "  excluded (P1!):    %zu\n"
      "policy-only paths:   %zu\n",
      machine_executables, covered, coverage_ratio() * 100.0, stale_hash,
      uncovered, excluded, policy_only_paths);
  const auto add_samples = [&out](const char* label,
                                  const std::vector<std::string>& samples) {
    if (samples.empty()) return;
    out += std::string(label) + ":\n";
    for (const auto& s : samples) out += "  " + s + "\n";
  };
  add_samples("stale", stale_samples);
  add_samples("uncovered", uncovered_samples);
  add_samples("excluded", excluded_samples);
  return out;
}

CoverageReport analyze_coverage(const oskernel::Machine& machine,
                                const keylime::RuntimePolicy& policy,
                                std::size_t max_samples) {
  CoverageReport report;
  std::set<std::string> machine_paths;

  for (const std::string& path : machine.fs().list_files("/")) {
    const auto st = machine.fs().stat(path);
    if (!st.ok() || !st.value().executable) continue;
    ++report.machine_executables;
    // Classify by what the verifier would do with this file's
    // measurement. The policy sees IMA-visible paths, so translate.
    const std::string visible = machine.fs().ima_visible_path(path);
    machine_paths.insert(visible);
    switch (policy.check(visible, st.value().content_hash)) {
      case keylime::PolicyMatch::kAllowed:
        ++report.covered;
        break;
      case keylime::PolicyMatch::kHashMismatch:
        ++report.stale_hash;
        if (report.stale_samples.size() < max_samples) {
          report.stale_samples.push_back(visible);
        }
        break;
      case keylime::PolicyMatch::kNotInPolicy:
        ++report.uncovered;
        if (report.uncovered_samples.size() < max_samples) {
          report.uncovered_samples.push_back(visible);
        }
        break;
      case keylime::PolicyMatch::kExcluded:
        ++report.excluded;
        if (report.excluded_samples.size() < max_samples) {
          report.excluded_samples.push_back(visible);
        }
        break;
    }
  }

  // Policy entries with no on-machine counterpart.
  policy.for_each_path(
      [&](const std::string& path, const std::vector<crypto::Digest>&) {
        if (!machine_paths.count(path)) ++report.policy_only_paths;
      });
  return report;
}

}  // namespace cia::core
