// Renderers that print each experiment in the shape the paper reports it
// (figure series, Table I, Table II), alongside the paper's numbers where
// it states them.
#pragma once

#include <string>
#include <vector>

#include "experiments/fn_experiment.hpp"
#include "experiments/fp_experiment.hpp"

namespace cia::experiments {

/// Fig. 3: minutes to update the policy, per daily update.
std::string render_fig3(const DynamicRunResult& daily);

/// Fig. 4: new+changed packages containing executables, per daily update
/// (total and high-priority).
std::string render_fig4(const DynamicRunResult& daily);

/// Fig. 5: file entries added to the policy, per daily update.
std::string render_fig5(const DynamicRunResult& daily);

/// Table I: daily vs weekly update summary.
std::string render_table1(const DynamicRunResult& daily,
                          const DynamicRunResult& weekly);

/// Table II: the attack/detection matrix.
std::string render_table2(const std::vector<AttackReport>& reports);

/// §III-B: the baseline week's false-positive causes.
std::string render_fp_baseline(const FpBaselineResult& result);

/// §III-D: effectiveness summary of the 66-day dynamic-policy run.
std::string render_fp_effectiveness(const DynamicRunResult& daily,
                                    const DynamicRunResult& weekly);

}  // namespace cia::experiments
