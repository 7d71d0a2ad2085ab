/**
 * @file
 * Nonlinear TDP budget solver (extension beyond the paper's model).
 *
 * The paper's Sec. 3.3 model linearizes the power-frequency curve at
 * the TDP baseline. This solver answers the exact question instead:
 * the highest compute clock a PDN can sustain such that the total
 * supply power stays within the TDP (the paper's Sec. 3.4 assumption
 * that processor and off-chip VRs share one thermal budget). The
 * ablation figure (pdnspot/figures.hh) uses it to quantify how much
 * the linearization flatters or understates each PDN.
 */

#ifndef PDNSPOT_PERF_BUDGET_SOLVER_HH
#define PDNSPOT_PERF_BUDGET_SOLVER_HH

#include "common/units.hh"
#include "pdn/pdn_model.hh"
#include "power/operating_point.hh"
#include "workload/workload.hh"

namespace pdnspot
{

/** Exact sustainable-frequency search under a supply-power TDP. */
class BudgetSolver
{
  public:
    /** Solver outcome. */
    struct Solution
    {
        double freqMultiplier = 1.0; ///< vs. the TDP baseline clock
        Frequency frequency;         ///< achieved compute clock
        Power inputPower;            ///< supply power at the solution
        bool clampedAtFmax = false;  ///< hit the V-f curve ceiling
    };

    explicit BudgetSolver(const OperatingPointModel &opm);

    /**
     * Highest compute-clock multiplier m (relative to the TDP's
     * baseline frequency) such that the PDN's supply power for
     * workload w stays within tdp.
     */
    Solution solve(const PdnModel &pdn, Power tdp,
                   const Workload &w) const;

  private:
    Power inputPowerAt(const PdnModel &pdn, Power tdp,
                       const Workload &w, double multiplier) const;

    const OperatingPointModel &_opm;
};

} // namespace pdnspot

#endif // PDNSPOT_PERF_BUDGET_SOLVER_HH
