/**
 * @file
 * Canned experiment computations behind the paper's tables/figures.
 *
 * Shared by the bench binaries and the integration tests so the
 * numbers reported and the numbers asserted are the same code path.
 */

#ifndef PDNSPOT_PDNSPOT_EXPERIMENTS_HH
#define PDNSPOT_PDNSPOT_EXPERIMENTS_HH

#include <array>
#include <vector>

#include "common/parallel.hh"
#include "pdnspot/platform.hh"
#include "workload/battery_profiles.hh"
#include "workload/workload.hh"

namespace pdnspot
{

/** The seven TDP points of the paper's evaluation. */
inline constexpr std::array<double, 7> evaluationTdpsW = {
    4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0,
};

/**
 * Average power of a battery-life workload on one PDN (Fig. 8c):
 * sum over the profile's states of nominal power / state ETEE,
 * weighted by residency. TDP-independent by construction.
 */
Power batteryAveragePower(const Platform &platform, PdnKind kind,
                          const BatteryProfile &profile);

/**
 * Mean relative performance over a suite (Figs. 7/8a/8b): each
 * workload's performance on `kind` divided by its performance on the
 * IVR baseline, averaged arithmetically as the paper does.
 *
 * Per-workload evaluations fan out across `runner`; the mean is
 * accumulated in suite order, so the result is bit-identical to the
 * serial computation at any thread count.
 */
double suiteMeanRelativePerf(const Platform &platform, PdnKind kind,
                             Power tdp,
                             const std::vector<Workload> &suite,
                             const ParallelRunner &runner);

/**
 * Per-benchmark relative performance for Fig. 7's bars, in suite
 * order. Evaluations fan out across `runner`.
 */
std::vector<double> suiteRelativePerf(const Platform &platform,
                                      PdnKind kind, Power tdp,
                                      const std::vector<Workload> &suite,
                                      const ParallelRunner &runner);

/** Normalized (to IVR) BOM cost of one PDN at one TDP (Fig. 8d). */
double normalizedBom(const Platform &platform, PdnKind kind, Power tdp);

/** Normalized (to IVR) board area of one PDN at one TDP (Fig. 8e). */
double normalizedArea(const Platform &platform, PdnKind kind,
                      Power tdp);

} // namespace pdnspot

#endif // PDNSPOT_PDNSPOT_EXPERIMENTS_HH
