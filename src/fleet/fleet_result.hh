/**
 * @file
 * Aggregate outputs of one fleet simulation.
 *
 * Fleet runs never materialize per-session rows — a million-session
 * population would dwarf any useful output. The result is the set of
 * fleet-wide aggregates the population-scale questions need: a
 * per-bucket time series (sessions alive, supply power, energy, mode
 * switches, battery deaths, storm flag), battery-life and
 * time-to-empty distributions as log2-bucket histogram snapshots
 * (obs/metrics.hh — histogramQuantile works on them directly), and
 * the storm-detector verdict. The CSV and summary writers are
 * deterministic: byte-identical at any thread count (the engine
 * solves each session on its own and aggregates serially).
 */

#ifndef PDNSPOT_FLEET_FLEET_RESULT_HH
#define PDNSPOT_FLEET_FLEET_RESULT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace pdnspot
{

/** One bucket of the fleet time series. */
struct FleetBucketRow
{
    uint64_t index = 0;  ///< bucket number, 0-based
    double tEndS = 0.0;  ///< virtual-clock time at the bucket's end
    uint64_t alive = 0;  ///< sessions with charge left at tEndS
    double powerW = 0.0; ///< fleet-wide mean supply power over bucket
    double energyJ = 0.0;      ///< fleet supply energy this bucket
    uint64_t modeSwitches = 0; ///< hybrid mode switches this bucket
    uint64_t deaths = 0;       ///< sessions that emptied this bucket
    bool storm = false;        ///< switch rate above baseline × k

    bool operator==(const FleetBucketRow &) const = default;
};

/** Echo of one cohort's shape, for summaries and reports. */
struct FleetCohortInfo
{
    std::string name;
    uint64_t count = 0;
    std::string platform;
    std::string pdn;   ///< nameTable<PdnKind> spelling
    std::string mode;  ///< nameTable<SimMode> spelling
    std::string trace; ///< trace name
    uint64_t phases = 0;  ///< phases per trace cycle
    double cycleS = 0.0;  ///< trace cycle period
};

/** Everything one FleetEngine::run produces. */
struct FleetResult
{
    uint64_t sessions = 0;
    uint64_t deaths = 0; ///< sessions that emptied within the run

    double bucketS = 0.0;
    double horizonS = 0.0;

    /**
     * Virtual time actually simulated: the horizon, or the end of
     * the bucket in which the last session died (the engine stops
     * early once the whole fleet is dark).
     */
    double simulatedS = 0.0;

    double totalEnergyJ = 0.0;
    uint64_t totalSwitches = 0;

    /**
     * Session-seconds powered: each session's time until it emptied
     * or the simulated span ended, summed over the population.
     */
    double poweredS = 0.0;

    /** Mean switches per bucket (the storm-detector baseline). */
    double stormBaseline = 0.0;
    double stormK = 0.0;
    uint64_t stormBuckets = 0;

    std::vector<FleetCohortInfo> cohorts;
    std::vector<FleetBucketRow> buckets;

    /**
     * Battery life in hours of the sessions that emptied within the
     * run (empty when none did). Log2-bucketed like every registry
     * histogram; quantiles via histogramQuantile.
     */
    MetricSnapshot batteryLifeH;

    /**
     * Time to empty in hours across *all* sessions: actual for dead
     * sessions, projected for survivors (simulated time plus
     * drainTime of the remaining charge at the session's mean draw).
     */
    MetricSnapshot timeToEmptyH;

    /** Mean supply power per session while it had charge:
     * totalEnergyJ / poweredS. */
    double meanPowerW() const;

    /**
     * The aggregate time series as CSV (csvExactDouble numbers, so
     * the byte-identity contracts are exact):
     * bucket,t_s,sessions_alive,supply_power_w,energy_j,
     * mode_switches,deaths,storm
     */
    void writeCsv(std::ostream &os) const;

    /**
     * Deterministic human-readable run summary: population and
     * cohort shapes, energy/power totals, switch + storm verdicts,
     * death counts and the distribution quantiles. Byte-identical at
     * any thread count (golden-file material).
     */
    void writeSummary(std::ostream &os) const;
};

} // namespace pdnspot

#endif // PDNSPOT_FLEET_FLEET_RESULT_HH
