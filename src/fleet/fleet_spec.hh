/**
 * @file
 * Declarative description of one fleet-population simulation.
 *
 * The campaign subsystem evaluates one device per cell; a fleet spec
 * describes a *population*: cohorts of identically-configured device
 * sessions (count × platform × PDN kind × sim mode × trace), each
 * session an independent position in its cohort's cyclic trace with
 * a seeded start-offset jitter and battery-capacity spread. The
 * FleetEngine (fleet_engine.hh) advances every session on a shared
 * virtual clock in fixed time buckets and reports fleet aggregates —
 * power-draw time series, battery-life distributions, sessions-alive
 * curve, mode-switch storms.
 */

#ifndef PDNSPOT_FLEET_FLEET_SPEC_HH
#define PDNSPOT_FLEET_FLEET_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "pdn/pdn_model.hh"
#include "pdnspot/platform.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{

/**
 * One cohort: `count` sessions sharing a platform configuration, PDN
 * kind, simulation mode and trace. Sessions differ only in their
 * seeded start offset into the cyclic trace and their battery
 * capacity draw from the spread.
 */
struct FleetCohort
{
    /** Identifies the cohort in summaries and error messages. */
    std::string name;

    /** Sessions in this cohort. */
    uint64_t count = 0;

    PlatformConfig platform;
    PdnKind pdn = PdnKind::FlexWatts;

    /**
     * How the cohort's trace profile is built (campaign semantics):
     * Static evaluates every phase under the PDN's default mode
     * logic; Pmu runs the cohort trace once under realistic PMU
     * control and sessions replay the captured waveform at their own
     * offsets; Oracle picks each phase's best hybrid mode instantly.
     * Non-FlexWatts PDNs always profile statically.
     */
    SimMode mode = SimMode::Static;

    /** The cohort's workload, replayed cyclically by every session. */
    TraceSpec trace;

    /**
     * Maximum start offset into the cyclic trace. Each session i
     * starts at unit-noise(i) × startJitter (mod the cycle length),
     * desynchronizing governor decisions across the cohort. Zero
     * starts every session at phase 0.
     */
    Time startJitter;

    /** Nominal usable battery capacity per session. */
    double batteryWh = 50.0;

    /**
     * Relative capacity spread in [0, 1): session capacities are
     * batteryWh × (1 + spread × signed-noise(i)), modelling cell
     * aging and SKU variation across the fleet.
     */
    double batterySpread = 0.0;
};

/**
 * The fleet's shared virtual clock counts whole nanoseconds, so
 * bucket edges, phase boundaries and session positions compare
 * exactly. Times convert once, rounding to the nearest nanosecond.
 */
int64_t toClockNs(Time t);

/** A clock reading back in seconds (correctly rounded). */
inline double
clockSeconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Longest horizon or trace cycle the clock holds (~146 years), so
 * position plus one cycle, or a bucket end, cannot overflow. */
constexpr int64_t maxClockNs = int64_t(1) << 62;

/** One fleet study: the cohorts plus the shared-clock parameters. */
struct FleetSpec
{
    std::vector<FleetCohort> cohorts;

    /** Aggregation bucket on the shared virtual clock. */
    Time bucket = seconds(1.0);

    /** Simulated horizon; the last bucket may be partial. */
    Time horizon = seconds(3600.0);

    /**
     * Interval-simulator step for PMU-mode cohort profiling (bounds
     * switch-flow resolution, the CampaignSpec::tick analogue).
     * Cohort traces may carry a per-trace override (TraceSpec::tick).
     */
    Time tick = microseconds(50.0);

    /** Seeds the per-session jitter and capacity-spread noise. */
    uint64_t seed = 1;

    /**
     * Storm-detector threshold: a bucket is a mode-switch storm when
     * its switch count exceeds stormK × the run's mean switches per
     * bucket (and is non-zero).
     */
    double stormK = 4.0;

    /** Total sessions across all cohorts. */
    uint64_t sessionCount() const;

    /** The bucket and horizon on the nanosecond clock. */
    int64_t bucketNs() const { return toClockNs(bucket); }
    int64_t horizonNs() const { return toClockNs(horizon); }

    /**
     * Buckets the horizon spans on the nanosecond clock (the last
     * one possibly partial, never empty); 0 for a spec whose bucket
     * or horizon is out of the clock's range.
     */
    uint64_t bucketCount() const;

    /**
     * fatal() unless the spec is runnable: at least one cohort, each
     * with a unique CSV-safe name, a positive count, a well-formed
     * trace (TraceSpec::validate), a positive finite battery
     * capacity, a spread in [0, 1) and a non-negative jitter; a
     * bucket and horizon of at least 1 ns on the clock, the horizon
     * no longer than maxClockNs and no shorter than the bucket, a
     * positive tick, a positive finite stormK, and a bucket count
     * small enough to aggregate (≤ 10^7).
     */
    void validate() const;
};

} // namespace pdnspot

#endif // PDNSPOT_FLEET_FLEET_SPEC_HH
