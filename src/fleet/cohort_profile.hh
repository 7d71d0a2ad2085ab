/**
 * @file
 * A fleet cohort's immutable replay profile and the session start it
 * seeds. Internal to the fleet engine (fleet_engine.cc) and its
 * tests, which step the same profile with a phase-by-phase
 * reference walk (tests/fleet_reference.hh).
 */

#ifndef PDNSPOT_FLEET_COHORT_PROFILE_HH
#define PDNSPOT_FLEET_COHORT_PROFILE_HH

#include <cstdint>
#include <vector>

#include "common/noise.hh"
#include "fleet/fleet_spec.hh"

namespace pdnspot
{

/**
 * One cohort's replay profile, built once through the full simulator
 * stack. Per-phase arrays hold the captured waveform; the
 * doubled-cycle prefix arrays (2n+1 entries, index q standing for
 * phase q mod n of the first or second pass) let a session step any
 * span of at most one cycle from any position with two binary
 * searches and a few differences, without walking phases.
 *
 * Phase *boundaries* sit on the nanosecond clock (tNs, rounded once
 * from the duration prefix sums), so positions and bucket edges
 * compare exactly. Prefix energies come from the unrounded phase
 * durations, so whole cycles consume exactly cycleEnergyJ; only the
 * fraction of a phase a span cuts uses the clock (energyAt).
 */
struct CohortProfile
{
    std::vector<double> powerW;       ///< mean supply power per phase
    std::vector<double> durS;         ///< phase durations, unrounded
    std::vector<uint32_t> switchesIn; ///< switches on entering phase

    std::vector<int64_t> tNs;   ///< phase-q start on the clock, 2n+1
    std::vector<double> eJ;     ///< energy from 0 to tNs[q], 2n+1
    std::vector<uint64_t> sw;   ///< switches entering 1..q, 2n+1
    std::vector<double> jPerNs; ///< phase-q power per ns, 2n

    /** The mode the cell kernel ran: Static for every PDN but
     * FlexWatts, whatever the cohort asked for. */
    SimMode mode = SimMode::Static;

    double cycleS = 0.0;   ///< sum of the unrounded durations
    int64_t cycleNs = 0;   ///< tNs[n]: the cycle on the clock
    double cycleEnergyJ = 0.0;
    uint64_t cycleSwitches = 0;

    double capacityJ = 0.0; ///< nominal battery capacity
    double spread = 0.0;
    double jitterS = 0.0;

    size_t phases() const { return powerW.size(); }

    /** Energy drawn from the cycle start to position x, which lies
     * in doubled phase q (tNs[q] <= x < tNs[q + 1]). */
    double
    energyAt(size_t q, int64_t x) const
    {
        return eJ[q] + jPerNs[q] * static_cast<double>(x - tNs[q]);
    }
};

/**
 * Profile the cohort: run its trace once through the campaign's cell
 * kernel (simulateCell) with a probe capturing per-phase supply
 * power and mode, then build the arrays above. fatal() when the
 * trace resolves to no phases or its cycle is off the clock.
 */
CohortProfile buildProfile(const FleetCohort &cohort, Time tick);

/** Where one session starts: phase, clock position, charge. */
struct SessionStart
{
    uint32_t cursor = 0; ///< phase holding posNs
    int64_t posNs = 0;   ///< position in [0, cycleNs)
    double socJ = 0.0;   ///< battery capacity drawn from the spread
};

/**
 * Session g's start, keyed by its global index g: the jittered
 * offset (mod the cycle) rounded onto the clock, and the capacity
 * drawn from the cohort's spread.
 */
SessionStart sessionStart(const CohortProfile &cp,
                          const HashNoise &noise, uint64_t g);

} // namespace pdnspot

#endif // PDNSPOT_FLEET_COHORT_PROFILE_HH
