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
 * stack. Per-phase arrays hold the captured waveform; the prefix
 * arrays (n+1 entries) give the energy and switches from the cycle
 * start to any position, and where a given energy is reached, by one
 * binary search, without walking phases.
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

    std::vector<int64_t> tNs;   ///< phase-q start on the clock, n+1
    std::vector<double> eJ;     ///< energy from 0 to tNs[q], n+1
    std::vector<uint64_t> sw;   ///< switches entering 1..q, n+1
    std::vector<double> jPerNs; ///< phase-q power per ns, n

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

    /** The phase holding cycle position x in [0, cycleNs): the last
     * boundary at or before it, so zero-length phases are passed. */
    size_t phaseAt(int64_t x) const;

    /** Energy drawn from the cycle start to position x, which lies
     * in phase q (tNs[q] <= x < tNs[q + 1]). */
    double
    energyAt(size_t q, int64_t x) const
    {
        return eJ[q] + jPerNs[q] * static_cast<double>(x - tNs[q]);
    }

    /** Energy drawn from the cycle start to the unrolled position
     * x >= 0: its whole cycles, then energyAt. */
    double drawnJ(int64_t x) const;
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
 * std::fmod(x, y), bit for bit, for x >= 0 and y > 0, by one division
 * and one fma where the quotient is below 2^52 (std::fmod above).
 */
double cycleFmod(double x, double y);

/**
 * Session g's start, keyed by its global index g: the jittered
 * offset (mod the cycle) rounded onto the clock, and the capacity
 * drawn from the cohort's spread.
 */
SessionStart sessionStart(const CohortProfile &cp,
                          const HashNoise &noise, uint64_t g);

} // namespace pdnspot

#endif // PDNSPOT_FLEET_COHORT_PROFILE_HH
