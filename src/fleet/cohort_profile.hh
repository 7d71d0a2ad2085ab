/**
 * @file
 * A fleet cohort's immutable replay profile and the session start it
 * seeds. Internal to the fleet engine (fleet_engine.cc) and its
 * tests, which step the same profile with a phase-by-phase
 * reference walk (tests/fleet_reference.hh).
 */

#ifndef PDNSPOT_FLEET_COHORT_PROFILE_HH
#define PDNSPOT_FLEET_COHORT_PROFILE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/noise.hh"
#include "fleet/fleet_spec.hh"

namespace pdnspot
{

/**
 * One cohort's replay profile, built once through the full simulator
 * stack. Per-phase arrays hold the recorded run; the prefix
 * arrays (n+1 entries) give the energy and switches from the cycle
 * start to any position, and where a given energy is reached, by one
 * table-started search, without walking phases.
 *
 * Phase *boundaries* sit on the nanosecond clock (tNs, rounded once
 * from the duration prefix sums), so positions and bucket edges
 * compare exactly. Prefix energies come from the unrounded phase
 * durations, so whole cycles consume exactly cycleEnergyJ; only the
 * fraction of a phase a span cuts uses the clock (energyAt).
 *
 * Two lookup tables, about four cells per phase, start the searches
 * over tNs and eJ: cell c of a table counts the prefix entries that
 * fall in cells below c. An entry in an earlier cell is below any
 * value in cell c and one in a later cell above it, so a search
 * scans only the entries of its value's cell, with the comparisons
 * of a binary search over the whole array.
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

    int tShift = 0; ///< tNs cells are 2^tShift ns wide
    std::vector<uint32_t> tCells; ///< tNs entries below each cell
    double eScale = 0.0; ///< eJ cells per joule
    double eLastCell = 0.0; ///< the last eJ cell's index
    std::vector<uint32_t> eCells; ///< eJ entries below each cell

    size_t phases() const { return powerW.size(); }

    /** The phase holding cycle position x in [0, cycleNs): the last
     * boundary at or before it, so zero-length phases are passed. */
    size_t
    phaseAt(int64_t x) const
    {
        size_t c = static_cast<size_t>(x >> tShift);
        size_t i = tCells[c], end = tCells[c + 1];
        while (i < end && tNs[i] <= x)
            ++i;
        return i - 1;
    }

    /** The first prefix index in [from, phases()] whose energy
     * reaches targetJ (phases() + 1 if none): std::lower_bound over
     * eJ from `from`, for from <= phases() + 1. */
    size_t
    energyReachedAt(double targetJ, size_t from) const
    {
        size_t c = eCellOf(targetJ);
        size_t i = std::max<size_t>(from, eCells[c]), end = eCells[c + 1];
        while (i < end && eJ[i] < targetJ)
            ++i;
        return i;
    }

    /** The eJ cell of an energy: monotone in it, clamped before the
     * cast (NaN goes to cell 0). */
    size_t
    eCellOf(double j) const
    {
        double v = j * eScale;
        return v > 0.0 ? static_cast<size_t>(std::min(v, eLastCell)) : 0;
    }

    /** Build tCells and eCells from tNs and eJ, once tNs, eJ, cycleNs
     * and cycleEnergyJ are set. */
    void indexSearches();

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
 * kernel (simulateCell), read each phase's supply power and mode and
 * the switches from the run's PhaseRecord, then build the arrays
 * above. fatal() when the trace resolves to no phases or its cycle
 * is off the clock.
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

/** std::llround(v), bit for bit, for |v| < 2^63: the truncation,
 * then one step away from zero where the exact remainder is at least
 * one half. */
inline int64_t
roundToInt64(double v)
{
    int64_t i = static_cast<int64_t>(v);
    double f = v - static_cast<double>(i);
    return i + (f >= 0.5) - (f <= -0.5);
}

/** The most sessions sessionStarts takes through each stage at once. */
constexpr size_t sessionBlock = 256;

/**
 * The starts of sessions g .. g + n - 1 of one cohort, keyed by their
 * global indices, into out[0 .. n): the jittered offset (mod the
 * cycle) rounded onto the clock, the phase holding it, and the
 * capacity drawn from the cohort's spread. Each block of up to
 * sessionBlock sessions runs stage by stage, so the sessions' hash,
 * division and search chains overlap.
 */
void sessionStarts(const CohortProfile &cp, const HashNoise &noise,
                   uint64_t g, size_t n, SessionStart *out);

} // namespace pdnspot

#endif // PDNSPOT_FLEET_COHORT_PROFILE_HH
