/**
 * @file
 * Phase-by-phase reference walk for the fleet engine's bucket step.
 *
 * The engine steps a session across a bucket with binary searches on
 * its cohort's doubled-cycle prefix arrays. This reference does the
 * obvious thing instead: after jumping the whole cycles the charge
 * covers, it walks the rest one phase at a time, subtracting each
 * step's energy from the charge until the bucket ends or the battery
 * empties. It runs on the same nanosecond clock, profiles and session
 * starts (fleet/cohort_profile.hh), so tests can pin the engine's
 * per-bucket counts exactly, and its energies to rounding, against an
 * independent loop.
 */

#ifndef PDNSPOT_TESTS_FLEET_REFERENCE_HH
#define PDNSPOT_TESTS_FLEET_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "fleet/cohort_profile.hh"
#include "fleet/fleet_result.hh"
#include "sim/battery_model.hh"

namespace pdnspot
{
namespace reference
{

/** One session of the reference walk. */
struct FleetSession
{
    uint32_t cohort = 0;
    uint32_t cursor = 0; ///< current phase
    int64_t remNs = 0;   ///< clock time left in the current phase
    double socJ = 0.0;
    double emptyAtS = -1.0; ///< death time; < 0 while alive
};

/** Phase p's length on the clock. */
inline int64_t
phaseNs(const CohortProfile &cp, size_t p)
{
    return cp.tNs[p + 1] - cp.tNs[p];
}

/** Energy drawn from phase p's start to offset `off` into it: the
 * unrounded phase energy at its end, the clock fraction before. */
inline double
phaseEnergyAt(const CohortProfile &cp, size_t p, int64_t off)
{
    if (off == phaseNs(cp, p))
        return cp.powerW[p] * cp.durS[p];
    return cp.powerW[p] * 1e-9 * static_cast<double>(off);
}

/** Step one session across [startNs, startNs + dtNs). */
inline void
walkSession(const CohortProfile &cp, FleetSession &session,
            int64_t startNs, int64_t dtNs, FleetBucketRow &row)
{
    if (session.emptyAtS >= 0.0)
        return;

    int64_t remaining = dtNs;
    int64_t elapsed = 0;
    uint32_t cur = session.cursor;
    int64_t rem = session.remNs;
    double soc = session.socJ;
    double energy = 0.0;
    uint64_t switches = 0;

    if (remaining >= cp.cycleNs) {
        double n = static_cast<double>(remaining / cp.cycleNs);
        if (cp.cycleEnergyJ > 0.0) {
            double byCharge = std::floor(soc / cp.cycleEnergyJ);
            while (byCharge > 0.0 &&
                   byCharge * cp.cycleEnergyJ >= soc)
                byCharge -= 1.0;
            n = std::min(n, byCharge);
        }
        if (n > 0.0) {
            double spent = n * cp.cycleEnergyJ;
            soc -= spent;
            energy += spent;
            switches += static_cast<uint64_t>(n) * cp.cycleSwitches;
            remaining -= static_cast<int64_t>(n) * cp.cycleNs;
            elapsed += static_cast<int64_t>(n) * cp.cycleNs;
        }
    }

    size_t phases = cp.phases();
    bool died = false;
    while (remaining > 0) {
        int64_t step = std::min(rem, remaining);
        int64_t off = phaseNs(cp, cur) - rem;
        double power = cp.powerW[cur];
        double stepEnergy = phaseEnergyAt(cp, cur, off + step) -
                            phaseEnergyAt(cp, cur, off);
        if (power > 0.0 && stepEnergy >= soc) {
            session.emptyAtS =
                clockSeconds(startNs + elapsed) +
                inSeconds(drainTime(joules(soc), watts(power)));
            energy += soc;
            soc = 0.0;
            ++row.deaths;
            died = true;
            break;
        }
        soc -= stepEnergy;
        energy += stepEnergy;
        remaining -= step;
        elapsed += step;
        rem -= step;
        // A phase entered exactly at the bucket's end belongs to
        // this bucket, as does any zero-length phase passed there.
        while (rem == 0) {
            cur = cur + 1 == phases ? 0 : cur + 1;
            rem = phaseNs(cp, cur);
            switches += cp.switchesIn[cur];
        }
    }

    session.cursor = cur;
    session.remNs = rem;
    session.socJ = soc;
    row.energyJ += energy;
    row.modeSwitches += switches;
    if (!died)
        ++row.alive;
}

/** A reference run's per-bucket rows and per-session death times. */
struct FleetRun
{
    std::vector<FleetBucketRow> buckets;
    std::vector<double> emptyAtS;
};

/**
 * Run the spec serially with the reference walk: the engine's
 * profiles, session starts and bucket clock, stopping once the fleet
 * is dark. Rows carry no storm verdict.
 */
inline FleetRun
fleetRun(const FleetSpec &spec)
{
    spec.validate();
    std::vector<CohortProfile> profiles;
    for (const FleetCohort &cohort : spec.cohorts)
        profiles.push_back(buildProfile(cohort, spec.tick));

    HashNoise noise(spec.seed);
    std::vector<FleetSession> sessions;
    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        const CohortProfile &cp = profiles[c];
        for (uint64_t i = 0; i < spec.cohorts[c].count; ++i) {
            SessionStart start = sessionStart(cp, noise, sessions.size());
            FleetSession session;
            session.cohort = static_cast<uint32_t>(c);
            session.cursor = start.cursor;
            session.remNs = cp.tNs[start.cursor + 1] - start.posNs;
            session.socJ = start.socJ;
            sessions.push_back(session);
        }
    }

    FleetRun run;
    int64_t bucketNs = spec.bucketNs();
    for (uint64_t b = 0; b < spec.bucketCount(); ++b) {
        int64_t startNs = static_cast<int64_t>(b) * bucketNs;
        int64_t endNs = std::min(startNs + bucketNs, spec.horizonNs());
        FleetBucketRow row;
        row.index = b;
        row.tEndS = clockSeconds(endNs);
        for (FleetSession &session : sessions)
            walkSession(profiles[session.cohort], session, startNs,
                        endNs - startNs, row);
        row.powerW = row.energyJ / clockSeconds(endNs - startNs);
        run.buckets.push_back(row);
        if (row.alive == 0)
            break;
    }
    for (const FleetSession &session : sessions)
        run.emptyAtS.push_back(session.emptyAtS);
    return run;
}

} // namespace reference
} // namespace pdnspot

#endif // PDNSPOT_TESTS_FLEET_REFERENCE_HH
