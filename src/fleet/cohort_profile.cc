#include "fleet/cohort_profile.hh"

#include <algorithm>
#include <cmath>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "obs/span_trace.hh"
#include "workload/phase_soa.hh"

namespace pdnspot
{

CohortProfile
buildProfile(const FleetCohort &cohort, Time tick)
{
    SpanScope span("fleet.profile", "fleet");
    CohortProfile profile;

    Platform platform(cohort.platform);
    PhaseSoA soa(cohort.trace.resolve());
    size_t phases = soa.phaseCount();
    if (phases == 0)
        fatal(strprintf("FleetEngine: cohort \"%s\" trace \"%s\" "
                        "resolved to zero phases",
                        cohort.name.c_str(),
                        cohort.trace.name().c_str()));

    // Run the cohort trace once through the campaign's cell kernel,
    // recording each phase's supply power and mode (and, on the PMU
    // kernel, each switch); every session replays this record
    // cyclically from its own offset.
    PhaseRecord record;
    simulateCell(platform, soa, cohort.pdn, cohort.mode,
                 cohort.trace.tickOverride().value_or(tick), &record);

    profile.powerW = std::move(record.supplyW);
    profile.durS.resize(phases);
    profile.switchesIn.assign(phases, 0);
    for (size_t p = 0; p < phases; ++p)
        profile.durS[p] = inSeconds(soa.durations()[p]);
    // Switches: the PMU kernel records each one as it happens; the
    // oracle switches instantly wherever consecutive phases run in
    // different modes (static phases all carry mode -1).
    const std::vector<int> &mode = record.mode;
    if (cohort.mode == SimMode::Pmu) {
        for (const PhaseRecord::Switch &s : record.switches)
            ++profile.switchesIn[s.phase];
    } else {
        for (size_t p = 1; p < phases; ++p)
            if (mode[p] != mode[p - 1])
                profile.switchesIn[p] = 1;
    }
    // Cyclic wrap: replaying the record back-to-back incurs one more
    // switch when it ends in the other mode than it began in.
    if (phases > 1 && mode.front() != mode.back())
        ++profile.switchesIn[0];
    profile.mode = mode.front() < 0 ? SimMode::Static : cohort.mode;

    // Boundaries round once from the duration prefix sums.
    std::vector<double> prefixS(phases + 1, 0.0);
    for (size_t p = 0; p < phases; ++p)
        prefixS[p + 1] = prefixS[p] + profile.durS[p];
    profile.cycleS = prefixS[phases];
    // Strictly below the limit: a position within the horizon plus
    // one cycle stays on the int64 clock.
    if (!(profile.cycleS * 1e9 < static_cast<double>(maxClockNs)))
        fatal(strprintf("FleetEngine: cohort \"%s\" trace cycle of "
                        "%g s is longer than the clock holds",
                        cohort.name.c_str(), profile.cycleS));
    profile.cycleNs = toClockNs(seconds(profile.cycleS));
    if (profile.cycleNs <= 0)
        fatal(strprintf("FleetEngine: cohort \"%s\" trace has a "
                        "cycle shorter than 1 ns",
                        cohort.name.c_str()));

    profile.tNs.resize(phases + 1);
    profile.eJ.assign(phases + 1, 0.0);
    profile.sw.assign(phases + 1, 0);
    profile.jPerNs.resize(phases);
    for (size_t p = 0; p < phases; ++p) {
        profile.tNs[p] = toClockNs(seconds(prefixS[p]));
        profile.eJ[p + 1] =
            profile.eJ[p] + profile.powerW[p] * profile.durS[p];
        profile.sw[p + 1] =
            profile.sw[p] + profile.switchesIn[(p + 1) % phases];
        profile.jPerNs[p] = profile.powerW[p] * 1e-9;
    }
    profile.tNs[phases] = profile.cycleNs;
    profile.cycleEnergyJ = profile.eJ[phases];
    profile.cycleSwitches = profile.sw[phases];

    profile.indexSearches();

    profile.capacityJ = cohort.batteryWh * 3600.0;
    profile.spread = cohort.batterySpread;
    profile.jitterS = inSeconds(cohort.startJitter);
    return profile;
}

namespace
{

/** Per cell of `cells`, how many of the n entries fall in the cells
 * below it (cellOf(i) is entry i's cell, monotone in i; entries at or
 * past the last cell count in none): cells + 1 counts. */
template <typename CellOf>
std::vector<uint32_t>
countBelow(size_t n, size_t cells, CellOf cellOf)
{
    std::vector<uint32_t> below(cells + 1, 0);
    for (size_t i = 0; i < n; ++i) {
        size_t c = cellOf(i);
        if (c < cells)
            ++below[c + 1];
    }
    for (size_t c = 0; c < cells; ++c)
        below[c + 1] += below[c];
    return below;
}

} // namespace

void
CohortProfile::indexSearches()
{
    // About four cells per phase in each table: tNs cells are the
    // smallest power of two of ns that covers the cycle in that many.
    size_t cells = 4 * phases();
    tShift = 0;
    while (static_cast<size_t>((cycleNs - 1) >> tShift) >= cells)
        ++tShift;
    tCells = countBelow(tNs.size(),
                        static_cast<size_t>((cycleNs - 1) >> tShift) + 1,
                        [&](size_t i) {
                            return static_cast<size_t>(tNs[i] >> tShift);
                        });
    // A cohort that draws nothing puts every energy in cell 0.
    eScale = cycleEnergyJ > 0.0 ? static_cast<double>(cells) / cycleEnergyJ
                                : 0.0;
    eLastCell = static_cast<double>(cells - 1);
    eCells = countBelow(eJ.size(), cells,
                        [&](size_t i) { return eCellOf(eJ[i]); });
}

double
CohortProfile::drawnJ(int64_t x) const
{
    int64_t cycles = x / cycleNs, pos = x % cycleNs;
    return static_cast<double>(cycles) * cycleEnergyJ +
           energyAt(phaseAt(pos), pos);
}

double
cycleFmod(double x, double y)
{
    // q is the true quotient's floor, or one above it when the
    // division rounds up to an integer. While q < 2^52 the fma rounds
    // once onto x - q × y; with the right q that is the remainder,
    // which is representable, so exact; with q one too high it is
    // negative.
    double q = std::floor(x / y);
    if (!(q < 0x1p52))
        return std::fmod(x, y);
    double r = std::fma(-q, y, x);
    return r < 0.0 ? std::fma(-(q - 1.0), y, x) : r;
}

void
sessionStarts(const CohortProfile &cp, const HashNoise &noise,
              uint64_t g, size_t n, SessionStart *out)
{
    double pos[sessionBlock];
    for (size_t b = 0; b < n; b += sessionBlock) {
        size_t m = std::min(sessionBlock, n - b);
        SessionStart *s = out + b;
        uint64_t k = g + b;
        for (size_t i = 0; i < m; ++i)
            s[i].socJ = cp.capacityJ *
                        (1.0 + cp.spread * noise.signedUnit(2 * (k + i) + 1));
        for (size_t i = 0; i < m; ++i)
            s[i].posNs = 0;
        if (cp.jitterS > 0.0) {
            for (size_t i = 0; i < m; ++i)
                pos[i] = noise.unit(2 * (k + i)) * cp.jitterS;
            for (size_t i = 0; i < m; ++i)
                pos[i] = cycleFmod(pos[i], cp.cycleS);
            // pos < cycleS rounds to at most cycleNs, the rounded
            // cycleS, so the position mod the cycle is one compare.
            for (size_t i = 0; i < m; ++i) {
                if (pos[i] >= 0.0 && pos[i] < cp.cycleS) {
                    int64_t ns = roundToInt64(pos[i] * 1e9);
                    s[i].posNs = ns == cp.cycleNs ? 0 : ns;
                }
            }
        }
        for (size_t i = 0; i < m; ++i)
            s[i].cursor = static_cast<uint32_t>(cp.phaseAt(s[i].posNs));
    }
}

} // namespace pdnspot
