#include "fleet/cohort_profile.hh"

#include <cmath>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "obs/probe.hh"
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

    // Run the cohort trace once through the campaign's cell kernel
    // with a probe capturing per-phase supply power and mode (plus
    // mode-switch events); every session replays this waveform
    // cyclically from its own offset.
    ProbeSpec ps;
    ps.signals = {ProbeSignal::SupplyPowerW, ProbeSignal::Mode};
    SignalProbe probe(ps, platform.config().tdp);
    simulateCell(platform, soa, cohort.pdn, cohort.mode,
                 cohort.trace.tickOverride().value_or(tick), &probe);
    Waveform w = probe.take();

    size_t powerCol = 0, modeCol = 0;
    for (size_t s = 0; s < w.signals.size(); ++s) {
        if (w.signals[s] == ProbeSignal::SupplyPowerW)
            powerCol = s;
        if (w.signals[s] == ProbeSignal::Mode)
            modeCol = s;
    }
    if (w.rows.size() != phases)
        panic(strprintf("FleetEngine: cohort profile captured %zu "
                        "rows for %zu phases",
                        w.rows.size(), phases));

    profile.powerW.resize(phases);
    profile.durS.resize(phases);
    profile.switchesIn.assign(phases, 0);
    for (size_t p = 0; p < phases; ++p) {
        profile.powerW[p] = w.rows[p].values[powerCol];
        profile.durS[p] = inSeconds(soa.durations()[p]);
    }
    // Switches: the PMU kernel reports each one as it happens; the
    // oracle switches instantly wherever consecutive phases run in
    // different modes (static rows all carry mode -1).
    if (cohort.mode == SimMode::Pmu) {
        for (const WaveformEvent &event : w.events) {
            if (event.kind ==
                    nameOf(ProbeTriggerSpec::On::ModeSwitch) &&
                event.phase < phases)
                ++profile.switchesIn[event.phase];
        }
    } else {
        for (size_t p = 1; p < phases; ++p) {
            if (w.rows[p].values[modeCol] !=
                w.rows[p - 1].values[modeCol])
                profile.switchesIn[p] = 1;
        }
    }
    // Cyclic wrap: replaying the waveform back-to-back incurs one
    // more switch when it ends in the other mode than it began in.
    double first = w.rows.front().values[modeCol];
    double last = w.rows.back().values[modeCol];
    if (phases > 1 && first != last)
        ++profile.switchesIn[0];
    profile.mode = first < 0.0 ? SimMode::Static : cohort.mode;

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

    profile.capacityJ = cohort.batteryWh * 3600.0;
    profile.spread = cohort.batterySpread;
    profile.jitterS = inSeconds(cohort.startJitter);
    return profile;
}

size_t
CohortProfile::phaseAt(int64_t x) const
{
    // A branch-free binary search for the last boundary at or before
    // x; tNs[0] = 0 is one.
    const int64_t *base = tNs.data();
    for (size_t len = phases(); len > 1; len -= len / 2)
        base = base[len / 2] <= x ? base + len / 2 : base;
    return static_cast<size_t>(base - tNs.data());
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

SessionStart
sessionStart(const CohortProfile &cp, const HashNoise &noise,
             uint64_t g)
{
    SessionStart start;
    if (cp.jitterS > 0.0) {
        double pos = cycleFmod(noise.unit(2 * g) * cp.jitterS, cp.cycleS);
        if (pos >= 0.0 && pos < cp.cycleS)
            start.posNs = toClockNs(seconds(pos)) % cp.cycleNs;
    }
    start.cursor = static_cast<uint32_t>(cp.phaseAt(start.posNs));
    start.socJ = cp.capacityJ *
                 (1.0 + cp.spread * noise.signedUnit(2 * g + 1));
    return start;
}

} // namespace pdnspot
