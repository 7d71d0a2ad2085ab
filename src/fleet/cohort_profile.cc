#include "fleet/cohort_profile.hh"

#include <algorithm>
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
            if (event.kind == "mode_switch" && event.phase < phases)
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

    // Boundaries round once from the duration prefix sums; the
    // second pass repeats the first shifted by one cycle.
    std::vector<double> prefixS(phases + 1, 0.0);
    for (size_t p = 0; p < phases; ++p) {
        prefixS[p + 1] = prefixS[p] + profile.durS[p];
        profile.cycleEnergyJ += profile.powerW[p] * profile.durS[p];
        profile.cycleSwitches += profile.switchesIn[p];
    }
    profile.cycleS = prefixS[phases];
    // Strictly below the limit: the second pass ends at 2 × cycleNs.
    if (!(profile.cycleS * 1e9 < static_cast<double>(maxClockNs)))
        fatal(strprintf("FleetEngine: cohort \"%s\" trace cycle of "
                        "%g s is longer than the clock holds",
                        cohort.name.c_str(), profile.cycleS));
    profile.cycleNs = toClockNs(seconds(profile.cycleS));
    if (profile.cycleNs <= 0)
        fatal(strprintf("FleetEngine: cohort \"%s\" trace has a "
                        "cycle shorter than 1 ns",
                        cohort.name.c_str()));

    size_t doubled = 2 * phases;
    profile.tNs.resize(doubled + 1);
    profile.eJ.resize(doubled + 1);
    profile.sw.resize(doubled + 1);
    profile.jPerNs.resize(doubled);
    profile.eJ[0] = 0.0;
    profile.sw[0] = 0;
    for (size_t q = 0; q <= doubled; ++q) {
        size_t p = q % phases;
        profile.tNs[q] =
            q < phases ? toClockNs(seconds(prefixS[q]))
                       : profile.cycleNs + profile.tNs[q - phases];
        if (q == doubled)
            break;
        profile.eJ[q + 1] =
            profile.eJ[q] + profile.powerW[p] * profile.durS[p];
        profile.sw[q + 1] =
            profile.sw[q] + profile.switchesIn[(q + 1) % phases];
        profile.jPerNs[q] = profile.powerW[p] * 1e-9;
    }

    profile.capacityJ = cohort.batteryWh * 3600.0;
    profile.spread = cohort.batterySpread;
    profile.jitterS = inSeconds(cohort.startJitter);
    return profile;
}

SessionStart
sessionStart(const CohortProfile &cp, const HashNoise &noise,
             uint64_t g)
{
    SessionStart start;
    if (cp.jitterS > 0.0) {
        double pos =
            std::fmod(noise.unit(2 * g) * cp.jitterS, cp.cycleS);
        if (pos >= 0.0 && pos < cp.cycleS)
            start.posNs = toClockNs(seconds(pos)) % cp.cycleNs;
    }
    // The last boundary at or before the position: zero-length
    // phases are passed, so the cursor's phase holds posNs.
    start.cursor = static_cast<uint32_t>(
        std::upper_bound(cp.tNs.begin(),
                         cp.tNs.begin() + cp.phases() + 1,
                         start.posNs) -
        cp.tNs.begin() - 1);
    start.socJ = cp.capacityJ *
                 (1.0 + cp.spread * noise.signedUnit(2 * g + 1));
    return start;
}

} // namespace pdnspot
