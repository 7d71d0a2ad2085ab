#include "sim/interval_simulator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"

namespace pdnspot
{

namespace
{

/** Feed one static/oracle phase evaluation to the probe. */
void
probePhase(SignalProbe *probe, uint64_t phase, Time start,
           Time duration, const EteeResult &e, int mode)
{
    ProbeFrame f;
    f.phase = phase;
    f.start = start;
    f.duration = duration;
    f.supplyPowerW = inWatts(e.inputPower);
    f.nominalPowerW = inWatts(e.nominalPower);
    f.loss = &e.loss;
    f.mode = mode;
    probe->samplePhase(f);
}

} // namespace

IntervalSimulator::IntervalSimulator(const OperatingPointModel &opm,
                                     Power tdp, Time tick)
    : _opm(opm), _tdp(tdp), _tick(tick)
{
    if (tick <= seconds(0.0))
        fatal("IntervalSimulator: non-positive tick");
}

PlatformState
IntervalSimulator::stateFor(const TracePhase &phase) const
{
    OperatingPointModel::Query q;
    q.tdp = _tdp;
    q.cstate = phase.cstate;
    q.type = phase.type;
    q.ar = canonicalActivityRatio(phase.ar);
    return _opm.build(q);
}

SimResult
IntervalSimulator::run(const PhaseTrace &trace, const PdnModel &pdn,
                       SignalProbe *probe) const
{
    metricAdd(Metric::SimRunsStatic);
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        EteeResult e = pdn.evaluate(stateFor(phase));
        if (probe)
            probePhase(probe, p, result.duration, phase.duration, e,
                       -1);
        result.duration += phase.duration;
        result.supplyEnergy += e.inputPower * phase.duration;
        result.nominalEnergy += e.nominalPower * phase.duration;
    }
    return result;
}

SimResult
IntervalSimulator::run(const PhaseSoA &soa, const PdnModel &pdn,
                       SignalProbe *probe) const
{
    metricAdd(Metric::SimRunsStatic);

    // One pass of operating-point + ETEE math over the unique
    // states.
    const std::vector<TracePhase> &unique = soa.uniquePhases();
    std::vector<EteeResult> etee(unique.size());
    for (size_t u = 0; u < unique.size(); ++u)
        etee[u] = pdn.evaluate(stateFor(unique[u]));

    // Dense accumulation over the per-phase arrays: the same
    // additions in the same order as the phase-by-phase loop.
    SimResult result;
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    for (size_t p = 0; p < durations.size(); ++p) {
        const EteeResult &e = etee[index[p]];
        if (probe)
            probePhase(probe, p, result.duration, durations[p], e,
                       -1);
        result.duration += durations[p];
        result.supplyEnergy += e.inputPower * durations[p];
        result.nominalEnergy += e.nominalPower * durations[p];
    }
    return result;
}

SimResult
IntervalSimulator::runOracle(const PhaseTrace &trace,
                             const FlexWattsPdn &pdn,
                             SignalProbe *probe) const
{
    metricAdd(Metric::SimRunsOracle);
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        PlatformState s = stateFor(phase);
        HybridMode mode = pdn.bestMode(s);
        EteeResult e = pdn.evaluate(s, mode);
        if (probe)
            probePhase(probe, p, result.duration, phase.duration, e,
                       static_cast<int>(mode));
        result.duration += phase.duration;
        result.supplyEnergy += e.inputPower * phase.duration;
        result.nominalEnergy += e.nominalPower * phase.duration;
        result.modeResidency[static_cast<size_t>(mode)] +=
            phase.duration;
    }
    return result;
}

SimResult
IntervalSimulator::runOracle(const PhaseSoA &soa,
                             const FlexWattsPdn &pdn,
                             SignalProbe *probe) const
{
    metricAdd(Metric::SimRunsOracle);

    const std::vector<TracePhase> &unique = soa.uniquePhases();
    std::vector<HybridMode> modes(unique.size());
    std::vector<EteeResult> etee(unique.size());
    for (size_t u = 0; u < unique.size(); ++u) {
        PlatformState s = stateFor(unique[u]);
        modes[u] = pdn.bestMode(s);
        etee[u] = pdn.evaluate(s, modes[u]);
    }

    SimResult result;
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    for (size_t p = 0; p < durations.size(); ++p) {
        const EteeResult &e = etee[index[p]];
        if (probe)
            probePhase(probe, p, result.duration, durations[p], e,
                       static_cast<int>(modes[index[p]]));
        result.duration += durations[p];
        result.supplyEnergy += e.inputPower * durations[p];
        result.nominalEnergy += e.nominalPower * durations[p];
        result.modeResidency[static_cast<size_t>(modes[index[p]])] +=
            durations[p];
    }
    return result;
}

SimResult
IntervalSimulator::run(const PhaseTrace &trace, const FlexWattsPdn &pdn,
                       Pmu &pmu, SignalProbe *probe) const
{
    metricAdd(Metric::SimRunsPmu);
    SimResult result;

    // The probe's per-phase frame averages over the phase's ticks
    // (supply/nominal energy deltas divided by the duration), keeps
    // the loss breakdown of the phase's last PDN evaluation (absent
    // if the whole phase sat inside a C6 switch flow), and reports
    // the mode configured at phase end. Mode-switch events arrive
    // through the switch-flow observer as they happen.
    size_t pi = 0;
    Energy phaseSupplyStart;
    Energy phaseNominalStart;
    EteeResult lastEval;
    bool hasEval = false;
    if (probe) {
        pmu.setSwitchObserver(
            [probe, &pi](Time t, HybridMode target) {
                probe->modeSwitch(pi, t, target);
            });
    }

    // Per-(phase, mode) evaluation cache: the platform state is
    // constant within a phase, so only 2 evaluations per phase are
    // ever needed regardless of tick resolution.
    struct PhaseEval
    {
        PlatformState state;
        std::array<bool, 2> valid{};
        std::array<EteeResult, 2> etee;
    };
    std::vector<PhaseEval> cache(trace.phases().size());

    auto evaluate = [&](size_t phase_idx, HybridMode mode)
        -> const EteeResult & {
        PhaseEval &pe = cache[phase_idx];
        size_t m = static_cast<size_t>(mode);
        if (!pe.valid[m]) {
            if (!pe.valid[0] && !pe.valid[1])
                pe.state = stateFor(trace.phases()[phase_idx]);
            pe.etee[m] = pdn.evaluate(pe.state, mode);
            pe.valid[m] = true;
        }
        return pe.etee[m];
    };

    Time now;
    uint64_t switches_before = 0;
    for (pi = 0; pi < trace.phases().size(); ++pi) {
        const TracePhase &phase = trace.phases()[pi];
        Time phase_start = now;
        Time phase_end = now + phase.duration;
        if (probe) {
            phaseSupplyStart = result.supplyEnergy;
            phaseNominalStart = result.nominalEnergy;
            hasEval = false;
        }

        // Step times are derived from the phase start and an integer
        // tick count (one rounding each) rather than accumulated, so
        // `now` does not drift from the nominal boundaries and the
        // PMU sees cadence ticks at the same times for any tick size.
        uint64_t tick_idx = 0;
        while (now < phase_end) {
            Time next = std::min(
                phase_start +
                    _tick * static_cast<double>(tick_idx + 1),
                phase_end);
            Time step = next - now;
            pmu.advanceTo(now, phase);

            HybridMode mode = pmu.configuredMode();
            if (pmu.switching(now)) {
                // Compute domains idle through the C6 flow; the
                // platform draws the flow power instead of the
                // workload power. Nominal (useful) energy is zero.
                Time overlap = std::min(
                    step, pmu.switchFlow().busyUntil() - now);
                Power flow_power =
                    pmu.switchFlow().params().flowPower;
                result.supplyEnergy += flow_power * overlap;
                Time rest = step - overlap;
                if (rest > seconds(0.0)) {
                    const EteeResult &e = evaluate(pi, mode);
                    result.supplyEnergy += e.inputPower * rest;
                    result.nominalEnergy += e.nominalPower * rest;
                    if (probe) {
                        lastEval = e;
                        hasEval = true;
                    }
                }
            } else {
                const EteeResult &e = evaluate(pi, mode);
                result.supplyEnergy += e.inputPower * step;
                result.nominalEnergy += e.nominalPower * step;
                if (probe) {
                    lastEval = e;
                    hasEval = true;
                }
            }
            result.modeResidency[static_cast<size_t>(mode)] += step;
            now = next;
            ++tick_idx;
        }
        if (probe) {
            ProbeFrame f;
            f.phase = pi;
            f.start = phase_start;
            f.duration = phase.duration;
            f.supplyPowerW = inWatts(
                (result.supplyEnergy - phaseSupplyStart) /
                phase.duration);
            f.nominalPowerW = inWatts(
                (result.nominalEnergy - phaseNominalStart) /
                phase.duration);
            f.loss = hasEval ? &lastEval.loss : nullptr;
            f.mode = static_cast<int>(pmu.configuredMode());
            probe->samplePhase(f);
        }
    }
    if (probe)
        pmu.setSwitchObserver({});

    result.duration = now;
    result.modeSwitches = pmu.switchFlow().switchCount() -
                          switches_before;
    result.switchOverheadTime = pmu.switchFlow().totalOverheadTime();
    result.switchOverheadEnergy =
        pmu.switchFlow().totalOverheadEnergy();
    return result;
}

} // namespace pdnspot
