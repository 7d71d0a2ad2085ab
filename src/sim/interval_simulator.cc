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

    // Dense accumulation over the per-phase arrays, in trace order.
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
IntervalSimulator::run(const PhaseSoA &soa, const FlexWattsPdn &pdn,
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

    // Per-(unique state, mode) evaluation cache: every phase of a
    // unique state runs in the same platform state, so at most 2
    // evaluations per unique state are ever needed regardless of
    // tick resolution or how often the trace revisits the state.
    struct StateEval
    {
        PlatformState state;
        std::array<bool, 2> valid{};
        std::array<EteeResult, 2> etee;
    };
    const std::vector<TracePhase> &unique = soa.uniquePhases();
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    std::vector<StateEval> cache(unique.size());

    auto evaluate = [&](uint32_t u, HybridMode mode)
        -> const EteeResult & {
        StateEval &se = cache[u];
        size_t m = static_cast<size_t>(mode);
        if (!se.valid[m]) {
            if (!se.valid[0] && !se.valid[1])
                se.state = stateFor(unique[u]);
            se.etee[m] = pdn.evaluate(se.state, mode);
            se.valid[m] = true;
        }
        return se.etee[m];
    };

    Time now;
    uint64_t switches_before = 0;
    for (pi = 0; pi < durations.size(); ++pi) {
        uint32_t u = index[pi];
        const TracePhase &phase = unique[u];
        Time duration = durations[pi];
        Time phase_start = now;
        Time phase_end = now + duration;
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
                    const EteeResult &e = evaluate(u, mode);
                    result.supplyEnergy += e.inputPower * rest;
                    result.nominalEnergy += e.nominalPower * rest;
                    if (probe) {
                        lastEval = e;
                        hasEval = true;
                    }
                }
            } else {
                const EteeResult &e = evaluate(u, mode);
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
            f.duration = duration;
            f.supplyPowerW = inWatts(
                (result.supplyEnergy - phaseSupplyStart) /
                duration);
            f.nominalPowerW = inWatts(
                (result.nominalEnergy - phaseNominalStart) /
                duration);
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
