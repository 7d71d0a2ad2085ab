/**
 * @file
 * Phase-by-phase reference loops for the static and oracle
 * IntervalSimulator kernels.
 *
 * The kernels evaluate each unique state of a PhaseSoA once and
 * accumulate over its per-phase arrays. These references do the
 * obvious thing instead — resolve and evaluate every phase of the
 * PhaseTrace in turn — and feed the probe the same frames, so tests
 * can pin the kernels' results and waveforms bit for bit against an
 * independent loop.
 */

#ifndef PDNSPOT_TESTS_SIM_REFERENCE_HH
#define PDNSPOT_TESTS_SIM_REFERENCE_HH

#include "flexwatts/flexwatts_pdn.hh"
#include "obs/probe.hh"
#include "pdn/pdn_model.hh"
#include "sim/interval_simulator.hh"
#include "sim/sim_stats.hh"
#include "workload/trace.hh"

namespace pdnspot
{
namespace reference
{

/** Feed one phase evaluation to the probe, as the kernels do. */
inline void
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

/** Static run: evaluate every phase through the PDN model. */
inline SimResult
staticRun(const IntervalSimulator &sim, const PhaseTrace &trace,
          const PdnModel &pdn, SignalProbe *probe = nullptr)
{
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        EteeResult e = pdn.evaluate(sim.stateFor(phase));
        if (probe)
            probePhase(probe, p, result.duration, phase.duration, e,
                       -1);
        result.duration += phase.duration;
        result.supplyEnergy += e.inputPower * phase.duration;
        result.nominalEnergy += e.nominalPower * phase.duration;
    }
    return result;
}

/** Oracle run: every phase in its best mode, switches free. */
inline SimResult
oracleRun(const IntervalSimulator &sim, const PhaseTrace &trace,
          const FlexWattsPdn &pdn, SignalProbe *probe = nullptr)
{
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        PlatformState s = sim.stateFor(phase);
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

} // namespace reference
} // namespace pdnspot

#endif // PDNSPOT_TESTS_SIM_REFERENCE_HH
