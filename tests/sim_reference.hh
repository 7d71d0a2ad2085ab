/**
 * @file
 * Phase-by-phase reference loops for the static, oracle and PMU
 * IntervalSimulator kernels.
 *
 * The kernels build one rail demand per (C-state, workload type)
 * class, deliver it once per unique state of a PhaseSoA and
 * accumulate over its per-phase arrays. These references do the
 * obvious thing instead — build and evaluate the full platform state
 * of every phase (every tick, on the PMU path) of the PhaseTrace in
 * turn — and the static and oracle loops fill the same PhaseRecord,
 * so tests can pin the kernels' results and records bit for bit
 * against an independent loop.
 */

#ifndef PDNSPOT_TESTS_SIM_REFERENCE_HH
#define PDNSPOT_TESTS_SIM_REFERENCE_HH

#include <algorithm>
#include <cstdint>

#include "flexwatts/flexwatts_pdn.hh"
#include "pdn/pdn_model.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"
#include "sim/sim_stats.hh"
#include "workload/trace.hh"

namespace pdnspot
{
namespace reference
{

/** Static run: evaluate every phase through the PDN model. */
inline SimResult
staticRun(const IntervalSimulator &sim, const PhaseTrace &trace,
          const PdnModel &pdn, PhaseRecord *record = nullptr)
{
    if (record)
        *record = PhaseRecord();
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        EteeResult e = pdn.evaluate(sim.stateFor(phase));
        if (record)
            record->push(phase.duration, e, -1);
        result.duration += phase.duration;
        result.supplyEnergy += e.inputPower * phase.duration;
        result.nominalEnergy += e.nominalPower * phase.duration;
    }
    return result;
}

/** Oracle run: every phase in its best mode, switches free. */
inline SimResult
oracleRun(const IntervalSimulator &sim, const PhaseTrace &trace,
          const FlexWattsPdn &pdn, PhaseRecord *record = nullptr)
{
    if (record)
        *record = PhaseRecord();
    SimResult result;
    for (size_t p = 0; p < trace.phases().size(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        PlatformState s = sim.stateFor(phase);
        HybridMode mode = pdn.bestMode(s);
        EteeResult e = pdn.evaluate(s, mode);
        if (record)
            record->push(phase.duration, e, static_cast<int>(mode));
        result.duration += phase.duration;
        result.supplyEnergy += e.inputPower * phase.duration;
        result.nominalEnergy += e.nominalPower * phase.duration;
        result.modeResidency[static_cast<size_t>(mode)] +=
            phase.duration;
    }
    return result;
}

/**
 * PMU run at tick `tick` (the simulator's own): the kernel's tick
 * loop, with the platform state built and the PDN evaluated afresh
 * on every tick that draws workload power. The PMU sees each phase
 * with its canonical AR, as the kernel's unique-state representative
 * shows it.
 */
inline SimResult
pmuRun(const IntervalSimulator &sim, const PhaseTrace &trace,
       const FlexWattsPdn &pdn, Pmu &pmu, Time tick)
{
    SimResult result;
    Time now;
    for (const TracePhase &raw : trace.phases()) {
        TracePhase phase = raw;
        phase.ar = canonicalActivityRatio(raw.ar);
        Time phase_start = now;
        Time phase_end = now + raw.duration;
        for (uint64_t k = 0; now < phase_end; ++k) {
            Time next = std::min(
                phase_start + tick * static_cast<double>(k + 1),
                phase_end);
            Time step = next - now;
            pmu.advanceTo(now, phase);
            HybridMode mode = pmu.configuredMode();
            Time work = step;
            if (pmu.switching(now)) {
                Time overlap = std::min(
                    step, pmu.switchFlow().busyUntil() - now);
                result.supplyEnergy +=
                    pmu.switchFlow().params().flowPower * overlap;
                work = step - overlap;
            }
            if (work > seconds(0.0)) {
                EteeResult e = pdn.evaluate(sim.stateFor(raw), mode);
                result.supplyEnergy += e.inputPower * work;
                result.nominalEnergy += e.nominalPower * work;
            }
            result.modeResidency[static_cast<size_t>(mode)] += step;
            now = next;
        }
    }
    result.duration = now;
    result.modeSwitches = pmu.switchFlow().switchCount();
    result.switchOverheadTime = pmu.switchFlow().totalOverheadTime();
    result.switchOverheadEnergy = pmu.switchFlow().totalOverheadEnergy();
    return result;
}

} // namespace reference
} // namespace pdnspot

#endif // PDNSPOT_TESTS_SIM_REFERENCE_HH
