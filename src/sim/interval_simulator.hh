/**
 * @file
 * Interval simulator: drives PDNs (and the FlexWatts PMU) through
 * phase traces.
 *
 * PDNspot's models predict average behaviour over an interval (paper
 * Sec. 3.4); the simulator automates the "run the model per interval"
 * loop the paper describes, stepping a trace phase by phase, letting
 * the PMU observe the workload through its sensors, and accounting
 * supply energy -- including the idle windows and energy of FlexWatts
 * mode-switch flows.
 */

#ifndef PDNSPOT_SIM_INTERVAL_SIMULATOR_HH
#define PDNSPOT_SIM_INTERVAL_SIMULATOR_HH

#include "common/units.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "pdn/pdn_model.hh"
#include "pmu/pmu.hh"
#include "power/operating_point.hh"
#include "sim/sim_stats.hh"
#include "workload/phase_soa.hh"
#include "workload/trace.hh"

namespace pdnspot
{

class SignalProbe;

/**
 * Steps traces through PDN models with configurable resolution.
 *
 * Every run method takes an optional SignalProbe (obs/probe.hh)
 * fed one frame per trace phase — average supply/nominal power, the
 * loss breakdown, the active hybrid mode — plus mode-switch events
 * on the PMU path. The probe is strictly observational: results are
 * bit-identical probed and unprobed, the per-phase and SoA paths
 * deliver identical frames, and an unbound probe costs one null
 * check per phase.
 */
class IntervalSimulator
{
  public:
    /**
     * @param opm operating-point builder
     * @param tdp platform TDP
     * @param tick simulation step (bounds switch-flow resolution)
     */
    IntervalSimulator(const OperatingPointModel &opm, Power tdp,
                      Time tick = microseconds(50.0));

    /** Simulate a static PDN (no mode logic). */
    SimResult run(const PhaseTrace &trace, const PdnModel &pdn,
                  SignalProbe *probe = nullptr) const;

    /**
     * Batched counterpart of the static run: each of the SoA's
     * unique states is resolved exactly once (one tight pass of
     * operating-point + ETEE math), then supply/nominal energy is
     * accumulated over the dense per-phase arrays. Bit-identical to
     * run() over the trace the SoA was built from — the same
     * floating-point operations execute in the same order — while
     * replacing the per-duplicate state rebuilds of the per-phase
     * path with array indexing. The campaign engine uses this for
     * every non-PMU cell.
     */
    SimResult run(const PhaseSoA &soa, const PdnModel &pdn,
                  SignalProbe *probe = nullptr) const;

    /**
     * Simulate FlexWatts under PMU control: the predictor sees the
     * workload only through the sensors, pays the 94 us C6 flow per
     * switch, and may lag or mispredict -- this is the realistic
     * counterpart of the oracle evaluation.
     */
    SimResult run(const PhaseTrace &trace, const FlexWattsPdn &pdn,
                  Pmu &pmu, SignalProbe *probe = nullptr) const;

    /**
     * Simulate FlexWatts with an oracle that knows each phase's best
     * mode instantly and switches for free. Upper bound used by the
     * predictor-ablation bench.
     */
    SimResult runOracle(const PhaseTrace &trace,
                        const FlexWattsPdn &pdn,
                        SignalProbe *probe = nullptr) const;

    /**
     * Batched oracle run: best mode and pinned-mode evaluation are
     * resolved once per unique state, then accumulated over the
     * per-phase arrays. Bit-identical to runOracle() over the source
     * trace (see the static batched overload).
     */
    SimResult runOracle(const PhaseSoA &soa, const FlexWattsPdn &pdn,
                        SignalProbe *probe = nullptr) const;

    /**
     * The platform state a phase runs in at this simulator's TDP,
     * built from the phase's canonical AR (canonicalActivityRatio)
     * so -0.0/+0.0 and NaN-payload variants of one phase evaluate
     * identically. Every run method and the fleet's cohort profiles
     * resolve phases through this one helper.
     */
    PlatformState stateFor(const TracePhase &phase) const;

  private:

    const OperatingPointModel &_opm;
    Power _tdp;
    Time _tick;
};

} // namespace pdnspot

#endif // PDNSPOT_SIM_INTERVAL_SIMULATOR_HH
