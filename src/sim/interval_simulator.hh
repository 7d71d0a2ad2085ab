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

/**
 * Steps traces through PDN models with configurable resolution.
 *
 * One kernel per simulation mode — static, oracle, PMU — and every
 * one takes a PhaseSoA (workload/phase_soa.hh); a PhaseTrace
 * converts implicitly. A PDN evaluation splits into an AR-free
 * demand and an AR-dependent delivery (pdn/pdn_model.hh). Each
 * kernel builds one platform state and one demand per class of
 * phases that differ only in AR — (C-state, workload type) for C0,
 * the C-state alone otherwise — and delivers once per unique state
 * (and mode), never once per phase. Energy accumulates over the
 * SoA's dense per-phase arrays. campaign/campaign_engine.hh's
 * simulateCell() is the one place that picks the kernel a (PDN,
 * mode) pair runs.
 *
 * Every run method takes an optional PhaseRecord (sim/sim_stats.hh)
 * and, when given one, fills it with each trace phase's average
 * supply/nominal power, loss breakdown and hybrid mode, plus the
 * mode switches on the PMU path; the waveform probe (obs/probe.hh)
 * and the fleet's cohort profiles read it after the run. Recording
 * never changes a result: SimResults are bit-identical with and
 * without a record, and a run without one checks for it once per
 * phase.
 */
class IntervalSimulator
{
  public:
    /**
     * @param opm operating-point builder
     * @param tdp platform TDP
     * @param tick simulation step (bounds switch-flow resolution);
     * at least minTick (1 ns)
     */
    IntervalSimulator(const OperatingPointModel &opm, Power tdp,
                      Time tick = microseconds(50.0));

    /** Simulate a static PDN (no mode logic). */
    SimResult run(const PhaseSoA &soa, const PdnModel &pdn,
                  PhaseRecord *record = nullptr) const;

    /**
     * Simulate FlexWatts under PMU control: the predictor sees the
     * workload only through the sensors, pays the 94 us C6 flow per
     * switch, and may lag or mispredict -- this is the realistic
     * counterpart of the oracle evaluation. The PMU observes each
     * phase through its unique-state representative, which differs
     * from the raw phase only in a ±0.0 or NaN AR: the activity
     * sensor rejects a zero AR, and trace import refuses NaN.
     */
    SimResult run(const PhaseSoA &soa, const FlexWattsPdn &pdn,
                  Pmu &pmu, PhaseRecord *record = nullptr) const;

    /**
     * Simulate FlexWatts with an oracle that knows each phase's best
     * mode instantly and switches for free. Upper bound used by the
     * predictor-ablation figure.
     */
    SimResult runOracle(const PhaseSoA &soa, const FlexWattsPdn &pdn,
                        PhaseRecord *record = nullptr) const;

    /**
     * The platform state a phase runs in at this simulator's TDP,
     * built from the phase's canonical AR (canonicalActivityRatio)
     * so -0.0/+0.0 and NaN-payload variants of one phase evaluate
     * identically. Every run method resolves phases through this
     * helper's query: a run builds the state of one phase per
     * (C-state, workload type) class and delivers each phase's
     * class demand at the phase's own AR, which matches this state
     * bit for bit.
     */
    PlatformState stateFor(const TracePhase &phase) const;

  private:
    /** The operating-point query stateFor builds. */
    OperatingPointModel::Query queryFor(const TracePhase &phase) const;

    const OperatingPointModel &_opm;
    Power _tdp;
    Time _tick;
};

} // namespace pdnspot

#endif // PDNSPOT_SIM_INTERVAL_SIMULATOR_HH
