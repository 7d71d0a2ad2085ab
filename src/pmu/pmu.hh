/**
 * @file
 * The power-management-unit firmware loop driving FlexWatts.
 *
 * The PMU ties the runtime pieces of Sec. 6 together: every sensor
 * period (1 ms) it ingests activity-sensor samples; every evaluation
 * interval (10 ms) it estimates Algorithm 1's inputs (TDP, AR,
 * workload type, package power state) and, if the predictor picks the
 * other hybrid mode, launches the voltage-noise-free C6 switch flow.
 */

#ifndef PDNSPOT_PMU_PMU_HH
#define PDNSPOT_PMU_PMU_HH

#include <cstdint>

#include "common/units.hh"
#include "flexwatts/mode_predictor.hh"
#include "flexwatts/mode_switch.hh"
#include "pmu/activity_sensor.hh"
#include "pmu/workload_detector.hh"
#include "workload/trace.hh"

namespace pdnspot
{

/** PMU firmware configuration. */
struct PmuConfig
{
    Power tdp = watts(15.0);
    Time sensorPeriod = milliseconds(1.0);
    Time evalInterval = milliseconds(10.0);  ///< Algorithm 1 cadence
    uint64_t sensorSeed = 1;
    HybridMode initialMode = HybridMode::IvrMode;
};

/** The FlexWatts-aware PMU. */
class Pmu
{
  public:
    Pmu(PmuConfig config, const ModePredictor &predictor);

    /**
     * Advance the firmware to time `now` given the ground truth the
     * sensors observe (the current trace phase). Call with
     * monotonically non-decreasing `now`; the PMU internally ticks
     * its sensor and evaluation cadences.
     */
    void advanceTo(Time now, const TracePhase &phase);

    /**
     * Reconfigure the TDP at runtime (configurable TDP / cTDP,
     * Sec. 1): system manufacturers raise or lower the budget with
     * the available cooling capacity, and the mode predictor adapts
     * at its next evaluation.
     */
    void setTdp(Power tdp);

    /** Mode the hybrid rail is configured for (target if switching). */
    HybridMode configuredMode() const { return _flow.mode(); }

    /** True while a mode-switch C6 flow is in flight. */
    bool switching(Time now) const { return _flow.switching(now); }

    const ModeSwitchFlow &switchFlow() const { return _flow; }

    /** Forward to ModeSwitchFlow::setObserver: the PMU kernel
     * appends each switch to the run's PhaseRecord through it. */
    void
    setSwitchObserver(std::function<void(Time, HybridMode)> observer)
    {
        _flow.setObserver(std::move(observer));
    }
    double arEstimate() const { return _sensor.estimate(); }
    uint64_t evaluations() const { return _evaluations; }

    const PmuConfig &config() const { return _config; }

  private:
    /** Algorithm 1 inputs from the current sensor state. */
    PredictorInputs estimateInputs(const TracePhase &phase) const;

    PmuConfig _config;
    const ModePredictor &_predictor;
    ActivitySensor _sensor;
    ModeSwitchFlow _flow;
    Time _nextSensorTick;
    Time _nextEval;
    uint64_t _sensorTicks = 0;   ///< sensor periods processed so far
    uint64_t _evaluations = 0;
};

} // namespace pdnspot

#endif // PDNSPOT_PMU_PMU_HH
