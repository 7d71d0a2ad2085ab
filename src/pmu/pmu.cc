#include "pmu/pmu.hh"

#include "common/logging.hh"

namespace pdnspot
{

Pmu::Pmu(PmuConfig config, const ModePredictor &predictor)
    : _config(config), _predictor(predictor),
      _sensor(config.sensorSeed),
      _flow(config.initialMode),
      _nextSensorTick(seconds(0.0)),
      _nextEval(config.evalInterval)
{
    if (config.evalInterval < config.sensorPeriod)
        fatal("Pmu: evaluation interval below the sensor period");
}

void
Pmu::setTdp(Power tdp)
{
    if (tdp <= watts(0.0))
        fatal("Pmu: non-positive cTDP");
    _config.tdp = tdp;
}

PredictorInputs
Pmu::estimateInputs(const TracePhase &phase) const
{
    PredictorInputs in;
    in.tdp = _config.tdp;
    in.powerState = phase.cstate;
    if (phase.cstate == PackageCState::C0) {
        in.ar = _sensor.estimate();
        // The PMU infers the type from which domains are awake.
        bool gfx = phase.type == WorkloadType::Graphics;
        int cores = phase.type == WorkloadType::SingleThread ? 1 : 2;
        in.workloadType = detectWorkloadType(gfx, cores);
    } else {
        in.ar = 0.3;
        in.workloadType = WorkloadType::BatteryLife;
    }
    return in;
}

void
Pmu::advanceTo(Time now, const TracePhase &phase)
{
    // Simulators reach `now` by summing step times, so a step start
    // nominally on a cadence boundary can arrive a few ulps early.
    // Cadence times below are derived multiplicatively from integer
    // tick counts (one rounding each, never accumulated), so a
    // nanosecond of slack -- orders of magnitude above residual
    // drift, orders below the microsecond-scale cadences -- keeps
    // tick processing independent of the caller's step size. It is
    // also the finest tick a simulator accepts (minTick).
    const Time slack = minTick;
    now += slack;

    // Sensor cadence: sample the AR proxy while the platform is
    // active; sensors idle in package C-states.
    while (_nextSensorTick <= now) {
        if (phase.cstate == PackageCState::C0)
            _sensor.observe(phase.ar);
        ++_sensorTicks;
        _nextSensorTick =
            _config.sensorPeriod * static_cast<double>(_sensorTicks);
    }

    // Algorithm 1 cadence.
    while (_nextEval <= now) {
        ++_evaluations;
        PredictorInputs in = estimateInputs(phase);
        HybridMode decision =
            _predictor.decide(in, _flow.mode());
        if (decision != _flow.mode())
            _flow.requestSwitch(_nextEval, decision);
        _nextEval = _config.evalInterval *
                    static_cast<double>(_evaluations + 1);
    }
}

} // namespace pdnspot
