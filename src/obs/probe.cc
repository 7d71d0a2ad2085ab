#include "obs/probe.hh"

#include <algorithm>

#include "common/csv.hh"
#include "common/logging.hh"

namespace pdnspot
{

bool
ProbeSpec::matches(const std::string &traceName,
                   const std::string &platformName,
                   const std::string &pdnName,
                   const std::string &modeName) const
{
    return (trace.empty() || trace == traceName) &&
           (platform.empty() || platform == platformName) &&
           (pdn.empty() || pdn == pdnName) &&
           (mode.empty() || mode == modeName);
}

std::vector<ProbeSignal>
ProbeSpec::selectedSignals() const
{
    if (signals.empty()) {
        return std::vector<ProbeSignal>(allProbeSignals.begin(),
                                        allProbeSignals.end());
    }
    std::vector<ProbeSignal> out;
    for (ProbeSignal s : allProbeSignals) {
        if (std::find(signals.begin(), signals.end(), s) !=
            signals.end()) {
            out.push_back(s);
        }
    }
    return out;
}

void
ProbeSpec::validate() const
{
    if (decimate == 0)
        fatal("ProbeSpec: decimate must be >= 1");
    if (trigger && trigger->window == 0)
        fatal("ProbeSpec: trigger window must be >= 1");
    if (!(batteryWh > 0.0))
        fatal("ProbeSpec: battery capacity must be positive");
}

std::string
Waveform::cellName() const
{
    std::string name =
        trace + "__" + platform + "__" + pdn + "__" + mode;
    for (char &c : name) {
        bool safe = (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
        if (!safe)
            c = '_';
    }
    return name;
}

SignalProbe::SignalProbe(const ProbeSpec &spec, Power tdp)
    : _spec(spec), _signals(spec.selectedSignals()), _budget(tdp),
      _capacity(wattHours(spec.batteryWh))
{
    _spec.validate();
}

void
SignalProbe::buildRow(const ProbeFrame &frame)
{
    WaveformRow row;
    row.phase = frame.phase;
    row.start = frame.start;
    row.duration = frame.duration;
    row.values.reserve(_signals.size());
    for (ProbeSignal s : _signals) {
        double v = 0.0;
        switch (s) {
          case ProbeSignal::SupplyPowerW:
            v = frame.supplyPowerW;
            break;
          case ProbeSignal::NominalPowerW:
            v = frame.nominalPowerW;
            break;
          case ProbeSignal::Etee:
            // Same guarded ratio as EteeResult::etee().
            v = frame.supplyPowerW <= 0.0
                    ? 0.0
                    : frame.nominalPowerW / frame.supplyPowerW;
            break;
          case ProbeSignal::Mode:
            v = static_cast<double>(frame.mode);
            break;
          case ProbeSignal::VrLossW:
            v = frame.loss ? inWatts(frame.loss->vrLoss) : 0.0;
            break;
          case ProbeSignal::ConductionComputeW:
            v = frame.loss ? inWatts(frame.loss->conductionCompute)
                           : 0.0;
            break;
          case ProbeSignal::ConductionUncoreW:
            v = frame.loss ? inWatts(frame.loss->conductionUncore)
                           : 0.0;
            break;
          case ProbeSignal::OtherLossW:
            v = frame.loss ? inWatts(frame.loss->other) : 0.0;
            break;
          case ProbeSignal::BudgetAvgPowerW:
            v = inWatts(_budget.averagePower());
            break;
          case ProbeSignal::BudgetMultiplier:
            v = _budget.recommendedMultiplier();
            break;
          case ProbeSignal::BatterySoc:
            v = std::max(0.0, 1.0 - _consumed / _capacity);
            break;
        }
        row.values.push_back(v);
    }

    if (!_spec.trigger) {
        _rows.push_back(std::move(row));
        return;
    }
    if (_triggered && frame.phase <= _admitThrough) {
        _rows.push_back(std::move(row));
        return;
    }
    // Candidate for a future trigger's lookback window: hold it in
    // the ring, evicting everything already out of reach.
    _ring.push_back(std::move(row));
    uint64_t window = _spec.trigger->window;
    while (!_ring.empty() &&
           _ring.front().phase + window < frame.phase) {
        _ring.pop_front();
    }
}

void
SignalProbe::fireTrigger(ProbeTriggerSpec::On cause, uint64_t phase)
{
    if (!_spec.trigger)
        return;
    ProbeTriggerSpec::On want = _spec.trigger->on;
    if (want != ProbeTriggerSpec::On::Any && want != cause)
        return;
    uint64_t window = _spec.trigger->window;
    uint64_t lo = phase >= window ? phase - window : 0;
    while (!_ring.empty() && _ring.front().phase < lo)
        _ring.pop_front();
    for (WaveformRow &row : _ring)
        _rows.push_back(std::move(row));
    _ring.clear();
    _triggered = true;
    _admitThrough = std::max(_admitThrough, phase + window);
}

void
SignalProbe::samplePhase(const ProbeFrame &frame)
{
    // Derived state advances on every phase regardless of decimation
    // or trigger admission, so the shadow governor and battery see
    // the full timeline.
    _budget.observe(watts(frame.supplyPowerW), frame.duration);
    _consumed += watts(frame.supplyPowerW) * frame.duration;

    bool clamped = _budget.clamped();
    if (clamped && !_wasClamped) {
        WaveformEvent e;
        e.kind = nameOf(ProbeTriggerSpec::On::BudgetClip);
        e.phase = frame.phase;
        e.t = frame.start + frame.duration;
        e.detail = csvExactDouble(_budget.recommendedMultiplier());
        _events.push_back(std::move(e));
        fireTrigger(ProbeTriggerSpec::On::BudgetClip, frame.phase);
    }
    _wasClamped = clamped;

    if (frame.phase % _spec.decimate != 0)
        return;
    buildRow(frame);
}

void
SignalProbe::modeSwitch(uint64_t phase, Time t, HybridMode target)
{
    WaveformEvent e;
    e.kind = nameOf(ProbeTriggerSpec::On::ModeSwitch);
    e.phase = phase;
    e.t = t;
    e.detail = toString(target);
    _events.push_back(std::move(e));
    fireTrigger(ProbeTriggerSpec::On::ModeSwitch, phase);
}

Waveform
SignalProbe::take()
{
    Waveform w;
    w.signals = _signals;
    w.rows = std::move(_rows);
    w.events = std::move(_events);
    _rows.clear();
    _events.clear();
    _ring.clear();
    return w;
}

} // namespace pdnspot
