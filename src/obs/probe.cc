#include "obs/probe.hh"

#include <algorithm>
#include <deque>

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

namespace
{

/** One phase's value of each selected signal. */
std::vector<double>
signalValues(const std::vector<ProbeSignal> &signals,
             const PhaseRecord &record, size_t p, double soc)
{
    double supplyW = record.supplyW[p];
    double nominalW = record.nominalW[p];
    const std::optional<LossBreakdown> &loss = record.loss[p];
    std::vector<double> values;
    values.reserve(signals.size());
    for (ProbeSignal s : signals) {
        double v = 0.0;
        switch (s) {
          case ProbeSignal::SupplyPowerW:
            v = supplyW;
            break;
          case ProbeSignal::NominalPowerW:
            v = nominalW;
            break;
          case ProbeSignal::Etee:
            // Same guarded ratio as EteeResult::etee().
            v = supplyW <= 0.0 ? 0.0 : nominalW / supplyW;
            break;
          case ProbeSignal::Mode:
            v = static_cast<double>(record.mode[p]);
            break;
          case ProbeSignal::VrLossW:
            v = loss ? inWatts(loss->vrLoss) : 0.0;
            break;
          case ProbeSignal::ConductionComputeW:
            v = loss ? inWatts(loss->conductionCompute) : 0.0;
            break;
          case ProbeSignal::ConductionUncoreW:
            v = loss ? inWatts(loss->conductionUncore) : 0.0;
            break;
          case ProbeSignal::OtherLossW:
            v = loss ? inWatts(loss->other) : 0.0;
            break;
          case ProbeSignal::BatterySoc:
            v = soc;
            break;
        }
        values.push_back(v);
    }
    return values;
}

} // namespace

Waveform
captureWaveform(const ProbeSpec &spec, const PhaseRecord &record)
{
    spec.validate();
    Waveform w;
    w.signals = spec.selectedSignals();

    // Under a trigger spec, a row waits in the ring until a switch
    // admits it or it falls out of every later switch's lookback.
    const uint64_t window = spec.trigger ? spec.trigger->window : 0;
    bool triggered = false;    // a trigger window is armed
    uint64_t admitThrough = 0; // last phase the window admits
    std::deque<WaveformRow> ring;

    // The battery sees every phase, whatever the probe keeps.
    const Energy capacity = wattHours(spec.batteryWh);
    Energy consumed;
    Time start;
    size_t nextSwitch = 0;
    for (uint64_t p = 0; p < record.phases(); ++p) {
        for (; nextSwitch < record.switches.size() &&
               record.switches[nextSwitch].phase == p;
             ++nextSwitch) {
            const PhaseRecord::Switch &sw = record.switches[nextSwitch];
            w.events.push_back({p, sw.t, toString(sw.target)});
            if (!spec.trigger)
                continue;
            uint64_t lo = p >= window ? p - window : 0;
            while (!ring.empty() && ring.front().phase < lo)
                ring.pop_front();
            for (WaveformRow &row : ring)
                w.rows.push_back(std::move(row));
            ring.clear();
            triggered = true;
            admitThrough = std::max(admitThrough, p + window);
        }

        Time duration = record.duration[p];
        consumed += watts(record.supplyW[p]) * duration;
        if (p % spec.decimate == 0) {
            WaveformRow row;
            row.phase = p;
            row.start = start;
            row.duration = duration;
            row.values = signalValues(
                w.signals, record, p,
                std::max(0.0, 1.0 - consumed / capacity));
            if (!spec.trigger || (triggered && p <= admitThrough)) {
                w.rows.push_back(std::move(row));
            } else {
                ring.push_back(std::move(row));
                while (ring.front().phase + window < p)
                    ring.pop_front();
            }
        }
        start += duration;
    }
    return w;
}

} // namespace pdnspot
