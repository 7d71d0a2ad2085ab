#include "power/operating_point.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

// Leakage fractions at the reference operating point (paper Sec. 3.1,
// following Rusu et al., ISSCC 2014).
constexpr double flGfx = 0.45;
constexpr double flOther = 0.22;

// Uncore rails: fixed-frequency domains with narrow power ranges.
constexpr double saVoltageV = 0.85;
constexpr double ioVoltageV = 1.05;
constexpr double saActivePowerW = 0.55;
constexpr double ioActivePowerW = 0.45;

// Share of the multi-thread cores budget a single-thread workload
// burns (one core at turbo frequency, the sibling gated).
constexpr double singleThreadShare = 0.62;
constexpr double singleThreadTurbo = 1.15;

// Share of the cores budget CPU cores keep during graphics workloads
// (paper Sec. 7.1: 10-20% of the budget goes to the cores).
constexpr double graphicsCoreShare = 0.15;

// Cores run at a low-but-nonzero clock while feeding the GFX pipeline.
constexpr double graphicsCoreFreqGhz = 1.2;

// The LLC serves high-bandwidth GFX traffic during graphics workloads
// and so runs at an elevated frequency/voltage tied to the GFX rail
// (paper Sec. 7.1), never below the core voltage plane it shares.
constexpr double graphicsLlcGfxVoltageRatio = 0.9;

// Battery-life C-state anchor loads (paper Sec. 5, Observation 3),
// characterized at Tj = 50 C.
struct CStateLoads
{
    double coresW;
    double llcW;
    double gfxW;
    double saW;
    double ioW;
};

const CStateLoads &
cstateLoads(PackageCState state)
{
    // Totals: C0MIN 2.5 W, C2 1.2 W, C3 0.8 W, C6 0.4 W, C7 0.25 W,
    // C8 0.13 W, matching the paper's video-playback example and the
    // Fig. 4j power-state ladder.
    static const CStateLoads c0min{0.90, 0.25, 0.35, 0.55, 0.45};
    static const CStateLoads c2{0.0, 0.08, 0.0, 0.66, 0.46};
    static const CStateLoads c3{0.0, 0.0, 0.0, 0.47, 0.33};
    static const CStateLoads c6{0.0, 0.0, 0.0, 0.26, 0.14};
    static const CStateLoads c7{0.0, 0.0, 0.0, 0.165, 0.085};
    static const CStateLoads c8{0.0, 0.0, 0.0, 0.095, 0.035};
    switch (state) {
      case PackageCState::C0Min:
        return c0min;
      case PackageCState::C2:
        return c2;
      case PackageCState::C3:
        return c3;
      case PackageCState::C6:
        return c6;
      case PackageCState::C7:
        return c7;
      case PackageCState::C8:
        return c8;
      case PackageCState::C0:
        break;
    }
    panic("cstateLoads: C0 has no C-state load table");
}

constexpr double batteryTjC = 50.0;
constexpr double cstateAr = 0.30;

} // anonymous namespace

OperatingPointModel::OperatingPointModel()
    : _coreVf(VfCurve::cores()),
      _gfxVf(VfCurve::graphics()),
      _leakage(),
      // Table 2 nominal-power anchors across the 4-50 W TDP range.
      _coresNom({{4.0, 0.60}, {8.0, 1.80}, {10.0, 2.50}, {18.0, 7.00},
                 {25.0, 12.0}, {36.0, 20.0}, {50.0, 30.0}}),
      _llcNom({{4.0, 0.50}, {8.0, 0.80}, {10.0, 1.00}, {18.0, 1.80},
               {25.0, 2.40}, {36.0, 3.20}, {50.0, 4.00}}),
      _gfxNom({{4.0, 0.58}, {8.0, 1.90}, {10.0, 2.60}, {18.0, 7.20},
               {25.0, 12.3}, {36.0, 20.3}, {50.0, 29.4}}),
      // Baseline sustained frequencies per TDP (Sec. 7.1: 0.9 GHz
      // cores at 4 W; Table 1 ranges).
      _coreFreq({{4.0, 0.9}, {8.0, 1.6}, {10.0, 1.9}, {18.0, 2.7},
                 {25.0, 3.1}, {36.0, 3.6}, {50.0, 4.0}}),
      _gfxFreq({{4.0, 0.40}, {8.0, 0.55}, {10.0, 0.65}, {18.0, 0.85},
                {25.0, 0.95}, {36.0, 1.10}, {50.0, 1.20}})
{}

Frequency
OperatingPointModel::coreBaseFrequency(Power tdp) const
{
    return gigahertz(_coreFreq.at(inWatts(tdp)));
}

Frequency
OperatingPointModel::gfxBaseFrequency(Power tdp) const
{
    return gigahertz(_gfxFreq.at(inWatts(tdp)));
}

Celsius
OperatingPointModel::defaultTj(Power tdp) const
{
    // Fan-less policy of Sec. 7.1: Tj 80 C for 4-8 W, 100 C above.
    return tdp <= watts(8.0) ? Celsius(80.0) : Celsius(100.0);
}

Power
OperatingPointModel::coresNominal(Power tdp) const
{
    return watts(_coresNom.at(inWatts(tdp)));
}

Power
OperatingPointModel::llcNominal(Power tdp) const
{
    return watts(_llcNom.at(inWatts(tdp)));
}

Power
OperatingPointModel::gfxNominal(Power tdp) const
{
    return watts(_gfxNom.at(inWatts(tdp)));
}

DomainState
OperatingPointModel::makeDomain(Power base_power, Voltage voltage,
                                double leak_fraction, double thermal_scale,
                                Frequency freq) const
{
    DomainState d;
    d.active = true;
    d.voltage = voltage;
    d.frequency = freq;

    // The power-budget governor keeps a domain near its TDP-anchored
    // envelope regardless of the workload's AR (a low-AR workload just
    // sustains a higher clock), so PNOM does not scale with AR; the AR
    // enters the PDN model only through the load-line peak power
    // Ppeak = PD / AR (Eq. 3). Leakage does follow temperature.
    double leak = leak_fraction * thermal_scale;
    double dyn = 1.0 - leak_fraction;
    d.nominalPower = base_power * (leak + dyn);
    d.leakageFraction = (leak + dyn) > 0.0 ? leak / (leak + dyn) : 0.0;
    return d;
}

void
OperatingPointModel::scaleFrequency(DomainState &d, const VfCurve &vf,
                                    double multiplier) const
{
    if (multiplier == 1.0 || !d.active)
        return;
    Frequency f0 = d.frequency;
    Frequency f1 = vf.clamp(f0 * multiplier);
    Voltage v0 = d.voltage;
    Voltage v1 = vf.voltageAt(f1);

    double dyn0 = (1.0 - d.leakageFraction);
    double leak0 = d.leakageFraction;
    double dyn1 = dyn0 * (f1 / f0) *
                  LeakageModel::dynamicVoltageScale(v0, v1);
    double leak1 = leak0 * _leakage.voltageScale(v0, v1);

    d.nominalPower = d.nominalPower * (dyn1 + leak1);
    d.leakageFraction = leak1 / (dyn1 + leak1);
    d.voltage = v1;
    d.frequency = f1;
}

void
OperatingPointModel::validate(const Query &q) const
{
    if (q.tdp < minTdp() || q.tdp > maxTdp()) {
        fatal(strprintf("OperatingPointModel: TDP %.1fW outside the "
                        "supported 4-50W range", inWatts(q.tdp)));
    }
    if (q.freqMultiplier <= 0.0)
        fatal("OperatingPointModel: frequency multiplier must be > 0");

    if (q.cstate == PackageCState::C0) {
        // Only active states consume the workload AR; gated states
        // pin their own (cstateAr), so an idle phase may carry any
        // AR a trace importer put in its column — including an
        // exact 0.
        if (q.ar <= 0.0 || q.ar > 1.0)
            fatal("OperatingPointModel: AR must be in (0, 1]");
    }
}

PlatformState
OperatingPointModel::build(const Query &q) const
{
    validate(q);
    return q.cstate == PackageCState::C0 ? buildActive(q) : buildCState(q);
}

PlatformState
OperatingPointModel::buildActive(const Query &q) const
{
    PlatformState s;
    s.tdp = q.tdp;
    s.workloadType = q.type;
    s.ar = q.ar;
    s.cstate = PackageCState::C0;
    s.tj = q.tj.value_or(defaultTj(q.tdp));

    double thermal =
        _leakage.thermalScale(defaultTj(q.tdp), s.tj);

    Power cores_nom = coresNominal(q.tdp);
    Power llc_nom = llcNominal(q.tdp);
    Frequency fcore = coreBaseFrequency(q.tdp);
    Voltage vcore = _coreVf.voltageAt(fcore);

    switch (q.type) {
      case WorkloadType::SingleThread: {
        Frequency f = _coreVf.clamp(fcore * singleThreadTurbo);
        Voltage v = _coreVf.voltageAt(f);
        s.domain(DomainId::Core0) =
            makeDomain(cores_nom * singleThreadShare, v, flOther,
                       thermal, f);
        s.domain(DomainId::Core1).active = false;
        s.domain(DomainId::LLC) =
            makeDomain(llc_nom, v, flOther, thermal, Frequency());
        s.domain(DomainId::GFX).active = false;
        break;
      }
      case WorkloadType::MultiThread:
      case WorkloadType::BatteryLife: {
        s.domain(DomainId::Core0) =
            makeDomain(cores_nom * 0.5, vcore, flOther, thermal,
                       fcore);
        s.domain(DomainId::Core1) =
            makeDomain(cores_nom * 0.5, vcore, flOther, thermal,
                       fcore);
        s.domain(DomainId::LLC) =
            makeDomain(llc_nom, vcore, flOther, thermal,
                       Frequency());
        s.domain(DomainId::GFX).active = false;
        break;
      }
      case WorkloadType::Graphics: {
        Frequency fcore_gfx = _coreVf.clamp(gigahertz(graphicsCoreFreqGhz));
        Voltage vcore_gfx = _coreVf.voltageAt(fcore_gfx);
        Power core_part = cores_nom * graphicsCoreShare;
        s.domain(DomainId::Core0) =
            makeDomain(core_part * 0.5, vcore_gfx, flOther,
                       thermal, fcore_gfx);
        s.domain(DomainId::Core1) =
            makeDomain(core_part * 0.5, vcore_gfx, flOther,
                       thermal, fcore_gfx);
        Frequency fgfx = gfxBaseFrequency(q.tdp);
        Voltage vgfx = _gfxVf.voltageAt(fgfx);
        Voltage vllc =
            std::max(vcore_gfx, vgfx * graphicsLlcGfxVoltageRatio);
        s.domain(DomainId::LLC) =
            makeDomain(llc_nom, vllc, flOther, thermal,
                       Frequency());
        s.domain(DomainId::GFX) =
            makeDomain(gfxNominal(q.tdp), vgfx, flGfx, thermal,
                       fgfx);
        break;
      }
    }

    s.domain(DomainId::SA) =
        makeDomain(watts(saActivePowerW), volts(saVoltageV), flOther,
                   thermal, Frequency());
    s.domain(DomainId::IO) =
        makeDomain(watts(ioActivePowerW), volts(ioVoltageV), flOther,
                   thermal, Frequency());
    // SA/IO power does not scale with the workload's AR (Sec. 6).

    if (q.freqMultiplier != 1.0) {
        if (q.type == WorkloadType::Graphics) {
            scaleFrequency(s.domain(DomainId::GFX), _gfxVf,
                           q.freqMultiplier);
        } else {
            scaleFrequency(s.domain(DomainId::Core0), _coreVf,
                           q.freqMultiplier);
            scaleFrequency(s.domain(DomainId::Core1), _coreVf,
                           q.freqMultiplier);
            // The LLC design point tracks the core voltage domain
            // (Rotem et al., MICRO 2009).
            DomainState &llc = s.domain(DomainId::LLC);
            const DomainState &c0 = s.domain(DomainId::Core0);
            if (llc.active && c0.active &&
                q.type != WorkloadType::Graphics) {
                Voltage v0 = llc.voltage;
                Voltage v1 = c0.voltage;
                double dyn = (1.0 - llc.leakageFraction) *
                             LeakageModel::dynamicVoltageScale(v0, v1);
                double leak = llc.leakageFraction *
                              _leakage.voltageScale(v0, v1);
                llc.nominalPower = llc.nominalPower * (dyn + leak);
                llc.leakageFraction = leak / (dyn + leak);
                llc.voltage = v1;
            }
        }
    }
    return s;
}

PlatformState
OperatingPointModel::buildCState(const Query &q) const
{
    PlatformState s;
    s.tdp = q.tdp;
    s.workloadType = WorkloadType::BatteryLife;
    s.ar = cstateAr;
    s.cstate = q.cstate;
    s.tj = q.tj.value_or(Celsius(batteryTjC));

    double thermal = _leakage.thermalScale(Celsius(batteryTjC), s.tj);
    const CStateLoads &loads = cstateLoads(q.cstate);

    Frequency fmin = _coreVf.fmin();
    Voltage vcore_min = _coreVf.voltageAt(fmin);
    Frequency gmin = _gfxVf.fmin();
    Voltage vgfx_min = _gfxVf.voltageAt(gmin);

    auto fill = [&](DomainId id, double power_w, Voltage v, double fl,
                    Frequency f) {
        if (power_w <= 0.0) {
            s.domain(id).active = false;
            return;
        }
        s.domain(id) = makeDomain(watts(power_w), v, fl, thermal, f);
    };

    fill(DomainId::Core0, loads.coresW * 0.5, vcore_min, flOther, fmin);
    fill(DomainId::Core1, loads.coresW * 0.5, vcore_min, flOther, fmin);
    fill(DomainId::LLC, loads.llcW, vcore_min, flOther, Frequency());
    fill(DomainId::GFX, loads.gfxW, vgfx_min, flGfx, gmin);
    fill(DomainId::SA, loads.saW, volts(0.75), flOther, Frequency());
    fill(DomainId::IO, loads.ioW, volts(ioVoltageV), flOther,
         Frequency());
    return s;
}

} // namespace pdnspot
