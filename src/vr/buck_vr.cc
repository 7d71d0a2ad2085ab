#include "vr/buck_vr.hh"

#include <cstddef>

#include "common/logging.hh"

namespace pdnspot
{

BuckParams
BuckParams::motherboard(const std::string &rail_name)
{
    // Coefficients calibrated so the efficiency curves land in the
    // 72%-93% envelope of Table 2 with the Fig. 3 shape: ~90% peak in
    // PS0 at mid current, light-load rolloff in PS0, and a PS1/PS3/PS4
    // ladder that keeps light-load efficiency high.
    BuckParams p;
    p.name = rail_name;
    p.minHeadroom = volts(0.6);
    p.states = {
        // PS0: all phases, full current.
        BuckStateParams{milliwatts(45.0), 0.008, milliohms(8.0),
                        amps(80.0)},
        // PS1: single phase.
        BuckStateParams{milliwatts(4.0), 0.012, milliohms(30.0),
                        amps(3.0)},
        // PS3: pulse skipping.
        BuckStateParams{milliwatts(0.8), 0.020, milliohms(120.0),
                        amps(0.5)},
        // PS4: standby.
        BuckStateParams{milliwatts(0.15), 0.030, milliohms(400.0),
                        amps(0.1)},
    };
    return p;
}

BuckVr::BuckVr(BuckParams params)
    : _params(std::move(params))
{
    Current prev_ceiling = _params.states[0].maxCurrent;
    for (size_t i = 1; i < _params.states.size(); ++i) {
        if (_params.states[i].maxCurrent > prev_ceiling) {
            fatal(strprintf("BuckVr %s: state current ceilings must be "
                            "non-increasing from PS0",
                            _params.name.c_str()));
        }
        prev_ceiling = _params.states[i].maxCurrent;
    }
}

namespace
{

/** The loss decomposition of one state, without the range checks. */
Power
stateLoss(const BuckStateParams &s, Voltage vin, Current iout)
{
    Power switching = watts(s.switchingCoeff * inVolts(vin) * inAmps(iout));
    Power conduction = watts(inAmps(iout) * inAmps(iout) *
                             s.conduction.value());
    return s.quiescent + switching + conduction;
}

} // namespace

size_t
BuckVr::index(VrPowerState ps)
{
    return static_cast<size_t>(ps);
}

const BuckStateParams &
BuckVr::stateParams(VrPowerState ps) const
{
    return _params.states[index(ps)];
}

bool
BuckVr::canConvert(Voltage vin, Voltage vout) const
{
    return vin >= vout + _params.minHeadroom;
}

void
BuckVr::checkHeadroom(Voltage vin, Voltage vout) const
{
    if (!canConvert(vin, vout)) {
        fatal(strprintf("BuckVr %s: insufficient headroom "
                        "(Vin=%.3fV, Vout=%.3fV, min headroom %.3fV)",
                        _params.name.c_str(), inVolts(vin), inVolts(vout),
                        inVolts(_params.minHeadroom)));
    }
}

Power
BuckVr::loss(Voltage vin, Voltage vout, Current iout,
             VrPowerState ps) const
{
    checkHeadroom(vin, vout);
    if (iout < amps(0.0)) {
        fatal(strprintf("BuckVr %s: negative load current",
                        _params.name.c_str()));
    }
    const BuckStateParams &s = stateParams(ps);
    if (iout > s.maxCurrent) {
        fatal(strprintf("BuckVr %s: %.2fA exceeds %s ceiling %.2fA",
                        _params.name.c_str(), inAmps(iout),
                        nameOf(ps), inAmps(s.maxCurrent)));
    }
    return stateLoss(s, vin, iout);
}

double
BuckVr::efficiency(Voltage vin, Voltage vout, Current iout,
                   VrPowerState ps) const
{
    Power pout = vout * iout;
    if (pout <= watts(0.0))
        return 0.0;
    return pout / (pout + loss(vin, vout, iout, ps));
}

std::optional<VrPowerState>
BuckVr::bestState(Voltage vin, Voltage vout, Current iout) const
{
    std::optional<VrPowerState> best;
    Power best_loss = watts(0.0);
    for (VrPowerState ps : allVrPowerStates) {
        if (iout > stateParams(ps).maxCurrent)
            continue;
        Power l = loss(vin, vout, iout, ps);
        if (!best || l < best_loss) {
            best = ps;
            best_loss = l;
        }
    }
    return best;
}

double
BuckVr::efficiencyAuto(Voltage vin, Voltage vout, Current iout) const
{
    if (iout <= amps(0.0))
        return 0.0;
    // bestState and efficiency() in one pass: the range checks once,
    // then the least loss over the feasible states (the first minimum
    // in state order, as bestState picks), then Eq. 1.
    if (iout > stateParams(VrPowerState::PS0).maxCurrent) {
        fatal(strprintf("BuckVr %s: %.2fA exceeds the PS0 ceiling; "
                        "the rail is under-sized for this load",
                        _params.name.c_str(), inAmps(iout)));
    }
    checkHeadroom(vin, vout);
    std::optional<Power> best;
    for (const BuckStateParams &s : _params.states) {
        if (iout > s.maxCurrent)
            continue;
        Power l = stateLoss(s, vin, iout);
        if (!best || l < *best)
            best = l;
    }
    Power pout = vout * iout;
    if (pout <= watts(0.0))
        return 0.0;
    return pout / (pout + *best);
}

Power
BuckVr::inputPower(Voltage vin, Voltage vout, Power pout) const
{
    if (pout <= watts(0.0))
        return watts(0.0);
    Current iout = pout / vout;
    double eta = efficiencyAuto(vin, vout, iout);
    if (eta <= 0.0) {
        panic(strprintf("BuckVr %s: non-positive efficiency at "
                        "Pout=%.3fW", _params.name.c_str(),
                        inWatts(pout)));
    }
    return pout / eta;
}

} // namespace pdnspot
