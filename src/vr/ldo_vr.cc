#include "vr/ldo_vr.hh"

#include "common/logging.hh"

namespace pdnspot
{

LdoVr::LdoVr(LdoParams params)
    : _params(std::move(params))
{
    if (_params.currentEfficiency <= 0.0 ||
        _params.currentEfficiency > 1.0) {
        fatal(strprintf("LdoVr %s: current efficiency %.3f outside "
                        "(0, 1]", _params.name.c_str(),
                        _params.currentEfficiency));
    }
}

LdoMode
LdoVr::modeFor(Voltage vin, Voltage vout) const
{
    if (vout <= volts(0.0))
        return LdoMode::PowerGate;
    if (vout + _params.dropout <= vin)
        return LdoMode::Regulation;
    // The domain wants (nearly) the input voltage: connect through.
    return LdoMode::Bypass;
}

double
LdoVr::efficiency(Voltage vin, Voltage vout) const
{
    if (vin <= volts(0.0)) {
        fatal(strprintf("LdoVr %s: non-positive input voltage",
                        _params.name.c_str()));
    }
    switch (modeFor(vin, vout)) {
      case LdoMode::PowerGate:
        return 0.0;
      case LdoMode::Bypass:
        return _params.currentEfficiency;
      case LdoMode::Regulation:
        if (vout > vin) {
            fatal(strprintf("LdoVr %s: cannot up-convert %.3fV -> %.3fV",
                            _params.name.c_str(), inVolts(vin),
                            inVolts(vout)));
        }
        return (vout / vin) * _params.currentEfficiency;
    }
    panic("LdoVr::efficiency: invalid mode");
}

Power
LdoVr::inputPower(Voltage vin, Voltage vout, Power pout) const
{
    if (pout <= watts(0.0))
        return watts(0.0);
    double eta = efficiency(vin, vout);
    if (eta <= 0.0) {
        fatal(strprintf("LdoVr %s: power requested through a gated LDO",
                        _params.name.c_str()));
    }
    return pout / eta;
}

Power
LdoVr::loss(Voltage vin, Voltage vout, Power pout) const
{
    return inputPower(vin, vout, pout) - pout;
}

} // namespace pdnspot
