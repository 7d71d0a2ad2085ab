#include "pdn/pdn_model.hh"

#include "common/logging.hh"

namespace pdnspot
{

PdnModel::PdnModel(PdnPlatformParams platform)
    : _platform(platform), _guardband()
{
    if (_platform.supplyVoltage <= volts(0.0))
        fatal("PdnModel: non-positive supply voltage");
}

} // namespace pdnspot
