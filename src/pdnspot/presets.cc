/**
 * @file
 * Named PlatformConfig presets for the three client power classes the
 * paper evaluates (Sec. 7.1): a 4 W fan-less tablet, the 15 W
 * ultraportable reference platform, and a 45 W H-series performance
 * notebook. Campaigns (src/campaign/) sweep these alongside PDN
 * kinds so one run covers the platform axis of Figs. 7/8.
 */

#include "pdnspot/platform.hh"

#include "common/logging.hh"

namespace pdnspot
{

PlatformConfig
fanlessTabletPreset()
{
    PlatformConfig cfg;
    cfg.name = "fanless-tablet-4w";
    cfg.tdp = watts(4.0);
    // 2S li-ion pack at the nominal 7.2 V the paper's Table 2 uses.
    cfg.pdnParams.supplyVoltage = volts(7.2);
    return cfg;
}

PlatformConfig
ultraportablePreset()
{
    PlatformConfig cfg;
    cfg.name = "ultraportable-15w";
    cfg.tdp = watts(15.0);
    // The paper's reference platform: keep the 7.2 V Table 2 rail so
    // campaigns on this preset reproduce the published figures.
    cfg.pdnParams.supplyVoltage = volts(7.2);
    return cfg;
}

PlatformConfig
hSeriesPreset()
{
    PlatformConfig cfg;
    cfg.name = "h-series-45w";
    cfg.tdp = watts(45.0);
    // 3S pack: higher rail keeps input current manageable at 45 W.
    cfg.pdnParams.supplyVoltage = volts(11.4);
    return cfg;
}

const std::vector<PlatformConfig> &
allPlatformPresets()
{
    static const std::vector<PlatformConfig> presets = {
        fanlessTabletPreset(),
        ultraportablePreset(),
        hSeriesPreset(),
    };
    return presets;
}

PlatformConfig
platformPresetByName(const std::string &name)
{
    return parseName(allPlatformPresets(), name, "platform preset");
}

} // namespace pdnspot
