#include "flexwatts/pdn_factory.hh"

#include "common/logging.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "pdn/rail_table.hh"

namespace pdnspot
{

std::unique_ptr<PdnModel>
makePdn(PdnKind kind, PdnPlatformParams platform)
{
    switch (kind) {
      case PdnKind::IVR:
        return std::make_unique<RailTablePdn>(ivrRailTable(), platform);
      case PdnKind::MBVR:
        return std::make_unique<RailTablePdn>(mbvrRailTable(), platform);
      case PdnKind::LDO:
        return std::make_unique<RailTablePdn>(ldoRailTable(), platform);
      case PdnKind::IplusMBVR:
        return std::make_unique<RailTablePdn>(imbvrRailTable(), platform);
      case PdnKind::FlexWatts:
        return std::make_unique<FlexWattsPdn>(platform);
    }
    panic("makePdn: invalid PdnKind");
}

} // namespace pdnspot
