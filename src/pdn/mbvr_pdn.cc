#include "pdn/mbvr_pdn.hh"

#include "pdn/rail_chains.hh"

namespace pdnspot
{

namespace
{

constexpr std::array<DomainId, 3> coresRailDomains = {
    DomainId::Core0, DomainId::Core1, DomainId::LLC,
};
constexpr std::array<DomainId, 1> gfxRailDomains = {DomainId::GFX};
constexpr std::array<DomainId, 1> saRailDomains = {DomainId::SA};
constexpr std::array<DomainId, 1> ioRailDomains = {DomainId::IO};

} // anonymous namespace

MbvrPdn::MbvrPdn(PdnPlatformParams platform, MbvrParams params)
    : PdnModel(platform),
      _params(params),
      _vrCores(BuckParams::motherboard("V_Cores")),
      _vrGfx(BuckParams::motherboard("V_GFX")),
      _vrSa(BuckParams::motherboard("V_SA")),
      _vrIo(BuckParams::motherboard("V_IO")),
      _llCores(params.rllCores),
      _llGfx(params.rllGfx),
      _llSa(params.rllSa),
      _llIo(params.rllIo)
{}

PdnDemand
MbvrPdn::demand(const PlatformState &state) const
{
    ChainContext ctx{_platform, _guardband};
    PdnDemand d;
    d.rails[0] = demandSharedBoardRail(ctx, state, coresRailDomains,
                                       _params.tob, true);
    d.rails[1] = demandSharedBoardRail(ctx, state, gfxRailDomains,
                                       _params.tob, true);
    d.rails[2] = demandSharedBoardRail(ctx, state, saRailDomains,
                                       _params.tob, true);
    d.rails[3] = demandSharedBoardRail(ctx, state, ioRailDomains,
                                       _params.tob, true);
    return d;
}

EteeResult
MbvrPdn::deliver(const PdnDemand &d, double ar) const
{
    ChainContext ctx{_platform, _guardband};
    ChainResult compute = deliverRail(ctx, d.rails[0], _vrCores,
                                      _llCores, ar);
    compute.accumulate(deliverRail(ctx, d.rails[1], _vrGfx, _llGfx, ar));
    ChainResult uncore = deliverRail(ctx, d.rails[2], _vrSa, _llSa, ar);
    uncore.accumulate(deliverRail(ctx, d.rails[3], _vrIo, _llIo, ar));
    return groupResult(compute, uncore, _params.rllCores);
}

std::vector<OffChipRail>
MbvrPdn::offChipRails(const PlatformState &peak) const
{
    ChainContext ctx{_platform, _guardband};
    return {
        sizeSharedBoardRail(ctx, peak, coresRailDomains, "V_Cores",
                            _params.tob, true),
        sizeSharedBoardRail(ctx, peak, gfxRailDomains, "V_GFX",
                            _params.tob, true),
        sizeSharedBoardRail(ctx, peak, saRailDomains, "V_SA",
                            _params.tob, true),
        sizeSharedBoardRail(ctx, peak, ioRailDomains, "V_IO",
                            _params.tob, true),
    };
}

} // namespace pdnspot
