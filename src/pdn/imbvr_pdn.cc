#include "pdn/imbvr_pdn.hh"

#include "pdn/rail_chains.hh"

namespace pdnspot
{

namespace
{

constexpr std::array<DomainId, 1> saRailDomains = {DomainId::SA};
constexpr std::array<DomainId, 1> ioRailDomains = {DomainId::IO};

} // anonymous namespace

ImbvrPdn::ImbvrPdn(PdnPlatformParams platform, ImbvrParams params)
    : PdnModel(platform),
      _params(params),
      _ivr(IvrParams{.name = "IVR"}),
      _vrIn(BuckParams::motherboard("V_IN")),
      _vrSa(BuckParams::motherboard("V_SA")),
      _vrIo(BuckParams::motherboard("V_IO")),
      _llIn(params.rllIn),
      _llSa(params.rllSa),
      _llIo(params.rllIo)
{}

PdnDemand
ImbvrPdn::demand(const PlatformState &state) const
{
    PdnDemand d;
    demandInto(state, std::span(d.rails).first<railCount>());
    return d;
}

EteeResult
ImbvrPdn::deliver(const PdnDemand &d, double ar) const
{
    return deliverFrom(std::span(d.rails).first<railCount>(), ar);
}

void
ImbvrPdn::demandInto(const PlatformState &state,
                     std::span<RailDemand, railCount> rails) const
{
    ChainContext ctx{_platform, _guardband};
    rails[0] = demandIvrChain(ctx, state, computeDomains, _ivr,
                              _params.tob);
    rails[1] = demandSharedBoardRail(ctx, state, saRailDomains,
                                     _params.tob, true);
    rails[2] = demandSharedBoardRail(ctx, state, ioRailDomains,
                                     _params.tob, true);
}

EteeResult
ImbvrPdn::deliverFrom(std::span<const RailDemand, railCount> rails,
                      double ar) const
{
    ChainContext ctx{_platform, _guardband};
    ChainResult compute = deliverRail(ctx, rails[0], _vrIn, _llIn, ar);
    ChainResult uncore = deliverRail(ctx, rails[1], _vrSa, _llSa, ar);
    uncore.accumulate(deliverRail(ctx, rails[2], _vrIo, _llIo, ar));
    return groupResult(compute, uncore, _params.rllIn);
}

std::vector<OffChipRail>
ImbvrPdn::offChipRails(const PlatformState &peak) const
{
    ChainContext ctx{_platform, _guardband};
    return {
        sizeIvrInputRail(ctx, peak, computeDomains, _ivr, "V_IN",
                         _params.tob),
        sizeSharedBoardRail(ctx, peak, saRailDomains, "V_SA",
                            _params.tob, true),
        sizeSharedBoardRail(ctx, peak, ioRailDomains, "V_IO",
                            _params.tob, true),
    };
}

} // namespace pdnspot
