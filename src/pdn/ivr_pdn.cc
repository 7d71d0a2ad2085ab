#include "pdn/ivr_pdn.hh"

#include "pdn/rail_chains.hh"

namespace pdnspot
{

IvrPdn::IvrPdn(PdnPlatformParams platform, IvrPdnParams params)
    : PdnModel(platform),
      _params(params),
      _ivr(IvrParams{.name = "IVR"}),
      _vrIn(BuckParams::motherboard("V_IN")),
      _llIn(params.rllIn)
{}

PdnDemand
IvrPdn::demand(const PlatformState &state) const
{
    ChainContext ctx{_platform, _guardband};
    PdnDemand d;
    d.rails[0] = demandIvrChain(ctx, state, allDomains, _ivr, _params.tob);
    return d;
}

EteeResult
IvrPdn::deliver(const PdnDemand &d, double ar) const
{
    ChainContext ctx{_platform, _guardband};

    // All six domains hang off the single V_IN chain; the input
    // load-line conduction loss is attributed to compute vs uncore
    // by each subset's share of the chain load (Fig. 5 categories).
    ChainResult chain = deliverRail(ctx, d.rails[0], _vrIn, _llIn, ar);
    double compute_share = chain.computeShare();

    EteeResult r;
    r.nominalPower = chain.nominalPower;
    r.inputPower = chain.inputPower;
    r.loss.vrLoss = chain.vrLoss;
    r.loss.conductionCompute = chain.conduction * compute_share;
    r.loss.conductionUncore = chain.conduction * (1.0 - compute_share);
    r.loss.other = chain.guardExcess;
    r.chipInputCurrent = chain.chipCurrent;
    r.computeLoadLine = _params.rllIn;
    return r;
}

std::vector<OffChipRail>
IvrPdn::offChipRails(const PlatformState &peak) const
{
    ChainContext ctx{_platform, _guardband};
    return {
        sizeIvrInputRail(ctx, peak, allDomains, _ivr, "V_IN",
                         _params.tob),
    };
}

} // namespace pdnspot
