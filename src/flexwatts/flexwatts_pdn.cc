#include "flexwatts/flexwatts_pdn.hh"

#include <span>

namespace pdnspot
{

namespace
{

static_assert(ImbvrPdn::railCount + LdoPdn::railCount <=
              PdnDemand::maxRails);

/** IVR-Mode's rails in a FlexWatts demand. */
auto
ivrRails(auto &rails)
{
    return std::span(rails).template first<ImbvrPdn::railCount>();
}

/** LDO-Mode's rails in a FlexWatts demand, after IVR-Mode's. */
auto
ldoRails(auto &rails)
{
    return std::span(rails)
        .template subspan<ImbvrPdn::railCount, LdoPdn::railCount>();
}

} // anonymous namespace

FlexWattsPdn::FlexWattsPdn(PdnPlatformParams platform,
                           FlexWattsParams params)
    : PdnModel(platform),
      _params(params),
      _ivrMode(platform, ImbvrParams{.tob = params.tobIvrMode,
                                     .rllIn = params.rllInIvrMode,
                                     .rllSa = params.rllSa,
                                     .rllIo = params.rllIo}),
      _ldoMode(platform, LdoPdnParams{.tob = params.tobLdoMode,
                                      .rllIn = params.rllInLdoMode,
                                      .rllSa = params.rllSa,
                                      .rllIo = params.rllIo})
{}

PdnDemand
FlexWattsPdn::demand(const PlatformState &state) const
{
    PdnDemand d;
    _ivrMode.demandInto(state, ivrRails(d.rails));
    _ldoMode.demandInto(state, ldoRails(d.rails));
    return d;
}

EteeResult
FlexWattsPdn::deliver(const PdnDemand &d, double ar,
                      HybridMode mode) const
{
    return mode == HybridMode::IvrMode
               ? _ivrMode.deliverFrom(ivrRails(d.rails), ar)
               : _ldoMode.deliverFrom(ldoRails(d.rails), ar);
}

EteeResult
FlexWattsPdn::evaluate(const PlatformState &state, HybridMode mode) const
{
    return mode == HybridMode::IvrMode ? _ivrMode.evaluate(state)
                                       : _ldoMode.evaluate(state);
}

HybridMode
FlexWattsPdn::bestMode(const PdnDemand &d, double ar,
                       EteeResult *winner) const
{
    EteeResult ivr = deliver(d, ar, HybridMode::IvrMode);
    EteeResult ldo = deliver(d, ar, HybridMode::LdoMode);
    // Tie-break toward IVR-Mode, mirroring Algorithm 1's ">=".
    bool ivr_wins = ivr.etee() >= ldo.etee();
    if (winner)
        *winner = ivr_wins ? ivr : ldo;
    return ivr_wins ? HybridMode::IvrMode : HybridMode::LdoMode;
}

HybridMode
FlexWattsPdn::bestMode(const PlatformState &state,
                       EteeResult *winner) const
{
    return bestMode(demand(state), state.ar, winner);
}

EteeResult
FlexWattsPdn::deliver(const PdnDemand &d, double ar) const
{
    EteeResult winner;
    bestMode(d, ar, &winner);
    return winner;
}

std::vector<OffChipRail>
FlexWattsPdn::offChipRails(const PlatformState &peak) const
{
    // V_IN is sized for IVR-Mode current: high-power workloads always
    // run in IVR-Mode, so LDO-Mode never sees more current than the
    // IVR-Mode Iccmax (Sec. 7).
    return _ivrMode.offChipRails(peak);
}

} // namespace pdnspot
