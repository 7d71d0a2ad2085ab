#include "flexwatts/flexwatts_pdn.hh"

namespace pdnspot
{

namespace
{

/** LDO-Mode's table, its rails after IVR-Mode's in a demand. */
RailTable
ldoModeTable(const FlexWattsParams &p)
{
    RailTable t = ldoRailTable({.tob = p.tobLdoMode,
                                .rllIn = p.rllInLdoMode,
                                .rllSa = p.rllSa,
                                .rllIo = p.rllIo});
    t.firstRail = 3; // after IVR-Mode's V_IN, V_SA and V_IO
    return t;
}

} // anonymous namespace

FlexWattsPdn::FlexWattsPdn(PdnPlatformParams platform,
                           FlexWattsParams params)
    : PdnModel(platform),
      _params(params),
      _ivrMode(imbvrRailTable({.tob = params.tobIvrMode,
                               .rllIn = params.rllInIvrMode,
                               .rllSa = params.rllSa,
                               .rllIo = params.rllIo}),
               platform),
      _ldoMode(ldoModeTable(params), platform)
{}

PdnDemand
FlexWattsPdn::demand(const PlatformState &state) const
{
    PdnDemand d;
    _ivrMode.demand(state, d);
    _ldoMode.demand(state, d);
    return d;
}

EteeResult
FlexWattsPdn::deliver(const PdnDemand &d, double ar,
                      HybridMode mode) const
{
    return mode == HybridMode::IvrMode ? _ivrMode.deliver(d, ar)
                                       : _ldoMode.deliver(d, ar);
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
