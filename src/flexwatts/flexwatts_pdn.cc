#include "flexwatts/flexwatts_pdn.hh"

namespace pdnspot
{

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

EteeResult
FlexWattsPdn::evaluate(const PlatformState &state, HybridMode mode) const
{
    return mode == HybridMode::IvrMode ? _ivrMode.evaluate(state)
                                       : _ldoMode.evaluate(state);
}

HybridMode
FlexWattsPdn::bestMode(const PlatformState &state,
                       EteeResult *winner) const
{
    EteeResult ivr = _ivrMode.evaluate(state);
    EteeResult ldo = _ldoMode.evaluate(state);
    // Tie-break toward IVR-Mode, mirroring Algorithm 1's ">=".
    bool ivr_wins = ivr.etee() >= ldo.etee();
    if (winner)
        *winner = ivr_wins ? ivr : ldo;
    return ivr_wins ? HybridMode::IvrMode : HybridMode::LdoMode;
}

EteeResult
FlexWattsPdn::evaluate(const PlatformState &state) const
{
    EteeResult winner;
    bestMode(state, &winner);
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
