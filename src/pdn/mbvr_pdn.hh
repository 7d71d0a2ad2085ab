/**
 * @file
 * Motherboard-VR (MBVR) PDN topology, paper Fig. 1(b).
 *
 * One-stage conversion: four off-chip buck VRs (V_Cores feeding both
 * cores and the LLC, V_GFX, V_SA, V_IO) and six on-chip power gates.
 * Modeled per Sec. 3.1's "MBVR PDN Power Modeling" (Eq. 2-5).
 */

#ifndef PDNSPOT_PDN_MBVR_PDN_HH
#define PDNSPOT_PDN_MBVR_PDN_HH

#include <vector>

#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "vr/buck_vr.hh"

namespace pdnspot
{

/** Topology parameters of the MBVR PDN (Table 2 column "MBVR"). */
struct MbvrParams
{
    Voltage tob = millivolts(19.0);          ///< TOB 18-20 mV
    Resistance rllCores = milliohms(2.5);
    Resistance rllGfx = milliohms(2.5);
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** The traditional one-stage motherboard-VR PDN. */
class MbvrPdn : public PdnModel
{
  public:
    explicit MbvrPdn(PdnPlatformParams platform = {},
                     MbvrParams params = {});

    PdnKind kind() const override { return PdnKind::MBVR; }

    PdnDemand demand(const PlatformState &state) const override;
    EteeResult deliver(const PdnDemand &demand, double ar) const override;

    std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const override;

  private:
    MbvrParams _params;
    BuckVr _vrCores;
    BuckVr _vrGfx;
    BuckVr _vrSa;
    BuckVr _vrIo;
    LoadLine _llCores;
    LoadLine _llGfx;
    LoadLine _llSa;
    LoadLine _llIo;
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_MBVR_PDN_HH
