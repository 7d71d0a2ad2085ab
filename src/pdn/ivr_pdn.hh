/**
 * @file
 * Integrated-VR (IVR) PDN topology, paper Fig. 1(a).
 *
 * Two-stage conversion: a single off-chip V_IN VR at ~1.8 V feeds six
 * per-domain integrated buck converters. The state-of-the-art PDN of
 * Intel's 4th/5th/10th-gen Core parts and the paper's baseline.
 * Modeled per Sec. 3.1's "IVR PDN Power Modeling" (Eq. 6-9).
 */

#ifndef PDNSPOT_PDN_IVR_PDN_HH
#define PDNSPOT_PDN_IVR_PDN_HH

#include <vector>

#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "vr/buck_vr.hh"
#include "vr/ivr.hh"

namespace pdnspot
{

/** Topology parameters of the IVR PDN (Table 2 column "IVR"). */
struct IvrPdnParams
{
    Voltage tob = millivolts(20.0);       ///< TOB 18-22 mV
    Resistance rllIn = milliohms(1.0);    ///< input load-line
};

/** The two-stage fully-integrated-VR PDN. */
class IvrPdn : public PdnModel
{
  public:
    explicit IvrPdn(PdnPlatformParams platform = {},
                    IvrPdnParams params = {});

    PdnKind kind() const override { return PdnKind::IVR; }

    PdnDemand demand(const PlatformState &state) const override;
    EteeResult deliver(const PdnDemand &demand, double ar) const override;

    std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const override;

  private:
    IvrPdnParams _params;
    Ivr _ivr;        ///< loss coefficients shared by all six IVRs
    BuckVr _vrIn;    ///< first-stage V_IN VR
    LoadLine _llIn;
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_IVR_PDN_HH
