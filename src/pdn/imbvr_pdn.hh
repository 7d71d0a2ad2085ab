/**
 * @file
 * I+MBVR hybrid PDN topology (Intel Skylake-X style, paper Sec. 7).
 *
 * Like the LDO PDN it gives SA and IO dedicated one-stage off-chip
 * VRs; like the IVR PDN it uses integrated buck converters for the
 * compute domains behind a 1.8 V V_IN rail. It removes the IVR PDN's
 * two-stage conversion for the uncore but keeps it for compute.
 */

#ifndef PDNSPOT_PDN_IMBVR_PDN_HH
#define PDNSPOT_PDN_IMBVR_PDN_HH

#include <span>
#include <vector>

#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "vr/buck_vr.hh"
#include "vr/ivr.hh"

namespace pdnspot
{

/** Topology parameters of the I+MBVR PDN. */
struct ImbvrParams
{
    Voltage tob = millivolts(20.0);
    Resistance rllIn = milliohms(1.0);
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** IVR for compute, off-chip VRs for the uncore. */
class ImbvrPdn : public PdnModel
{
  public:
    explicit ImbvrPdn(PdnPlatformParams platform = {},
                      ImbvrParams params = {});

    PdnKind kind() const override { return PdnKind::IplusMBVR; }

    PdnDemand demand(const PlatformState &state) const override;
    EteeResult deliver(const PdnDemand &demand, double ar) const override;

    /** Rails of this topology's demand: compute, V_SA, V_IO. */
    static constexpr size_t railCount = 3;

    /** demand() into a caller's rails (FlexWatts holds two PDNs'). */
    void demandInto(const PlatformState &state,
                    std::span<RailDemand, railCount> rails) const;

    /** deliver() from a caller's rails. */
    EteeResult deliverFrom(std::span<const RailDemand, railCount> rails,
                           double ar) const;

    std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const override;

  private:
    ImbvrParams _params;
    Ivr _ivr;
    BuckVr _vrIn;
    BuckVr _vrSa;
    BuckVr _vrIo;
    LoadLine _llIn;
    LoadLine _llSa;
    LoadLine _llIo;
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_IMBVR_PDN_HH
