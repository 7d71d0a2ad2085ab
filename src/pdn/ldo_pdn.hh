/**
 * @file
 * LDO PDN topology, paper Fig. 1(c).
 *
 * The AMD-Zen-style PDN: a shared off-chip V_IN VR set to the maximum
 * compute-domain voltage feeds per-domain on-die LDO VRs (bypass for
 * the max-voltage domain, linear regulation for the rest); SA and IO
 * get dedicated one-stage off-chip VRs behind on-chip power gates.
 * Modeled per Sec. 3.1's "LDO PDN Power Modeling" (Eq. 10-12).
 */

#ifndef PDNSPOT_PDN_LDO_PDN_HH
#define PDNSPOT_PDN_LDO_PDN_HH

#include <span>
#include <vector>

#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "vr/buck_vr.hh"
#include "vr/ldo_vr.hh"

namespace pdnspot
{

/** Topology parameters of the LDO PDN (Table 2 column "LDO"). */
struct LdoPdnParams
{
    Voltage tob = millivolts(17.0);       ///< TOB 16-18 mV
    Resistance rllIn = milliohms(1.25);   ///< shared V_IN load-line
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** The two-stage on-die-LDO PDN. */
class LdoPdn : public PdnModel
{
  public:
    explicit LdoPdn(PdnPlatformParams platform = {},
                    LdoPdnParams params = {});

    PdnKind kind() const override { return PdnKind::LDO; }

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
    LdoPdnParams _params;
    LdoVr _ldo;      ///< coefficients shared by the four on-die LDOs
    BuckVr _vrIn;
    BuckVr _vrSa;
    BuckVr _vrIo;
    LoadLine _llIn;
    LoadLine _llSa;
    LoadLine _llIo;
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_LDO_PDN_HH
