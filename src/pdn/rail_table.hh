/**
 * @file
 * The static PDN topologies as rail tables, and the one model that
 * runs them.
 *
 * Paper Sec. 3.1 models every PDN with one pipeline: guardband
 * (Eq. 2), power gate, on-die VR, load-line (Eq. 3/4, 7/8) and board
 * VR. Only the rail list differs between topologies, so each topology
 * is a RailTable with one row per off-chip rail, and RailTablePdn
 * walks the rows in table order for demand, delivery and sizing
 * (pdn/rail_chains.hh holds the per-stage functions it calls).
 *
 * The four tables below are Fig. 1's IVR, MBVR and LDO PDNs and the
 * Skylake-X I+MBVR PDN of Sec. 7. FlexWatts (flexwatts/flexwatts_pdn.hh)
 * runs two of them: IVR-Mode is the I+MBVR table and LDO-Mode the LDO
 * table, each at FlexWatts' own TOB and load-lines (Sec. 6).
 */

#ifndef PDNSPOT_PDN_RAIL_TABLE_HH
#define PDNSPOT_PDN_RAIL_TABLE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "vr/buck_vr.hh"
#include "vr/ivr.hh"
#include "vr/ldo_vr.hh"

namespace pdnspot
{

/** Topology parameters of the IVR PDN (Table 2 column "IVR"). */
struct IvrPdnParams
{
    Voltage tob = millivolts(20.0);       ///< TOB 18-22 mV
    Resistance rllIn = milliohms(1.0);    ///< input load-line
};

/** Topology parameters of the MBVR PDN (Table 2 column "MBVR"). */
struct MbvrParams
{
    Voltage tob = millivolts(19.0);          ///< TOB 18-20 mV
    Resistance rllCores = milliohms(2.5);
    Resistance rllGfx = milliohms(2.5);
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** Topology parameters of the LDO PDN (Table 2 column "LDO"). */
struct LdoPdnParams
{
    Voltage tob = millivolts(17.0);       ///< TOB 16-18 mV
    Resistance rllIn = milliohms(1.25);   ///< shared V_IN load-line
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** Topology parameters of the I+MBVR PDN. */
struct ImbvrParams
{
    Voltage tob = millivolts(20.0);
    Resistance rllIn = milliohms(1.0);
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/** The on-die stage between a rail's board VR and its domains. */
enum class OnDieStage
{
    None, ///< board rail to the domains' power gates (Eq. 2-5)
    Ivr,  ///< per-domain integrated buck behind V_IN (Eq. 6-9)
    Ldo,  ///< per-domain LDO behind V_IN (Eq. 10-12)
};

/** The Fig. 5 category a rail's load-line conduction loss counts as. */
enum class ConductionGroup
{
    Compute,
    Uncore,
    /** Split by the compute domains' share of the rail's load. */
    ByLoadShare,
};

/**
 * One off-chip rail of a topology. The name and the domain list are
 * views that a model keeps: give it literals and arrays of static
 * storage, as the four tables below do.
 */
struct RailRow
{
    const char *name;                  ///< board VR and off-chip rail
    std::span<const DomainId> domains; ///< the domains the rail feeds
    OnDieStage stage;
    Resistance loadLine;
    ConductionGroup conduction;
};

/**
 * A topology as its rails. The rows run compute rails first, then
 * uncore rails; a ByLoadShare rail is a topology's only rail.
 */
struct RailTable
{
    PdnKind kind;
    Voltage tob; ///< VR tolerance band of every rail (Eq. 2)
    std::vector<RailRow> rows;
    /** Where rows[0]'s demand sits in a PdnDemand. */
    size_t firstRail = 0;
};

/** Fig. 1(a): one V_IN feeding six integrated bucks. */
RailTable ivrRailTable(const IvrPdnParams &params = {});

/** Fig. 1(b): V_Cores (cores + LLC), V_GFX, V_SA, V_IO. */
RailTable mbvrRailTable(const MbvrParams &params = {});

/** Fig. 1(c): V_IN into the compute LDOs; V_SA and V_IO. */
RailTable ldoRailTable(const LdoPdnParams &params = {});

/** Sec. 7: V_IN into the compute IVRs; V_SA and V_IO. */
RailTable imbvrRailTable(const ImbvrParams &params = {});

/** A static PDN topology: one rail table, walked row by row. */
class RailTablePdn : public PdnModel
{
  public:
    explicit RailTablePdn(RailTable table, PdnPlatformParams platform = {});

    PdnKind kind() const override { return _kind; }

    PdnDemand
    demand(const PlatformState &state) const override
    {
        PdnDemand d;
        demand(state, d);
        return d;
    }

    /** Fill this table's rails of `demand`; leaves the others. */
    void demand(const PlatformState &state, PdnDemand &demand) const;

    EteeResult deliver(const PdnDemand &demand, double ar) const override;

    std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const override;

  private:
    /** A row with its board VR and load-line built. */
    struct Rail
    {
        RailRow row;
        BuckVr board;
        LoadLine loadLine;
    };

    ChainResult deliverRow(const PdnDemand &demand, size_t i,
                           double ar) const;

    PdnKind _kind;
    Voltage _tob;
    size_t _firstRail;
    std::vector<Rail> _rails;
    size_t _computeRails = 0; ///< rails before the first uncore rail
    Ivr _ivr;    ///< loss coefficients shared by every on-die IVR
    LdoVr _ldo;  ///< coefficients shared by every on-die LDO
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_RAIL_TABLE_HH
