/**
 * @file
 * The per-stage functions every PDN topology is built from. Each
 * row of a rail table (pdn/rail_table.hh) is one of three chain
 * shapes, and RailTablePdn calls the matching function per row:
 *
 *  - a shared motherboard rail: one off-chip buck VR feeding one or
 *    more domains through power gates at a common voltage (MBVR's
 *    V_Cores/V_GFX/V_SA/V_IO; the SA/IO rails of LDO and I+MBVR);
 *  - an IVR chain: an off-chip V_IN VR at ~1.8 V feeding per-domain
 *    integrated buck converters (IVR PDN; compute side of I+MBVR);
 *  - an LDO chain: an off-chip V_IN VR at the maximum domain voltage
 *    feeding per-domain LDOs in bypass/regulation (LDO PDN).
 *
 * FlexWatts runs two of the tables (I+MBVR in IVR-Mode, LDO in
 * LDO-Mode), so it reaches these functions through them.
 *
 * Each chain is evaluated in two halves. demand*() runs the AR-free
 * stages — Eq. 2 guardbands, power-gate drops, rail over-volt and the
 * on-die VRs — and reads no AR. deliverRail() applies the load-line
 * (Eq. 3/4) and the board VR at the activity ratio it is given; that
 * argument is the only way the AR reaches a rail.
 */

#ifndef PDNSPOT_PDN_RAIL_CHAINS_HH
#define PDNSPOT_PDN_RAIL_CHAINS_HH

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/units.hh"
#include "pdn/load_line.hh"
#include "pdn/pdn_model.hh"
#include "power/guardband.hh"
#include "power/platform_state.hh"
#include "vr/buck_vr.hh"
#include "vr/ivr.hh"
#include "vr/ldo_vr.hh"

namespace pdnspot
{

/** Context shared by the chain evaluators. */
struct ChainContext
{
    const PdnPlatformParams &platform;
    const GuardbandModel &guardband;
};

/**
 * One domain's draw after Eq. 2 guardbanding and (optionally) the
 * power-gate voltage-drop step.
 */
struct DomainDraw
{
    Power power;            ///< power at the guardbanded voltage
    Voltage supplyVoltage;  ///< voltage the rail must provide
    Power guardbandExcess;  ///< PGB - PNOM plus the gate-drop cost
};

DomainDraw guardbandedDraw(const ChainContext &ctx, const DomainState &d,
                           Voltage tob, bool through_gate);

/**
 * The demand of a shared motherboard rail: one off-chip buck, one
 * load-line, one or more domains at the rail's common voltage. Every
 * domain sits behind an on-chip power gate; inactive domains leak
 * gateOffLeakage from the rail while any sibling keeps the rail on.
 */
RailDemand demandSharedBoardRail(const ChainContext &ctx,
                                 const PlatformState &state,
                                 std::span<const DomainId> domains,
                                 Voltage tob);

/**
 * The demand of the IVR chain: V_IN at ivrInputVoltage feeding one
 * integrated buck per active domain; the input load-line is applied
 * at V_IN (Eq. 7/8).
 */
RailDemand demandIvrChain(const ChainContext &ctx,
                          const PlatformState &state,
                          std::span<const DomainId> domains,
                          const Ivr &ivr, Voltage tob);

/**
 * The demand of the LDO chain: V_IN set to the maximum guardbanded
 * domain voltage; the domain(s) at that voltage run in bypass, the
 * rest regulate down at eta = (Vout/Vin) * Ie (Eq. 10/11); inactive
 * domains' LDOs act as power gates leaking gateOffLeakage while the
 * rail is on.
 */
RailDemand demandLdoChain(const ChainContext &ctx,
                          const PlatformState &state,
                          std::span<const DomainId> domains,
                          const LdoVr &ldo, Voltage tob);

/**
 * A rail demand delivered at activity ratio `ar`: the load-line
 * (Eq. 3/4, or 7/8 at V_IN) and the board VR feeding it (Eq. 5/9 and
 * the first term of Eq. 12). A rail that is off passes through.
 * Inline because every delivery runs it once per rail: the caller
 * then keeps only the fields it sums instead of a copied result.
 */
inline ChainResult
deliverRail(const ChainContext &ctx, const RailDemand &demand,
            const BuckVr &board, const LoadLine &load_line, double ar)
{
    ChainResult r = demand.partial;
    if (!r.railOn)
        return r;
    LoadLine::Result ll =
        load_line.apply(demand.loadLineVoltage, demand.loadLinePower, ar);
    r.conduction = ll.conductionExcess;
    Power input = board.inputPower(ctx.platform.supplyVoltage, ll.vLL,
                                   ll.pLL);
    r.vrLoss += input - ll.pLL;
    r.inputPower = input;
    return r;
}

/**
 * Worst-case rail sizing for the BOM/area models: the peak state's
 * guardbanded draw at AR = 1. Unlike the demand it adds no rail
 * over-volt and no gate leakage (Fig. 8(d)/(e) pin that).
 */
OffChipRail sizeSharedBoardRail(const ChainContext &ctx,
                                const PlatformState &peak,
                                std::span<const DomainId> domains,
                                const std::string &name, Voltage tob);

OffChipRail sizeIvrInputRail(const ChainContext &ctx,
                             const PlatformState &peak,
                             std::span<const DomainId> domains,
                             const Ivr &ivr, const std::string &name,
                             Voltage tob);

OffChipRail sizeLdoInputRail(const ChainContext &ctx,
                             const PlatformState &peak,
                             std::span<const DomainId> domains,
                             const LdoVr &ldo, const std::string &name,
                             Voltage tob);

} // namespace pdnspot

#endif // PDNSPOT_PDN_RAIL_CHAINS_HH
