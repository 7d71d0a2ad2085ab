/**
 * @file
 * Reusable delivery-chain evaluators shared by the PDN topologies.
 *
 * Each of the paper's PDNs is a composition of three chain shapes:
 *
 *  - a shared motherboard rail: one off-chip buck VR feeding one or
 *    more domains (possibly through power gates) at a common voltage
 *    (MBVR's V_Cores/V_GFX/V_SA/V_IO; the SA/IO rails of LDO and
 *    I+MBVR);
 *  - an IVR chain: an off-chip V_IN VR at ~1.8 V feeding per-domain
 *    integrated buck converters (IVR PDN; compute side of I+MBVR);
 *  - an LDO chain: an off-chip V_IN VR at the maximum domain voltage
 *    feeding per-domain LDOs in bypass/regulation (LDO PDN).
 *
 * The evaluators implement the paper's Eq. 2-12 pipeline once so all
 * topologies share it. FlexWatts calls none of them directly: it is
 * an I+MBVR model (IVR-Mode) and an LDO model (LDO-Mode).
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
 * load-line, one or more domains at the rail's common voltage.
 *
 * @param gated true if domains sit behind on-chip power gates; gated
 *              domains that are inactive leak gateOffLeakage from the
 *              rail while any sibling keeps the rail on.
 */
RailDemand demandSharedBoardRail(const ChainContext &ctx,
                                 const PlatformState &state,
                                 std::span<const DomainId> domains,
                                 Voltage tob, bool gated);

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
 */
ChainResult deliverRail(const ChainContext &ctx, const RailDemand &demand,
                        const BuckVr &board, const LoadLine &load_line,
                        double ar);

/**
 * The EteeResult of a PDN whose rails split into a compute group and
 * an uncore group: each group's conduction goes to its Fig. 5
 * category.
 */
EteeResult groupResult(const ChainResult &compute,
                       const ChainResult &uncore,
                       Resistance compute_load_line);

/** Worst-case rail sizing for the BOM/area models. */
OffChipRail sizeSharedBoardRail(const ChainContext &ctx,
                                const PlatformState &peak,
                                std::span<const DomainId> domains,
                                const std::string &name, Voltage tob,
                                bool gated);

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
