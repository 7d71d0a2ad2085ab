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

/** Aggregate outcome of one delivery chain. */
struct ChainResult
{
    Power nominalPower;    ///< sum of served domains' PNOM
    Power inputPower;      ///< power drawn from PSU for this chain
    Power vrLoss;          ///< on-chip + off-chip conversion loss
    Power conduction;      ///< load-line (I^2*R guardband) excess
    Power guardExcess;     ///< TOB + gate drop + rail over-volt + leaks
    Current chipCurrent;   ///< current entering the package
    bool railOn = false;   ///< false if every served domain was gated

    /** Power each domain pulled from this chain's rail. */
    std::array<Power, numDomains> domainShare{};

    void
    accumulate(const ChainResult &other)
    {
        nominalPower += other.nominalPower;
        inputPower += other.inputPower;
        vrLoss += other.vrLoss;
        conduction += other.conduction;
        guardExcess += other.guardExcess;
        chipCurrent += other.chipCurrent;
        railOn = railOn || other.railOn;
        for (size_t i = 0; i < numDomains; ++i)
            domainShare[i] += other.domainShare[i];
    }

    /** Fraction of the rail load drawn by the compute domains. */
    double
    computeShare() const
    {
        Power total, comp;
        for (size_t i = 0; i < numDomains; ++i) {
            total += domainShare[i];
            if (isComputeDomain(static_cast<DomainId>(i)))
                comp += domainShare[i];
        }
        return total > watts(0.0) ? comp / total : 0.0;
    }
};

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
 * A shared motherboard rail: one off-chip buck, one load-line, one or
 * more domains at the rail's common voltage.
 *
 * @param gated true if domains sit behind on-chip power gates; gated
 *              domains that are inactive leak gateOffLeakage from the
 *              rail while any sibling keeps the rail on.
 */
ChainResult evalSharedBoardRail(const ChainContext &ctx,
                                const PlatformState &state,
                                std::span<const DomainId> domains,
                                const BuckVr &board, Voltage tob,
                                const LoadLine &rail_ll, bool gated);

/**
 * The IVR chain: V_IN at ivrInputVoltage feeding one integrated buck
 * per active domain; the input load-line is applied at V_IN (Eq. 7/8).
 */
ChainResult evalIvrChain(const ChainContext &ctx,
                         const PlatformState &state,
                         std::span<const DomainId> domains,
                         const Ivr &ivr, const BuckVr &board,
                         Voltage tob, const LoadLine &input_ll);

/**
 * The LDO chain: V_IN set to the maximum guardbanded domain voltage;
 * the domain(s) at that voltage run in bypass, the rest regulate down
 * at eta = (Vout/Vin) * Ie (Eq. 10/11); inactive domains' LDOs act as
 * power gates leaking gateOffLeakage while the rail is on.
 */
ChainResult evalLdoChain(const ChainContext &ctx,
                         const PlatformState &state,
                         std::span<const DomainId> domains,
                         const LdoVr &ldo, const BuckVr &board,
                         Voltage tob, const LoadLine &input_ll);

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
