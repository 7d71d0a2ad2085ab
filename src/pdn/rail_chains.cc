#include "pdn/rail_chains.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/** Power of a domain re-costed at a rail voltage above its own need. */
Power
overvoltToRail(const ChainContext &ctx, const DomainState &d,
               Power domain_power, Voltage domain_supply,
               Voltage rail_voltage)
{
    if (rail_voltage <= domain_supply)
        return domain_power;
    return ctx.guardband.apply(domain_power, domain_supply,
                               rail_voltage - domain_supply,
                               d.leakageFraction);
}

/** A rail's active domains and their draws, in rail order. */
class ActiveDraws
{
  public:
    void
    push(DomainId id, const DomainDraw &draw)
    {
        if (_count == _items.size())
            panic("ActiveDraws: a rail lists a domain twice");
        _items[_count++] = {id, draw};
    }

    bool empty() const { return _count == 0; }
    auto begin() const { return _items.begin(); }
    auto end() const { return _items.begin() + _count; }

  private:
    std::array<std::pair<DomainId, DomainDraw>, numDomains> _items;
    size_t _count = 0;
};

} // anonymous namespace

DomainDraw
guardbandedDraw(const ChainContext &ctx, const DomainState &d,
                Voltage tob, bool through_gate)
{
    DomainDraw draw;

    // Eq. 2: raise the supply by the tolerance band.
    Power pgb = ctx.guardband.apply(d.nominalPower, d.voltage, tob,
                                    d.leakageFraction);
    Voltage vgb = d.voltage + tob;
    draw.guardbandExcess = pgb - d.nominalPower;
    draw.power = pgb;
    draw.supplyVoltage = vgb;

    if (!through_gate)
        return draw;

    // Power-gate step (Sec. 3.1): the gate drop VPG = I * RPG adds a
    // further supply raise, costed with the same Eq. 2 scaling.
    Current id = pgb / vgb;
    Voltage vpg = id * ctx.platform.gateResistance;
    Power ppg = ctx.guardband.apply(pgb, vgb, vpg, d.leakageFraction);
    draw.guardbandExcess += ppg - pgb;
    draw.power = ppg;
    draw.supplyVoltage = vgb + vpg;
    return draw;
}

RailDemand
demandSharedBoardRail(const ChainContext &ctx, const PlatformState &state,
                      std::span<const DomainId> domains, Voltage tob)
{
    RailDemand rd;
    ChainResult &r = rd.partial;

    // Rail voltage: the highest guardbanded demand among the active
    // domains; the whole rail powers down if nothing is active.
    Voltage rail_v;
    ActiveDraws active;
    size_t inactive_count = 0;
    for (DomainId id : domains) {
        const DomainState &d = state.domain(id);
        if (!d.active) {
            ++inactive_count;
            continue;
        }
        DomainDraw draw = guardbandedDraw(ctx, d, tob, true);
        rail_v = std::max(rail_v, draw.supplyVoltage);
        active.push(id, draw);
    }
    if (active.empty())
        return rd;
    r.railOn = true;

    // Domains sharing a rail set above their own requirement pay the
    // over-volt cost (e.g. cores sharing V_Cores with a hotter LLC).
    Power pd;
    for (const auto &[id, draw] : active) {
        const DomainState &d = state.domain(id);
        Power p_at_rail = overvoltToRail(ctx, d, draw.power,
                                         draw.supplyVoltage, rail_v);
        pd += p_at_rail;
        r.domainShare[domainIndex(id)] = p_at_rail;
        r.nominalPower += d.nominalPower;
        r.guardExcess += p_at_rail - d.nominalPower;
    }

    // Gated-off siblings leak through their gates while the rail is on.
    if (inactive_count > 0) {
        Power leak = ctx.platform.gateOffLeakage *
                     static_cast<double>(inactive_count);
        pd += leak;
        r.guardExcess += leak;
    }

    // Eq. 3/4 apply at the rail, behind the off-chip VR (Eq. 5 term).
    rd.loadLineVoltage = rail_v;
    rd.loadLinePower = pd;
    r.chipCurrent = pd / rail_v;
    return rd;
}

RailDemand
demandIvrChain(const ChainContext &ctx, const PlatformState &state,
               std::span<const DomainId> domains, const Ivr &ivr,
               Voltage tob)
{
    RailDemand rd;
    ChainResult &r = rd.partial;
    Voltage vin = ctx.platform.ivrInputVoltage;

    // Eq. 2 then Eq. 6 per active domain; idle domains' IVRs are off.
    Power pin;
    for (DomainId id : domains) {
        const DomainState &d = state.domain(id);
        if (!d.active)
            continue;
        DomainDraw draw = guardbandedDraw(ctx, d, tob, false);
        Power p_ivr_d = ivr.inputPower(vin, draw.supplyVoltage,
                                       draw.power);
        pin += p_ivr_d;
        r.domainShare[domainIndex(id)] = p_ivr_d;
        r.nominalPower += d.nominalPower;
        r.guardExcess += draw.guardbandExcess;
        r.vrLoss += p_ivr_d - draw.power;
    }
    if (pin <= watts(0.0))
        return rd;
    r.railOn = true;

    // Eq. 7/8 apply at the chip input, behind the V_IN VR (Eq. 9).
    rd.loadLineVoltage = vin;
    rd.loadLinePower = pin;
    r.chipCurrent = pin / vin;
    return rd;
}

RailDemand
demandLdoChain(const ChainContext &ctx, const PlatformState &state,
               std::span<const DomainId> domains, const LdoVr &ldo,
               Voltage tob)
{
    RailDemand rd;
    ChainResult &r = rd.partial;

    // V_IN is set to the maximum guardbanded voltage among the active
    // LDO domains (Sec. 2.3); that domain's LDO runs in bypass.
    ActiveDraws active;
    size_t inactive_count = 0;
    Voltage vin;
    for (DomainId id : domains) {
        const DomainState &d = state.domain(id);
        if (!d.active) {
            ++inactive_count;
            continue;
        }
        DomainDraw draw = guardbandedDraw(ctx, d, tob, false);
        vin = std::max(vin, draw.supplyVoltage);
        active.push(id, draw);
    }
    if (active.empty())
        return rd;
    r.railOn = true;

    // Eq. 10/11 per domain.
    Power pin;
    for (const auto &[id, draw] : active) {
        const DomainState &d = state.domain(id);
        double eta = ldo.efficiency(vin, draw.supplyVoltage);
        Power p_ldo_d = draw.power / eta;
        pin += p_ldo_d;
        r.domainShare[domainIndex(id)] = p_ldo_d;
        r.nominalPower += d.nominalPower;
        r.guardExcess += draw.guardbandExcess;
        r.vrLoss += p_ldo_d - draw.power;
    }

    // Idle domains' LDOs act as power gates and leak from V_IN.
    if (inactive_count > 0) {
        Power leak = ctx.platform.gateOffLeakage *
                     static_cast<double>(inactive_count);
        pin += leak;
        r.guardExcess += leak;
    }

    // The input load-line applies at the (low) V_IN voltage, behind
    // the V_IN VR (first term of Eq. 12).
    rd.loadLineVoltage = vin;
    rd.loadLinePower = pin;
    r.chipCurrent = pin / vin;
    return rd;
}

OffChipRail
sizeSharedBoardRail(const ChainContext &ctx, const PlatformState &peak,
                    std::span<const DomainId> domains,
                    const std::string &name, Voltage tob)
{
    Voltage rail_v;
    Power pd;
    for (DomainId id : domains) {
        const DomainState &d = peak.domain(id);
        if (!d.active)
            continue;
        DomainDraw draw = guardbandedDraw(ctx, d, tob, true);
        rail_v = std::max(rail_v, draw.supplyVoltage);
        pd += draw.power;
    }
    OffChipRail rail;
    rail.name = name;
    rail.outputVoltage = rail_v;
    rail.iccMax = rail_v > volts(0.0) ? (pd / peak.ar) / rail_v
                                      : Current();
    return rail;
}

OffChipRail
sizeIvrInputRail(const ChainContext &ctx, const PlatformState &peak,
                 std::span<const DomainId> domains, const Ivr &ivr,
                 const std::string &name, Voltage tob)
{
    Voltage vin = ctx.platform.ivrInputVoltage;
    Power pin;
    for (DomainId id : domains) {
        const DomainState &d = peak.domain(id);
        if (!d.active)
            continue;
        DomainDraw draw = guardbandedDraw(ctx, d, tob, false);
        pin += ivr.inputPower(vin, draw.supplyVoltage, draw.power);
    }
    OffChipRail rail;
    rail.name = name;
    rail.outputVoltage = vin;
    rail.iccMax = (pin / peak.ar) / vin;
    return rail;
}

OffChipRail
sizeLdoInputRail(const ChainContext &ctx, const PlatformState &peak,
                 std::span<const DomainId> domains, const LdoVr &ldo,
                 const std::string &name, Voltage tob)
{
    Voltage vin;
    ActiveDraws active;
    for (DomainId id : domains) {
        const DomainState &d = peak.domain(id);
        if (!d.active)
            continue;
        DomainDraw draw = guardbandedDraw(ctx, d, tob, false);
        vin = std::max(vin, draw.supplyVoltage);
        active.push(id, draw);
    }
    Power pin;
    for (const auto &[id, draw] : active)
        pin += draw.power / ldo.efficiency(vin, draw.supplyVoltage);

    OffChipRail rail;
    rail.name = name;
    rail.outputVoltage = vin;
    rail.iccMax = vin > volts(0.0) ? (pin / peak.ar) / vin
                                   : Current();
    return rail;
}

} // namespace pdnspot
