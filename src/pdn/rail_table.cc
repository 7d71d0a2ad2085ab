#include "pdn/rail_table.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "pdn/rail_chains.hh"

namespace pdnspot
{

namespace
{

constexpr std::array<DomainId, 3> coresRailDomains = {
    DomainId::Core0, DomainId::Core1, DomainId::LLC,
};
constexpr std::array<DomainId, 1> gfxRailDomains = {DomainId::GFX};
constexpr std::array<DomainId, 1> saRailDomains = {DomainId::SA};
constexpr std::array<DomainId, 1> ioRailDomains = {DomainId::IO};

using Stage = OnDieStage;
using enum ConductionGroup;

/**
 * The EteeResult of a compute group and an uncore group of rails:
 * each group's conduction goes to its Fig. 5 category.
 */
EteeResult
groupResult(const ChainResult &compute, const ChainResult &uncore,
            Resistance compute_load_line)
{
    EteeResult r;
    r.nominalPower = compute.nominalPower + uncore.nominalPower;
    r.inputPower = compute.inputPower + uncore.inputPower;
    r.loss.vrLoss = compute.vrLoss + uncore.vrLoss;
    r.loss.conductionCompute = compute.conduction;
    r.loss.conductionUncore = uncore.conduction;
    r.loss.other = compute.guardExcess + uncore.guardExcess;
    r.chipInputCurrent = compute.chipCurrent + uncore.chipCurrent;
    r.computeLoadLine = compute_load_line;
    return r;
}

} // anonymous namespace

RailTable
ivrRailTable(const IvrPdnParams &p)
{
    // All six domains hang off the single V_IN chain; its conduction
    // loss splits between compute and uncore by their share of the
    // chain load (Fig. 5 categories).
    return {PdnKind::IVR, p.tob,
            {{"V_IN", allDomains, Stage::Ivr, p.rllIn, ByLoadShare}}};
}

RailTable
mbvrRailTable(const MbvrParams &p)
{
    return {PdnKind::MBVR, p.tob,
            {{"V_Cores", coresRailDomains, Stage::None, p.rllCores, Compute},
             {"V_GFX", gfxRailDomains, Stage::None, p.rllGfx, Compute},
             {"V_SA", saRailDomains, Stage::None, p.rllSa, Uncore},
             {"V_IO", ioRailDomains, Stage::None, p.rllIo, Uncore}}};
}

RailTable
ldoRailTable(const LdoPdnParams &p)
{
    return {PdnKind::LDO, p.tob,
            {{"V_IN", computeDomains, Stage::Ldo, p.rllIn, Compute},
             {"V_SA", saRailDomains, Stage::None, p.rllSa, Uncore},
             {"V_IO", ioRailDomains, Stage::None, p.rllIo, Uncore}}};
}

RailTable
imbvrRailTable(const ImbvrParams &p)
{
    return {PdnKind::IplusMBVR, p.tob,
            {{"V_IN", computeDomains, Stage::Ivr, p.rllIn, Compute},
             {"V_SA", saRailDomains, Stage::None, p.rllSa, Uncore},
             {"V_IO", ioRailDomains, Stage::None, p.rllIo, Uncore}}};
}

RailTablePdn::RailTablePdn(RailTable table, PdnPlatformParams platform)
    : PdnModel(platform),
      _kind(table.kind),
      _tob(table.tob),
      _firstRail(table.firstRail),
      _ivr(IvrParams{.name = "IVR"}),
      _ldo(LdoParams{.name = "LDO"})
{
    const std::vector<RailRow> &rows = table.rows;
    if (rows.empty() ||
        table.firstRail + rows.size() > PdnDemand::maxRails)
        fatal("RailTablePdn: rail table does not fit a PdnDemand");
    for (const RailRow &row : rows)
        _rails.push_back({row, BuckVr(BuckParams::motherboard(row.name)),
                          LoadLine(row.loadLine)});
    while (_computeRails < rows.size() &&
           rows[_computeRails].conduction == Compute)
        ++_computeRails;
    auto uncore = std::count_if(rows.begin(), rows.end(),
                                [](const RailRow &row) {
                                    return row.conduction == Uncore;
                                });
    if (rows[0].conduction == ByLoadShare
            ? rows.size() != 1
            : _computeRails == 0 || uncore == 0 ||
                  _computeRails + uncore != rows.size())
        fatal("RailTablePdn: rows must be compute rails then uncore "
              "rails, or one rail split by load share");
}

void
RailTablePdn::demand(const PlatformState &state, PdnDemand &demand) const
{
    ChainContext ctx{_platform, _guardband};
    for (size_t i = 0; i < _rails.size(); ++i) {
        const RailRow &row = _rails[i].row;
        RailDemand &rail = demand.rails[_firstRail + i];
        switch (row.stage) {
          case Stage::None:
            rail = demandSharedBoardRail(ctx, state, row.domains, _tob);
            break;
          case Stage::Ivr:
            rail = demandIvrChain(ctx, state, row.domains, _ivr, _tob);
            break;
          case Stage::Ldo:
            rail = demandLdoChain(ctx, state, row.domains, _ldo, _tob);
            break;
        }
    }
}

ChainResult
RailTablePdn::deliverRow(const PdnDemand &demand, size_t i,
                         double ar) const
{
    ChainContext ctx{_platform, _guardband};
    const Rail &rail = _rails[i];
    return deliverRail(ctx, demand.rails[_firstRail + i], rail.board,
                       rail.loadLine, ar);
}

EteeResult
RailTablePdn::deliver(const PdnDemand &demand, double ar) const
{
    Resistance compute_ll = _rails[0].row.loadLine;
    ChainResult compute = deliverRow(demand, 0, ar);
    if (_rails[0].row.conduction == ByLoadShare) {
        // The only rail: no uncore group, and its conduction splits.
        double share = compute.computeShare();
        EteeResult r = groupResult(compute, ChainResult(), compute_ll);
        r.loss.conductionCompute = compute.conduction * share;
        r.loss.conductionUncore = compute.conduction * (1.0 - share);
        return r;
    }
    for (size_t i = 1; i < _computeRails; ++i)
        compute.accumulate(deliverRow(demand, i, ar));
    ChainResult uncore = deliverRow(demand, _computeRails, ar);
    for (size_t i = _computeRails + 1; i < _rails.size(); ++i)
        uncore.accumulate(deliverRow(demand, i, ar));
    return groupResult(compute, uncore, compute_ll);
}

std::vector<OffChipRail>
RailTablePdn::offChipRails(const PlatformState &peak) const
{
    ChainContext ctx{_platform, _guardband};
    std::vector<OffChipRail> rails;
    for (const Rail &rail : _rails) {
        const RailRow &row = rail.row;
        switch (row.stage) {
          case Stage::None:
            rails.push_back(sizeSharedBoardRail(ctx, peak, row.domains,
                                                row.name, _tob));
            break;
          case Stage::Ivr:
            rails.push_back(sizeIvrInputRail(ctx, peak, row.domains, _ivr,
                                             row.name, _tob));
            break;
          case Stage::Ldo:
            rails.push_back(sizeLdoInputRail(ctx, peak, row.domains, _ldo,
                                             row.name, _tob));
            break;
        }
    }
    return rails;
}

} // namespace pdnspot
