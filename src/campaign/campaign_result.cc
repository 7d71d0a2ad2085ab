#include "campaign/campaign_result.hh"

#include <ostream>

#include "common/csv.hh"
#include "common/logging.hh"

namespace pdnspot
{

namespace
{

const char *const csvHeader =
    "trace,platform,pdn,mode,duration_s,supply_energy_j,"
    "nominal_energy_j,ivr_mode_s,ldo_mode_s,mode_switches,"
    "switch_time_s,switch_energy_j";

/** One cell as one CSV row; shared by writeCsv and CampaignCsvSink
 * so batch and streaming exports are byte-identical. */
void
appendCsvRow(std::string &buf, const CampaignCellResult &c)
{
    if (!csvFieldSafe(c.trace) || !csvFieldSafe(c.platform))
        fatal("CampaignResult: cell names contain CSV "
              "metacharacters");
    buf += c.trace;
    buf += ",";
    buf += c.platform;
    buf += ",";
    buf += toString(c.pdn);
    buf += ",";
    buf += toString(c.mode);
    buf += ",";
    buf += csvExactDouble(inSeconds(c.sim.duration));
    buf += ",";
    buf += csvExactDouble(inJoules(c.sim.supplyEnergy));
    buf += ",";
    buf += csvExactDouble(inJoules(c.sim.nominalEnergy));
    buf += ",";
    buf += csvExactDouble(
        inSeconds(c.sim.residency(HybridMode::IvrMode)));
    buf += ",";
    buf += csvExactDouble(
        inSeconds(c.sim.residency(HybridMode::LdoMode)));
    buf += ",";
    buf += std::to_string(c.sim.modeSwitches);
    buf += ",";
    buf += csvExactDouble(inSeconds(c.sim.switchOverheadTime));
    buf += ",";
    buf += csvExactDouble(inJoules(c.sim.switchOverheadEnergy));
    buf += "\n";
}

} // namespace

CampaignCsvSink::CampaignCsvSink(std::ostream &os, bool header)
    : _os(os)
{
    if (header)
        _os << csvHeader << "\n";
}

void
CampaignCsvSink::consume(CampaignCellResult cell)
{
    std::string row;
    appendCsvRow(row, cell);
    _os << row;
    if (!_os)
        fatal("CampaignCsvSink: error writing CSV row");
    ++_rows;
}

void
CampaignSummaryBuilder::add(const CampaignCellResult &cell)
{
    Totals &t = _totals[static_cast<size_t>(cell.pdn)];
    ++t.cells;
    t.supplyEnergy += cell.sim.supplyEnergy;
    t.nominalEnergy += cell.sim.nominalEnergy;
    t.modeSwitches += cell.sim.modeSwitches;
    t.powerSum += cell.sim.averagePower();
}

std::vector<CampaignPdnSummary>
CampaignSummaryBuilder::summaries(const BatteryModel &battery) const
{
    std::vector<CampaignPdnSummary> out;
    for (PdnKind kind : allPdnKinds) {
        const Totals &t = _totals[static_cast<size_t>(kind)];
        if (t.cells == 0)
            continue;
        CampaignPdnSummary s;
        s.pdn = kind;
        s.cells = t.cells;
        s.supplyEnergy = t.supplyEnergy;
        s.nominalEnergy = t.nominalEnergy;
        s.modeSwitches = t.modeSwitches;
        s.meanAveragePower =
            t.powerSum / static_cast<double>(t.cells);
        s.batteryLifeHours = battery.lifeHours(s.meanAveragePower);
        out.push_back(s);
    }
    return out;
}

const CampaignCellResult &
CampaignResult::cell(const std::string &trace,
                     const std::string &platform, PdnKind pdn) const
{
    for (const CampaignCellResult &c : cells) {
        if (c.pdn == pdn && c.trace == trace &&
            c.platform == platform) {
            return c;
        }
    }
    fatal(strprintf("CampaignResult: no cell (%s, %s, %s)",
                    trace.c_str(), platform.c_str(),
                    nameOf(pdn)));
}

std::vector<CampaignPdnSummary>
CampaignResult::summarizeByPdn(const BatteryModel &battery) const
{
    CampaignSummaryBuilder builder;
    for (const CampaignCellResult &c : cells)
        builder.add(c);
    return builder.summaries(battery);
}

void
CampaignResult::writeCsv(std::ostream &os) const
{
    // Assemble in a plain buffer: every number is formatted by
    // csvExactDouble (locale-independent, shortest round-trip), so
    // no stream formatting state can leak into the output.
    std::string buf = csvHeader;
    buf += "\n";
    for (const CampaignCellResult &c : cells)
        appendCsvRow(buf, c);
    os << buf;
}

} // namespace pdnspot
