#include "fleet/fleet_result.hh"

#include <ostream>

#include "common/csv.hh"
#include "common/logging.hh"

namespace pdnspot
{

double
FleetResult::meanPowerW() const
{
    // Sessions stop drawing when they die, so normalize by the
    // session-time actually powered.
    if (poweredS <= 0.0)
        return 0.0;
    return totalEnergyJ / poweredS;
}

void
FleetResult::writeCsv(std::ostream &os) const
{
    os << "bucket,t_s,sessions_alive,supply_power_w,energy_j,"
          "mode_switches,deaths,storm\n";
    for (const FleetBucketRow &row : buckets) {
        os << row.index << ',' << csvExactDouble(row.tEndS) << ','
           << row.alive << ',' << csvExactDouble(row.powerW) << ','
           << csvExactDouble(row.energyJ) << ',' << row.modeSwitches
           << ',' << row.deaths << ',' << (row.storm ? 1 : 0)
           << '\n';
    }
}

namespace
{

/** "p50 x, p95 y, p99 z over n samples" for a histogram snapshot. */
std::string
quantileLine(const MetricSnapshot &h)
{
    if (h.count == 0)
        return "no samples";
    return strprintf(
        "p50 %.6g, p95 %.6g, p99 %.6g, min %.6g, max %.6g over "
        "%llu samples",
        histogramQuantile(h, 0.50), histogramQuantile(h, 0.95),
        histogramQuantile(h, 0.99), h.min, h.max,
        static_cast<unsigned long long>(h.count));
}

} // namespace

void
FleetResult::writeSummary(std::ostream &os) const
{
    os << strprintf(
        "fleet: %llu sessions in %zu cohorts, %zu buckets of %.6g s "
        "(horizon %.6g s, simulated %.6g s)\n",
        static_cast<unsigned long long>(sessions), cohorts.size(),
        buckets.size(), bucketS, horizonS, simulatedS);
    for (const FleetCohortInfo &c : cohorts) {
        os << strprintf(
            "cohort \"%s\": %llu sessions, %s, %s, %s mode, trace "
            "\"%s\" (%llu phases, %.6g s cycle)\n",
            c.name.c_str(),
            static_cast<unsigned long long>(c.count),
            c.platform.c_str(), c.pdn.c_str(), c.mode.c_str(),
            c.trace.c_str(),
            static_cast<unsigned long long>(c.phases), c.cycleS);
    }
    os << strprintf(
        "energy: %.6g J supplied, mean per-session power %.6g W\n",
        totalEnergyJ, meanPowerW());
    os << strprintf(
        "switches: %llu total, baseline %.6g/bucket, %llu storm "
        "buckets (k = %.6g)\n",
        static_cast<unsigned long long>(totalSwitches),
        stormBaseline,
        static_cast<unsigned long long>(stormBuckets), stormK);
    os << strprintf(
        "deaths: %llu/%llu sessions empty within the horizon\n",
        static_cast<unsigned long long>(deaths),
        static_cast<unsigned long long>(sessions));
    os << "battery life (h): " << quantileLine(batteryLifeH) << "\n";
    os << "time to empty (h): " << quantileLine(timeToEmptyH)
       << "\n";
}

} // namespace pdnspot
