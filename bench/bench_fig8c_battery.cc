/**
 * @file
 * Regenerates Fig. 8(c): average power of the four battery-life
 * workloads under the five PDNs, normalized to the IVR PDN, plus a
 * battery-life projection for a 50 Wh pack.
 */

#include "bench_util.hh"

#include "campaign/campaign_engine.hh"
#include "common/table.hh"
#include "sim/battery_model.hh"

namespace
{

using namespace pdnspot;

/** The four battery-life profiles x reference platform x five PDNs. */
CampaignResult
batteryCampaign()
{
    CampaignSpec spec;
    for (const BatteryProfile &profile : batteryLifeWorkloads())
        spec.traces.push_back(traceFromBatteryProfile(
            profile, milliseconds(33.3), 4));
    spec.platforms = {ultraportablePreset()};
    spec.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    spec.mode = SimMode::Static;
    ParallelRunner runner;
    return CampaignEngine(runner).run(spec);
}

void
printFigure()
{
    CampaignResult result = batteryCampaign();
    const std::string pf = ultraportablePreset().name;
    auto avg = [&](const std::string &trace, PdnKind kind) {
        return result.cell(trace, pf, kind).sim.averagePower();
    };

    bench::banner("Fig. 8(c) - battery-life workload average power "
                  "(IVR = 100%)");

    AsciiTable t({"Workload", "IVR", "MBVR", "LDO", "I+MBVR",
                  "FlexWatts"});
    for (const BatteryProfile &profile : batteryLifeWorkloads()) {
        std::string trace = profile.name + "-trace";
        double base = inWatts(avg(trace, PdnKind::IVR));
        std::vector<std::string> row = {profile.name};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::percent(
                inWatts(avg(trace, kind)) / base, 1));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    bench::banner("Battery life with a 50 Wh pack (hours)");
    BatteryModel battery(wattHours(50.0));
    AsciiTable life({"Workload", "IVR", "FlexWatts", "gain"});
    for (const BatteryProfile &profile : batteryLifeWorkloads()) {
        std::string trace = profile.name + "-trace";
        double h_ivr = battery.lifeHours(avg(trace, PdnKind::IVR));
        double h_flex =
            battery.lifeHours(avg(trace, PdnKind::FlexWatts));
        life.addRow({profile.name, AsciiTable::num(h_ivr, 1),
                     AsciiTable::num(h_flex, 1),
                     AsciiTable::percent(h_flex / h_ivr - 1.0, 1)});
    }
    life.print(std::cout);
    std::cout << "\n";
}

void
batteryRow(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    for (auto _ : state) {
        Power p = batteryAveragePower(pf, PdnKind::FlexWatts,
                                      videoPlayback());
        benchmark::DoNotOptimize(p);
    }
}

BENCHMARK(batteryRow);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
