/**
 * @file
 * Battery-life study: project how long a battery lasts under each
 * PDN for the four battery-life workloads of the paper, and break a
 * video-playback frame down state by state to show where the IVR
 * PDN loses (paper Sec. 5, Observation 3).
 *
 * Usage: battery_life_study [battery_wh]   (default 50)
 */

#include <cstdlib>
#include <iostream>

#include "campaign/campaign_engine.hh"
#include "common/table.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"
#include "sim/battery_model.hh"

using namespace pdnspot;

int
main(int argc, char **argv)
{
    double battery_wh = argc > 1 ? std::atof(argv[1]) : 50.0;

    // The same preset drives both the campaign below and the frame
    // anatomy table, so every number in this study shares one
    // platform configuration.
    Platform platform(ultraportablePreset());
    BatteryModel battery(wattHours(battery_wh));

    // One campaign covers the whole table: the four battery-life
    // profiles (as frame traces) x the reference platform x all five
    // PDNs, simulated statically.
    CampaignSpec spec;
    for (const BatteryProfile &profile : batteryLifeWorkloads())
        spec.traces.push_back(TraceSpec::profile(
            profile.name, milliseconds(33.3), 4));
    spec.platforms = {ultraportablePreset()};
    spec.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    spec.mode = SimMode::Static;
    ParallelRunner runner;
    CampaignResult result = CampaignEngine(runner).run(spec);
    const std::string &pfName = spec.platforms.front().name;

    std::cout << "Battery life with a " << battery_wh
              << " Wh pack (hours)\n\n";
    AsciiTable life({"Workload", "IVR", "MBVR", "LDO", "I+MBVR",
                     "FlexWatts"});
    for (const BatteryProfile &profile : batteryLifeWorkloads()) {
        std::string trace = profile.name + "-trace";
        std::vector<std::string> row = {profile.name};
        for (PdnKind kind : allPdnKinds) {
            Power avg = result.cell(trace, pfName, kind)
                            .sim.averagePower();
            row.push_back(AsciiTable::num(battery.lifeHours(avg), 1));
        }
        life.addRow(row);
    }
    life.print(std::cout);

    std::cout << "\nVideo-playback frame anatomy (state-by-state):\n\n";
    AsciiTable anatomy({"State", "residency", "nominal (W)",
                        "IVR ETEE", "FlexWatts ETEE",
                        "FlexWatts mode"});
    const OperatingPointModel &opm = platform.operatingPoints();
    for (const auto &[state, share] : videoPlayback().residencies) {
        OperatingPointModel::Query q;
        q.tdp = watts(15.0);
        q.cstate = state;
        PlatformState s = opm.build(q);
        EteeResult ivr = platform.pdn(PdnKind::IVR).evaluate(s);
        const FlexWattsPdn &fw = platform.flexWatts();
        HybridMode mode = fw.bestMode(s);
        EteeResult flex = fw.evaluate(s, mode);
        anatomy.addRow({toString(state),
                        AsciiTable::percent(share, 0),
                        AsciiTable::num(inWatts(s.totalNominalPower()),
                                        2),
                        AsciiTable::percent(ivr.etee(), 1),
                        AsciiTable::percent(flex.etee(), 1),
                        toString(mode)});
    }
    anatomy.print(std::cout);

    const std::string video = videoPlayback().name + "-trace";
    Power p_ivr = result.cell(video, pfName, PdnKind::IVR)
                      .sim.averagePower();
    Power p_flex = result.cell(video, pfName, PdnKind::FlexWatts)
                       .sim.averagePower();
    std::cout << "\nFlexWatts cuts video-playback average power by "
              << AsciiTable::percent(1.0 - p_flex / p_ivr, 1)
              << " vs the IVR PDN ("
              << AsciiTable::num(inWatts(p_ivr), 3) << "W -> "
              << AsciiTable::num(inWatts(p_flex), 3) << "W).\n";
    return 0;
}
