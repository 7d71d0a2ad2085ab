/**
 * @file
 * Campaign study: the batch-simulation subsystem end to end.
 *
 * Runs the standard nine-trace corpus across the three platform
 * presets and all five PDN architectures under realistic PMU control
 * (9 x 3 x 5 = 135 cells), prints per-PDN summary statistics and the
 * per-platform FlexWatts-vs-IVR energy saving, and optionally exports
 * the cells as campaign CSV (the same bytes pdnspot_campaign writes
 * for examples/specs/paper_campaign.json).
 *
 * Usage: campaign_study [csv_path]   (default: no CSV file written)
 */

#include <fstream>
#include <iostream>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "common/table.hh"

using namespace pdnspot;

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    spec.traces = standardCampaignTraces(42);
    spec.platforms = allPlatformPresets();
    spec.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    spec.mode = SimMode::Pmu;

    std::cout << "Campaign: " << spec.traces.size() << " traces x "
              << spec.platforms.size() << " platforms x "
              << spec.pdns.size() << " PDNs = " << spec.cellCount()
              << " cells (" << toString(spec.mode) << " mode)\n\n";

    ParallelRunner runner;
    CampaignResult result = CampaignEngine(runner).run(spec);

    BatteryModel battery(wattHours(50.0));
    AsciiTable summary({"PDN", "cells", "supply (J)", "mean ETEE",
                        "switches", "life @50Wh (h)"});
    for (const CampaignPdnSummary &s :
         result.summarizeByPdn(battery)) {
        summary.addRow({toString(s.pdn), std::to_string(s.cells),
                        AsciiTable::num(inJoules(s.supplyEnergy), 2),
                        AsciiTable::percent(s.meanEtee(), 1),
                        std::to_string(s.modeSwitches),
                        AsciiTable::num(s.batteryLifeHours, 1)});
    }
    summary.print(std::cout);

    // Per-platform view of the FlexWatts-vs-IVR energy win.
    std::cout << "\nFlexWatts supply energy vs IVR, per platform:\n\n";
    AsciiTable perPlatform({"Platform", "IVR (J)", "FlexWatts (J)",
                            "saving"});
    for (const PlatformConfig &pf : spec.platforms) {
        Energy ivr, flex;
        for (const TraceSpec &trace : spec.traces) {
            ivr += result.cell(trace.name(), pf.name, PdnKind::IVR)
                       .sim.supplyEnergy;
            flex += result
                        .cell(trace.name(), pf.name,
                              PdnKind::FlexWatts)
                        .sim.supplyEnergy;
        }
        perPlatform.addRow({pf.name,
                            AsciiTable::num(inJoules(ivr), 2),
                            AsciiTable::num(inJoules(flex), 2),
                            AsciiTable::percent(1.0 - flex / ivr,
                                                1)});
    }
    perPlatform.print(std::cout);

    std::cout << "\n";
    if (argc > 1) {
        std::ofstream out(argv[1]);
        if (!out)
            fatal(std::string("cannot open ") + argv[1]);
        result.writeCsv(out);
        std::cout << "Wrote " << argv[1] << "\n";
    }
    return 0;
}
