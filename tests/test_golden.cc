/**
 * @file
 * Golden-file regression net over the repo's byte-stable text
 * surfaces: campaign CSV export, trace CSV write, the standard trace
 * corpus, the run report, the per-PDN summary table, and the probe
 * waveform CSV + Perfetto counter-track documents. Each test renders
 * a deterministic fixture and compares it byte for byte against a
 * checked-in file under tests/golden/ — any formatting or numeric
 * drift in the promised surfaces fails loudly instead of silently
 * changing downstream tooling's inputs. checkGolden (golden.hh) rewrites the files
 * instead when regenerating.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/table.hh"
#include "golden.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"
#include "obs/waveform_io.hh"
#include "pdnspot/platform.hh"
#include "workload/trace_io.hh"
#include "workload/trace_source.hh"
#include "workload/trace_transform.hh"

namespace pdnspot
{
namespace
{

/**
 * The golden campaign: heterogeneous but small (2 traces x 1
 * platform x 2 PDNs, PMU mode), with one transformed trace so the
 * derivation pipeline sits inside the regression net too.
 */
CampaignSpec
goldenSpec()
{
    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 31;
    mix.phases = 10;
    mix.meanPhaseLen = milliseconds(6.0);

    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::generator(mix));
    spec.traces.push_back(
        TraceSpec::library("bursty-compute", 42)
            .rename("bursty-jittered")
            .transform(TraceTransform::arPerturb(0.05, 9))
            .transform(TraceTransform::repeat(2)));
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = SimMode::Pmu;
    return spec;
}

CampaignResult
goldenResult()
{
    ParallelRunner serial(1);
    return CampaignEngine(serial).run(goldenSpec());
}

TEST(GoldenFileTest, CampaignCsvExport)
{
    std::ostringstream csv;
    goldenResult().writeCsv(csv);
    checkGolden("campaign_export.csv", csv.str());
}

TEST(GoldenFileTest, TraceCsvWrite)
{
    PhaseTrace trace =
        TraceSpec::library("day-in-the-life", 42)
            .transform(TraceTransform::timeScale(1.25))
            .transform(TraceTransform::truncate(seconds(30.0)))
            .resolve();
    std::ostringstream csv;
    writeTraceCsv(csv, trace);
    checkGolden("trace_write.csv", csv.str());
}

/**
 * The standard nine-trace corpus at two seeds, each trace resolved
 * from its library reference and written as trace CSV.
 */
TEST(GoldenFileTest, StandardTraceCorpus)
{
    std::ostringstream out;
    for (uint64_t seed : {42, 43}) {
        for (const TraceSpec &spec : standardCampaignTraces(seed)) {
            out << "# seed " << seed << ": " << spec.name() << "\n";
            writeTraceCsv(out, spec.resolve());
        }
    }
    checkGolden("standard_corpus.csv", out.str());
}

TEST(GoldenFileTest, RunReport)
{
    // The full pdnspot-report-1 surface over the golden campaign,
    // serial so metric counts are deterministic, canonicalized so
    // the volatile members (host, durations, build stamp) cannot
    // churn the file.
    MetricsRegistry registry;
    CampaignResult result = [&] {
        MetricsInstallation install(registry);
        return goldenResult();
    }();

    CampaignSpec spec = goldenSpec();
    RunReportInputs in;
    in.toolName = "pdnspot_campaign";
    in.specPath = "golden.json";
    in.specText = "golden";
    in.specEcho = JsonValue::makeNull();
    in.spec = &spec;
    in.threads = 1;
    in.endCell = result.cells.size();
    in.rows = result.cells.size();
    in.wallSeconds = 0.25;
    in.batteryWh = 50.0;
    in.summaries = result.summarizeByPdn(BatteryModel(wattHours(50.0)));
    in.metrics = &registry;

    checkGolden("run_report.json",
                writeJson(canonicalizeRunReport(buildRunReport(in))));
}

/**
 * The paper campaign's smallest cell (video-playback-trace on the
 * fanless tablet, FlexWatts under PMU control), probed with every
 * signal at full rate — the fixture behind the probe CSV and
 * counter-track goldens.
 */
std::shared_ptr<const Waveform>
goldenWaveform()
{
    CampaignSpec spec;
    spec.traces.push_back(
        TraceSpec::library("video-playback-trace", 42));
    spec.platforms = {fanlessTabletPreset()};
    spec.pdns = {PdnKind::FlexWatts};
    spec.mode = SimMode::Pmu;
    spec.probes.push_back(ProbeSpec());

    ParallelRunner serial(1);
    CampaignResult result = CampaignEngine(serial).run(spec);
    return result.cells.at(0).waveform;
}

TEST(GoldenFileTest, ProbeWaveformCsv)
{
    std::shared_ptr<const Waveform> waveform = goldenWaveform();
    ASSERT_NE(waveform, nullptr);
    checkGolden("probe_waveform.csv", writeWaveformCsv(*waveform));
}

TEST(GoldenFileTest, ProbeCounterTracks)
{
    std::shared_ptr<const Waveform> waveform = goldenWaveform();
    ASSERT_NE(waveform, nullptr);
    checkGolden("probe_counters.json",
                writeJson(traceEventDocument(
                    waveformCounterEvents(*waveform))));
}

TEST(GoldenFileTest, SummaryTable)
{
    // The same table pdnspot_campaign --summary prints, so the
    // CLI-facing summary format is pinned alongside the CSVs.
    BatteryModel battery(wattHours(50.0));
    AsciiTable table({"PDN", "cells", "supply (J)", "mean ETEE",
                      "switches", "life @50Wh (h)"});
    for (const CampaignPdnSummary &s :
         goldenResult().summarizeByPdn(battery)) {
        table.addRow({toString(s.pdn),
                      std::to_string(s.cells),
                      AsciiTable::num(inJoules(s.supplyEnergy), 2),
                      AsciiTable::percent(s.meanEtee(), 1),
                      std::to_string(s.modeSwitches),
                      AsciiTable::num(s.batteryLifeHours, 1)});
    }
    std::ostringstream out;
    table.print(out);
    checkGolden("summary.txt", out.str());
}

} // namespace
} // namespace pdnspot
