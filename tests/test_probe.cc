/**
 * @file
 * Tests for the waveform probe layer (obs/probe.hh,
 * obs/waveform_io.hh) and the kernels' phase records it reads:
 * trigger-window admission and ring eviction, decimation, the
 * kernel-vs-reference and recorded-vs-unrecorded identity contracts,
 * campaign probe binding, and waveform cell names and counter
 * tracks.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "obs/probe.hh"
#include "obs/waveform_io.hh"
#include "pdnspot/platform.hh"
#include "sim/interval_simulator.hh"
#include "sim_reference.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{
namespace
{

/** A hand-built record of `n` 10 ms phases at 5 W supply and 4 W
 * nominal, on a static PDN. */
PhaseRecord
syntheticRecord(uint64_t n)
{
    PhaseRecord record;
    for (uint64_t p = 0; p < n; ++p) {
        record.duration.push_back(seconds(0.01));
        record.supplyW.push_back(5.0);
        record.nominalW.push_back(4.0);
        record.loss.push_back(std::nullopt);
        record.mode.push_back(-1);
    }
    return record;
}

std::vector<uint64_t>
rowPhases(const Waveform &waveform)
{
    std::vector<uint64_t> phases;
    for (const WaveformRow &row : waveform.rows)
        phases.push_back(row.phase);
    return phases;
}

TEST(ProbeSpecTest, MatchesSelectors)
{
    ProbeSpec spec;
    spec.trace = "web";
    spec.pdn = "FlexWatts";
    EXPECT_TRUE(spec.matches("web", "tablet", "FlexWatts", "pmu"));
    EXPECT_TRUE(spec.matches("web", "laptop", "FlexWatts", "static"));
    EXPECT_FALSE(spec.matches("web", "tablet", "IVR", "pmu"));
    EXPECT_FALSE(spec.matches("video", "tablet", "FlexWatts", "pmu"));

    ProbeSpec any;
    EXPECT_TRUE(any.matches("a", "b", "c", "d"));
}

TEST(ProbeSpecTest, SelectedSignalsNormalize)
{
    ProbeSpec spec;
    EXPECT_EQ(spec.selectedSignals().size(), probeSignalCount);

    spec.signals = {ProbeSignal::Mode, ProbeSignal::SupplyPowerW,
                    ProbeSignal::Mode};
    std::vector<ProbeSignal> expected = {ProbeSignal::SupplyPowerW,
                                         ProbeSignal::Mode};
    EXPECT_EQ(spec.selectedSignals(), expected);
}

TEST(ProbeSpecTest, ValidateRejectsNonsense)
{
    ProbeSpec spec;
    spec.decimate = 0;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = ProbeSpec();
    spec.batteryWh = -1.0;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = ProbeSpec();
    spec.trigger = ProbeTriggerSpec();
    spec.trigger->window = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(ProbeSignalTest, NamesRoundTrip)
{
    for (ProbeSignal s : allProbeSignals)
        EXPECT_EQ(parseName<ProbeSignal>(toString(s)), s);
    EXPECT_THROW(parseName<ProbeSignal>("bogus"), ConfigError);
}

TEST(SignalProbeTest, DecimationKeepsEveryNth)
{
    ProbeSpec spec;
    spec.decimate = 3;
    EXPECT_EQ(rowPhases(captureWaveform(spec, syntheticRecord(10))),
              (std::vector<uint64_t>{0, 3, 6, 9}));
}

TEST(SignalProbeTest, TriggerAdmitsWindowAroundModeSwitch)
{
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{2};
    PhaseRecord record = syntheticRecord(10);
    record.switches.push_back(
        {5, seconds(0.05), HybridMode::LdoMode});

    Waveform w = captureWaveform(spec, record);
    // Lookback 2 from the ring, the trigger phase, lookahead 2; the
    // rows parked in the ring when no later trigger fired are gone.
    EXPECT_EQ(rowPhases(w), (std::vector<uint64_t>{3, 4, 5, 6, 7}));
    ASSERT_EQ(w.events.size(), 1u);
    EXPECT_EQ(w.events[0].phase, 5u);
    EXPECT_EQ(w.events[0].t, seconds(0.05));
    EXPECT_EQ(w.events[0].detail, toString(HybridMode::LdoMode));
}

TEST(SignalProbeTest, RingEvictsBeyondLookback)
{
    // Only the lookback window survives a late trigger: phases far
    // behind it were evicted from the ring as newer rows arrived.
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{2};
    PhaseRecord record = syntheticRecord(51);
    record.switches.push_back(
        {50, seconds(0.5), HybridMode::LdoMode});

    EXPECT_EQ(rowPhases(captureWaveform(spec, record)),
              (std::vector<uint64_t>{48, 49, 50}));
}

TEST(SignalProbeTest, BatterySocDecreasesMonotonically)
{
    ProbeSpec spec;
    spec.signals = {ProbeSignal::BatterySoc};
    Waveform w = captureWaveform(spec, syntheticRecord(10));
    ASSERT_EQ(w.rows.size(), 10u);
    for (size_t i = 1; i < w.rows.size(); ++i)
        EXPECT_LT(w.rows[i].values[0], w.rows[i - 1].values[0]);
    EXPECT_GT(w.rows.back().values[0], 0.0);
}

class ProbeSimTest : public ::testing::Test
{
  protected:
    Platform platform;
};

TEST_F(ProbeSimTest, StaticSoaFramesMatchPerPhase)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(7);
    PhaseTrace trace = gen.randomMix(30, milliseconds(5.0));

    PhaseRecord perPhase, batched;
    SimResult a = reference::staticRun(
        sim, trace, platform.pdn(PdnKind::IVR), &perPhase);
    SimResult b = sim.run(trace, platform.pdn(PdnKind::IVR), &batched);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perPhase, batched);
    EXPECT_EQ(batched.phases(), trace.phases().size());
}

TEST_F(ProbeSimTest, OracleSoaFramesMatchPerPhase)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(11);
    PhaseTrace trace = gen.burstyCompute(8, milliseconds(20.0),
                                         milliseconds(40.0));

    PhaseRecord perPhase, batched;
    SimResult a = reference::oracleRun(sim, trace, platform.flexWatts(),
                                       &perPhase);
    SimResult b = sim.runOracle(trace, platform.flexWatts(), &batched);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perPhase, batched);
}

TEST_F(ProbeSimTest, ProbeNeverPerturbsResults)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(17);
    PhaseTrace trace = gen.burstyCompute(6, milliseconds(60.0),
                                         milliseconds(80.0));

    PhaseRecord staticRecord;
    EXPECT_EQ(sim.run(trace, platform.pdn(PdnKind::MBVR)),
              sim.run(trace, platform.pdn(PdnKind::MBVR),
                      &staticRecord));

    // A random mix on the static IVR PDN, entered both as a
    // PhaseTrace and as a prebuilt PhaseSoA.
    PhaseTrace mix = TraceGenerator(7).randomMix(64, milliseconds(5.0));
    PhaseSoA soa(mix);
    const PdnModel &ivr = platform.pdn(PdnKind::IVR);
    PhaseRecord traceRecord;
    EXPECT_EQ(sim.run(mix, ivr), sim.run(mix, ivr, &traceRecord));
    PhaseRecord soaRecord;
    EXPECT_EQ(sim.run(soa, ivr), sim.run(soa, ivr, &soaRecord));
    EXPECT_EQ(traceRecord.phases(), mix.phases().size());

    PhaseRecord oracleRecord;
    EXPECT_EQ(sim.runOracle(trace, platform.flexWatts()),
              sim.runOracle(trace, platform.flexWatts(), &oracleRecord));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu bare(cfg, platform.predictor());
    SimResult unrecorded = sim.run(trace, platform.flexWatts(), bare);

    Pmu observed(cfg, platform.predictor());
    PhaseRecord pmuRecord;
    SimResult recorded = sim.run(trace, platform.flexWatts(), observed,
                                 &pmuRecord);
    EXPECT_EQ(unrecorded, recorded);
}

TEST_F(ProbeSimTest, PmuRunRecordsEveryModeSwitch)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(17);
    PhaseTrace trace = gen.burstyCompute(6, milliseconds(60.0),
                                         milliseconds(80.0));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    PhaseRecord record;
    SimResult r = sim.run(trace, platform.flexWatts(), pmu, &record);

    EXPECT_GT(record.switches.size(), 0u);
    EXPECT_EQ(record.switches.size(), r.modeSwitches);
    ASSERT_EQ(record.phases(), trace.phases().size());
    // Phase powers are phase-energy averages; their weighted sum
    // must reproduce the run's total supply energy.
    double joulesSum = 0.0;
    for (size_t p = 0; p < record.phases(); ++p)
        joulesSum += record.supplyW[p] * inSeconds(record.duration[p]);
    EXPECT_NEAR(joulesSum, inJoules(r.supplyEnergy), 1e-6);
}

TEST(WaveformIoTest, CellNameSanitizesSpecials)
{
    Waveform w;
    w.trace = "day in the life";
    w.platform = "tablet";
    w.pdn = "I+MBVR";
    w.mode = "pmu";
    EXPECT_EQ(w.cellName(),
              "day_in_the_life__tablet__I_MBVR__pmu");
}

TEST(WaveformIoTest, CounterEventsCarryCellPid)
{
    Waveform w;
    w.trace = "t";
    w.platform = "p";
    w.pdn = "FlexWatts";
    w.mode = "pmu";
    w.cellIndex = 7;
    w.signals = {ProbeSignal::Etee};
    WaveformRow row;
    row.phase = 0;
    row.start = seconds(0.25);
    row.duration = seconds(0.01);
    row.values = {0.5};
    w.rows.push_back(row);

    std::vector<JsonValue> events = waveformCounterEvents(w);
    ASSERT_EQ(events.size(), 2u); // process_name metadata + 1 sample
    const JsonValue *pid = events[0].find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->asNumber(),
              static_cast<double>(probeCounterPidBase + 7));
    const JsonValue *ts = events[1].find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->asNumber(), 250000.0); // simulated us, not wall
}

TEST(CampaignProbeTest, FirstMatchingProbeBindsAndStampsIdentity)
{
    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::library("bursty-compute", 42));
    spec.traces.push_back(
        TraceSpec::library("web-browsing-trace", 42));
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = SimMode::Pmu;

    ProbeSpec narrow;
    narrow.trace = "web-browsing-trace";
    narrow.pdn = "FlexWatts";
    narrow.signals = {ProbeSignal::SupplyPowerW, ProbeSignal::Mode};
    ProbeSpec catchAll;
    catchAll.pdn = "FlexWatts";
    spec.probes = {narrow, catchAll};

    ParallelRunner serial(1);
    CampaignResult probed = CampaignEngine(serial).run(spec);

    CampaignSpec bare = spec;
    bare.probes.clear();
    CampaignResult unprobed = CampaignEngine(serial).run(bare);

    // The campaign CSV never sees the probes.
    std::ostringstream a, b;
    probed.writeCsv(a);
    unprobed.writeCsv(b);
    EXPECT_EQ(a.str(), b.str());

    for (size_t i = 0; i < probed.cells.size(); ++i) {
        const CampaignCellResult &cell = probed.cells[i];
        if (cell.pdn != PdnKind::FlexWatts) {
            EXPECT_EQ(cell.waveform, nullptr);
            continue;
        }
        ASSERT_NE(cell.waveform, nullptr);
        EXPECT_EQ(cell.waveform->trace, cell.trace);
        EXPECT_EQ(cell.waveform->platform, cell.platform);
        EXPECT_EQ(cell.waveform->pdn, "FlexWatts");
        EXPECT_EQ(cell.waveform->mode, "pmu");
        EXPECT_EQ(cell.waveform->cellIndex, i);
        // First matching probe wins: the narrow signal subset on the
        // web-browsing cell, everything elsewhere.
        size_t expectSignals = cell.trace == "web-browsing-trace"
                                   ? 2
                                   : probeSignalCount;
        EXPECT_EQ(cell.waveform->signals.size(), expectSignals);
        EXPECT_FALSE(cell.waveform->rows.empty());
    }
}

TEST(CampaignProbeTest, WaveformsDeterministicAcrossThreadCounts)
{
    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::library("bursty-compute", 42));
    spec.traces.push_back(
        TraceSpec::library("web-browsing-trace", 42));
    spec.platforms = {ultraportablePreset(), fanlessTabletPreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = SimMode::Pmu;
    ProbeSpec all;
    spec.probes = {all};

    ParallelRunner serial(1);
    CampaignResult one = CampaignEngine(serial).run(spec);
    ParallelRunner pool(4);
    CampaignResult four = CampaignEngine(pool).run(spec);

    ASSERT_EQ(one.cells.size(), four.cells.size());
    for (size_t i = 0; i < one.cells.size(); ++i) {
        ASSERT_NE(one.cells[i].waveform, nullptr);
        ASSERT_NE(four.cells[i].waveform, nullptr);
        EXPECT_EQ(*one.cells[i].waveform, *four.cells[i].waveform);
        EXPECT_EQ(
            writeWaveformCsv(*one.cells[i].waveform),
            writeWaveformCsv(*four.cells[i].waveform));
    }
}

} // namespace
} // namespace pdnspot
