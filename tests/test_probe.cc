/**
 * @file
 * Tests for the waveform probe layer (obs/probe.hh,
 * obs/waveform_io.hh): trigger-window admission and ring eviction,
 * decimation, the SoA-vs-per-phase and probed-vs-unprobed identity
 * contracts, campaign probe binding, and the waveform CSV fixpoint.
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

ProbeFrame
frame(uint64_t phase, double startS, double durationS,
      double supplyW, double nominalW)
{
    ProbeFrame f;
    f.phase = phase;
    f.start = seconds(startS);
    f.duration = seconds(durationS);
    f.supplyPowerW = supplyW;
    f.nominalPowerW = nominalW;
    return f;
}

/** Feed `n` synthetic 10 ms / 5 W frames starting at `first`. */
void
feedFrames(SignalProbe &probe, uint64_t first, uint64_t n)
{
    for (uint64_t p = first; p < first + n; ++p)
        probe.samplePhase(frame(
            p, 0.01 * static_cast<double>(p), 0.01, 5.0, 4.0));
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
        EXPECT_EQ(probeSignalFromString(toString(s)), s);
    EXPECT_THROW(probeSignalFromString("bogus"), ConfigError);
}

TEST(SignalProbeTest, DecimationKeepsEveryNth)
{
    ProbeSpec spec;
    spec.decimate = 3;
    SignalProbe probe(spec, watts(15.0));
    feedFrames(probe, 0, 10);
    EXPECT_EQ(rowPhases(probe.take()),
              (std::vector<uint64_t>{0, 3, 6, 9}));
}

TEST(SignalProbeTest, TriggerAdmitsWindowAroundModeSwitch)
{
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{ProbeTriggerSpec::On::ModeSwitch,
                                    2};
    SignalProbe probe(spec, watts(15.0));
    feedFrames(probe, 0, 5);
    probe.modeSwitch(5, seconds(0.05), HybridMode::LdoMode);
    feedFrames(probe, 5, 5);

    Waveform w = probe.take();
    // Lookback 2 from the ring, the trigger phase, lookahead 2; the
    // rows parked in the ring when no later trigger fired are gone.
    EXPECT_EQ(rowPhases(w), (std::vector<uint64_t>{3, 4, 5, 6, 7}));
    ASSERT_EQ(w.events.size(), 1u);
    EXPECT_EQ(w.events[0].kind, "mode_switch");
    EXPECT_EQ(w.events[0].phase, 5u);
    EXPECT_EQ(w.events[0].detail, toString(HybridMode::LdoMode));
}

TEST(SignalProbeTest, TriggerCauseFilters)
{
    // A budget_clip-only trigger never arms on mode switches, but
    // the switch event itself is still recorded (events are sparse).
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{ProbeTriggerSpec::On::BudgetClip,
                                    2};
    SignalProbe probe(spec, watts(15.0));
    feedFrames(probe, 0, 5);
    probe.modeSwitch(5, seconds(0.05), HybridMode::IvrMode);
    feedFrames(probe, 5, 5);

    Waveform w = probe.take();
    EXPECT_TRUE(w.rows.empty());
    ASSERT_EQ(w.events.size(), 1u);
    EXPECT_EQ(w.events[0].kind, "mode_switch");
}

TEST(SignalProbeTest, RingEvictsBeyondLookback)
{
    // Only the lookback window survives a late trigger: phases far
    // behind it were evicted from the ring as newer rows arrived.
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{ProbeTriggerSpec::On::ModeSwitch,
                                    2};
    SignalProbe probe(spec, watts(15.0));
    feedFrames(probe, 0, 50);
    probe.modeSwitch(50, seconds(0.5), HybridMode::LdoMode);
    feedFrames(probe, 50, 1);

    EXPECT_EQ(rowPhases(probe.take()),
              (std::vector<uint64_t>{48, 49, 50}));
}

TEST(SignalProbeTest, BudgetClipEventFires)
{
    // Sustained supply power far over the shadow governor's budget
    // drives its multiplier into the clamp; the transition must
    // surface as a budget_clip event.
    ProbeSpec probeSpec;
    SignalProbe probe(probeSpec, watts(5.0));
    for (uint64_t p = 0; p < 40; ++p)
        probe.samplePhase(frame(
            p, 0.01 * static_cast<double>(p), 0.01, 40.0, 30.0));

    Waveform w = probe.take();
    bool sawClip = false;
    for (const WaveformEvent &e : w.events)
        sawClip = sawClip || e.kind == "budget_clip";
    EXPECT_TRUE(sawClip);
}

TEST(SignalProbeTest, BatterySocDecreasesMonotonically)
{
    ProbeSpec spec;
    spec.signals = {ProbeSignal::BatterySoc};
    SignalProbe probe(spec, watts(15.0));
    feedFrames(probe, 0, 10);
    Waveform w = probe.take();
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

    ProbeSpec spec;
    SignalProbe perPhase(spec, watts(15.0));
    SignalProbe batched(spec, watts(15.0));
    SimResult a = reference::staticRun(
        sim, trace, platform.pdn(PdnKind::IVR), &perPhase);
    SimResult b = sim.run(trace, platform.pdn(PdnKind::IVR), &batched);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perPhase.take(), batched.take());
}

TEST_F(ProbeSimTest, OracleSoaFramesMatchPerPhase)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(11);
    PhaseTrace trace = gen.burstyCompute(8, milliseconds(20.0),
                                         milliseconds(40.0));

    ProbeSpec spec;
    SignalProbe perPhase(spec, watts(15.0));
    SignalProbe batched(spec, watts(15.0));
    SimResult a = reference::oracleRun(sim, trace, platform.flexWatts(),
                                       &perPhase);
    SimResult b = sim.runOracle(trace, platform.flexWatts(), &batched);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perPhase.take(), batched.take());
}

TEST_F(ProbeSimTest, ProbeNeverPerturbsResults)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(17);
    PhaseTrace trace = gen.burstyCompute(6, milliseconds(60.0),
                                         milliseconds(80.0));

    ProbeSpec spec;
    SignalProbe staticProbe(spec, watts(15.0));
    EXPECT_EQ(sim.run(trace, platform.pdn(PdnKind::MBVR)),
              sim.run(trace, platform.pdn(PdnKind::MBVR), &staticProbe));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu bare(cfg, platform.predictor());
    SimResult unprobed = sim.run(trace, platform.flexWatts(), bare);

    Pmu observed(cfg, platform.predictor());
    SignalProbe pmuProbe(spec, watts(15.0));
    SimResult probed = sim.run(trace, platform.flexWatts(), observed,
                               &pmuProbe);
    EXPECT_EQ(unprobed, probed);
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
    ProbeSpec spec;
    SignalProbe probe(spec, watts(15.0));
    SimResult r = sim.run(trace, platform.flexWatts(), pmu, &probe);

    Waveform w = probe.take();
    uint64_t switches = 0;
    for (const WaveformEvent &e : w.events)
        if (e.kind == "mode_switch")
            ++switches;
    EXPECT_GT(switches, 0u);
    EXPECT_EQ(switches, r.modeSwitches);
    ASSERT_EQ(w.rows.size(), trace.phases().size());
    // Frame powers are phase-energy averages; their weighted sum
    // must reproduce the run's total supply energy.
    double joulesSum = 0.0;
    for (const WaveformRow &row : w.rows)
        joulesSum += row.values[0] * inSeconds(row.duration);
    EXPECT_NEAR(joulesSum, inJoules(r.supplyEnergy), 1e-6);
}

TEST(WaveformIoTest, CsvWriteReadFixpoint)
{
    Platform platform;
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(5);
    PhaseTrace trace = gen.burstyCompute(5, milliseconds(40.0),
                                         milliseconds(60.0));
    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    ProbeSpec spec;
    SignalProbe probe(spec, watts(15.0));
    sim.run(trace, platform.flexWatts(), pmu, &probe);

    Waveform w = probe.take();
    std::string first = writeWaveformCsv(w);
    std::istringstream in(first);
    Waveform back = readWaveformCsv(in, "fixpoint");
    EXPECT_EQ(back.signals, w.signals);
    EXPECT_EQ(back.rows, w.rows);
    EXPECT_EQ(back.events, w.events);
    EXPECT_EQ(writeWaveformCsv(back), first);
}

TEST(WaveformIoTest, ReaderRejectsMalformedInput)
{
    {
        std::istringstream in("nope\n");
        EXPECT_THROW(readWaveformCsv(in, "bad"), ConfigError);
    }
    {
        std::istringstream in(
            "record,phase,t_s,duration_s,etee,detail\n"
            "sample,0,0,0.01\n");
        EXPECT_THROW(readWaveformCsv(in, "bad"), ConfigError);
    }
    {
        std::istringstream in(
            "record,phase,t_s,duration_s,bogus_signal,detail\n");
        EXPECT_THROW(readWaveformCsv(in, "bad"), ConfigError);
    }
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

TEST(PowerBudgetTest, ClampedTracksThrottleFloor)
{
    PowerBudgetManager budget(watts(10.0));
    EXPECT_FALSE(budget.clamped());
    // Far-over-budget load drives the multiplier to its floor.
    for (int i = 0; i < 100; ++i)
        budget.observe(watts(80.0), milliseconds(10.0));
    EXPECT_TRUE(budget.clamped());
    EXPECT_DOUBLE_EQ(budget.recommendedMultiplier(),
                     PowerBudgetManager::minMultiplier);

    // Sitting at the Turbo ceiling is headroom, not a clip.
    PowerBudgetManager idle(watts(10.0));
    for (int i = 0; i < 100; ++i)
        idle.observe(watts(0.5), milliseconds(10.0));
    EXPECT_FALSE(idle.clamped());
    EXPECT_DOUBLE_EQ(idle.recommendedMultiplier(),
                     idle.maxMultiplier());
}

} // namespace
} // namespace pdnspot
