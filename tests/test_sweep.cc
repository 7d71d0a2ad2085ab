/**
 * @file
 * Unit tests for the sweep engine and its CSV export.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/sweep.hh"
#include "pmu/pmu.hh"

namespace pdnspot
{
namespace
{

class SweepTest : public ::testing::Test
{
  protected:
    SweepTest() : platform(), engine(platform, serial) {}

    Platform platform;
    ParallelRunner serial{1};
    SweepEngine engine;
};

TEST_F(SweepTest, EteeVsArShapes)
{
    std::vector<PdnKind> kinds(classicPdnKinds.begin(),
                               classicPdnKinds.end());
    SweepResult r = engine.eteeVsAr(watts(18.0),
                                    WorkloadType::MultiThread,
                                    {0.4, 0.5, 0.6, 0.7, 0.8}, kinds);
    ASSERT_EQ(r.series.size(), 3u);
    for (const SweepSeries &s : r.series) {
        ASSERT_EQ(s.points.size(), 5u);
        for (const auto &[x, y] : s.points) {
            EXPECT_GT(y, 0.5);
            EXPECT_LT(y, 1.0);
        }
    }
    // MBVR rises with AR (Observation 2).
    const SweepSeries &mbvr = r.series[1];
    EXPECT_EQ(mbvr.label, "MBVR");
    EXPECT_GT(mbvr.points.back().second, mbvr.points.front().second);
}

TEST_F(SweepTest, EteeVsTdpShowsCrossover)
{
    SweepResult r = engine.eteeVsTdp(WorkloadType::MultiThread, 0.56,
                                     {4, 10, 18, 25, 36, 50},
                                     {PdnKind::IVR, PdnKind::MBVR});
    const auto &ivr = r.series[0].points;
    const auto &mbvr = r.series[1].points;
    EXPECT_LT(ivr.front().second, mbvr.front().second); // 4 W
    EXPECT_GT(ivr.back().second, mbvr.back().second);   // 50 W
}

TEST_F(SweepTest, EteeVsCStateLadder)
{
    SweepResult r = engine.eteeVsCState({PdnKind::IVR, PdnKind::MBVR});
    ASSERT_EQ(r.series.size(), 2u);
    ASSERT_EQ(r.series[0].points.size(), batteryLifeCStates.size());
    // MBVR above IVR in every idle state.
    for (size_t i = 1; i < r.series[0].points.size(); ++i) {
        EXPECT_GT(r.series[1].points[i].second,
                  r.series[0].points[i].second);
    }
}

TEST_F(SweepTest, BomAndAreaSweeps)
{
    std::vector<PdnKind> kinds = {PdnKind::MBVR, PdnKind::FlexWatts};
    SweepResult bom = engine.bomVsTdp({4, 18, 50}, kinds);
    SweepResult area = engine.areaVsTdp({4, 18, 50}, kinds);
    for (const auto &[x, y] : bom.series[0].points)
        EXPECT_GT(y, 1.5); // MBVR
    for (const auto &[x, y] : bom.series[1].points)
        EXPECT_LT(y, 1.3); // FlexWatts
    for (const auto &[x, y] : area.series[0].points)
        EXPECT_GT(y, 1.5);
}

TEST_F(SweepTest, CsvExportWellFormed)
{
    SweepResult r = engine.eteeVsTdp(WorkloadType::MultiThread, 0.56,
                                     {4, 50},
                                     {PdnKind::IVR, PdnKind::LDO});
    std::ostringstream os;
    r.writeCsv(os);
    std::string out = os.str();
    EXPECT_EQ(out.substr(0, out.find('\n')), "TDP_W,IVR,LDO");
    // Header + two data rows.
    size_t lines = 0;
    for (char c : out)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, 3u);
}

TEST_F(SweepTest, RejectsEmptySweeps)
{
    EXPECT_THROW(engine.eteeVsAr(watts(18.0),
                                 WorkloadType::MultiThread, {},
                                 {PdnKind::IVR}),
                 ConfigError);
    EXPECT_THROW(engine.eteeVsTdp(WorkloadType::MultiThread, 0.5,
                                  {4.0}, {}),
                 ConfigError);
}

TEST_F(SweepTest, PmuCtdpReconfiguration)
{
    // cTDP: reconfiguring the budget flips the mode decision at the
    // next evaluation (4 W -> LDO-Mode, 50 W -> IVR-Mode for heavy
    // multi-thread work).
    PmuConfig cfg;
    cfg.tdp = watts(4.0);
    cfg.initialMode = HybridMode::LdoMode;
    Pmu pmu(cfg, platform.predictor());

    TracePhase heavy;
    heavy.duration = milliseconds(200.0);
    heavy.cstate = PackageCState::C0;
    heavy.type = WorkloadType::MultiThread;
    heavy.ar = 0.8;

    for (double ms = 0.0; ms <= 50.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::LdoMode);

    pmu.setTdp(watts(50.0)); // dock with active cooling
    for (double ms = 51.0; ms <= 120.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::IvrMode);

    EXPECT_THROW(pmu.setTdp(watts(0.0)), ConfigError);
}

} // anonymous namespace
} // namespace pdnspot
