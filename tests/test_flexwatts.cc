/**
 * @file
 * Unit and property tests for the FlexWatts hybrid PDN, the ETEE
 * firmware tables, the mode predictor, and the switch flow.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "flexwatts/etee_table.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "flexwatts/mode_predictor.hh"
#include "flexwatts/mode_switch.hh"
#include "pdn/rail_table.hh"
#include "pdnspot/platform.hh"
#include "power/operating_point.hh"

namespace pdnspot
{
namespace
{

class FlexWattsTest : public ::testing::Test
{
  protected:
    PlatformState
    state(double tdp_w, WorkloadType type = WorkloadType::MultiThread,
          double ar = 0.56, PackageCState cs = PackageCState::C0)
    {
        OperatingPointModel::Query q;
        q.tdp = watts(tdp_w);
        q.type = type;
        q.ar = ar;
        q.cstate = cs;
        return opm.build(q);
    }

    OperatingPointModel opm;
    FlexWattsPdn fw;
};

TEST_F(FlexWattsTest, OracleEqualsArgmaxOverModes)
{
    for (double tdp : {4.0, 18.0, 50.0}) {
        PlatformState s = state(tdp);
        double best = fw.evaluate(s).etee();
        double ivr_mode = fw.evaluate(s, HybridMode::IvrMode).etee();
        double ldo_mode = fw.evaluate(s, HybridMode::LdoMode).etee();
        EXPECT_DOUBLE_EQ(best, std::max(ivr_mode, ldo_mode)) << tdp;
    }
}

TEST_F(FlexWattsTest, PrefersLdoModeAtLowTdpIvrModeAtHigh)
{
    // Sec. 6: light/low-TDP -> LDO-Mode; heavy/high-TDP -> IVR-Mode.
    EXPECT_EQ(fw.bestMode(state(4.0)), HybridMode::LdoMode);
    EXPECT_EQ(fw.bestMode(state(50.0)), HybridMode::IvrMode);
    EXPECT_EQ(fw.bestMode(state(15.0, WorkloadType::BatteryLife, 0.3,
                                PackageCState::C8)),
              HybridMode::LdoMode);
}

TEST_F(FlexWattsTest, TrailsBestStaticPdnByLessThanOnePercent)
{
    // Sec. 7: FlexWatts performs within ~1% of the best static PDN at
    // every TDP (the resource-sharing load-line penalty).
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());
    for (double tdp : {4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0}) {
        PlatformState s = state(tdp);
        double best_static = std::max({ivr.evaluate(s).etee(),
                                       mbvr.evaluate(s).etee(),
                                       ldo.evaluate(s).etee()});
        double flex = fw.evaluate(s).etee();
        EXPECT_GT(flex, best_static - 0.015) << tdp;
    }
}

TEST_F(FlexWattsTest, BeatsIvrAcrossTheBoard)
{
    // The headline: FlexWatts never does worse than the
    // state-of-the-art IVR PDN, and is far better at low TDP.
    RailTablePdn ivr(ivrRailTable());
    for (double tdp : {4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0}) {
        PlatformState s = state(tdp);
        EXPECT_GE(fw.evaluate(s).etee() + 0.005,
                  ivr.evaluate(s).etee())
            << tdp;
    }
    EXPECT_GT(fw.evaluate(state(4.0)).etee(),
              ivr.evaluate(state(4.0)).etee() + 0.05);
}

TEST_F(FlexWattsTest, HigherLoadLineThanPureTopologies)
{
    PlatformState s = state(18.0);
    EteeResult ivr_mode = fw.evaluate(s, HybridMode::IvrMode);
    EteeResult ldo_mode = fw.evaluate(s, HybridMode::LdoMode);
    EXPECT_NEAR(inMilliohms(ivr_mode.computeLoadLine), 1.1, 1e-9);
    EXPECT_NEAR(inMilliohms(ldo_mode.computeLoadLine), 1.4, 1e-9);
}

TEST_F(FlexWattsTest, VinSizedForIvrMode)
{
    // Sec. 7: the shared V_IN carries IVR-Mode-level current (~1.8 V),
    // roughly half of what an LDO-style rail would need.
    PlatformState peak = state(50.0);
    auto rails = fw.offChipRails(peak);
    ASSERT_FALSE(rails.empty());
    EXPECT_EQ(rails[0].name, "V_IN");
    EXPECT_NEAR(inVolts(rails[0].outputVoltage), 1.8, 1e-9);

    RailTablePdn ldo(ldoRailTable());
    auto ldo_rails = ldo.offChipRails(peak);
    EXPECT_LT(inAmps(rails[0].iccMax),
              0.75 * inAmps(ldo_rails[0].iccMax));
}

TEST_F(FlexWattsTest, EteeTableMatchesDirectEvaluationOnGrid)
{
    EteeTable table(fw, opm);
    for (double tdp : {4.0, 18.0, 50.0}) {
        for (double ar : {0.4, 0.6, 0.8}) {
            for (HybridMode m : allHybridModes) {
                double direct =
                    fw.evaluate(state(tdp, WorkloadType::MultiThread,
                                      ar),
                                m)
                        .etee();
                double looked = table.lookupActive(
                    m, WorkloadType::MultiThread, watts(tdp), ar);
                EXPECT_NEAR(looked, direct, 1e-9)
                    << tdp << " " << ar << " " << toString(m);
            }
        }
    }
}

TEST_F(FlexWattsTest, EteeTableInterpolatesBetweenGridPoints)
{
    EteeTable table(fw, opm);
    double mid = table.lookupActive(
        HybridMode::IvrMode, WorkloadType::MultiThread, watts(21.5),
        0.55);
    double lo = table.lookupActive(HybridMode::IvrMode,
                                   WorkloadType::MultiThread,
                                   watts(18.0), 0.55);
    double hi = table.lookupActive(HybridMode::IvrMode,
                                   WorkloadType::MultiThread,
                                   watts(25.0), 0.55);
    EXPECT_GE(mid, std::min(lo, hi) - 1e-12);
    EXPECT_LE(mid, std::max(lo, hi) + 1e-12);
}

TEST_F(FlexWattsTest, EteeTableCStateRows)
{
    EteeTable table(fw, opm);
    for (PackageCState cs : batteryLifeCStates) {
        double ivr_mode =
            table.lookupCState(HybridMode::IvrMode, cs);
        double ldo_mode =
            table.lookupCState(HybridMode::LdoMode, cs);
        EXPECT_GT(ivr_mode, 0.2) << toString(cs);
        EXPECT_GT(ldo_mode, 0.2) << toString(cs);
        // Idle states always favor LDO-Mode (one-stage-like path).
        EXPECT_GT(ldo_mode, ivr_mode) << toString(cs);
    }
}

TEST_F(FlexWattsTest, PredictorImplementsAlgorithm1)
{
    // Algorithm 1: pick the mode with the higher stored ETEE; the
    // prediction must agree with the oracle on grid points.
    EteeTable table(fw, opm);
    ModePredictor predictor(table);
    for (double tdp : {4.0, 10.0, 18.0, 36.0, 50.0}) {
        for (WorkloadType type :
             {WorkloadType::SingleThread, WorkloadType::MultiThread,
              WorkloadType::Graphics}) {
            for (double ar : {0.4, 0.6, 0.8}) {
                PredictorInputs in;
                in.tdp = watts(tdp);
                in.ar = ar;
                in.workloadType = type;
                EXPECT_EQ(predictor.predict(in),
                          fw.bestMode(state(tdp, type, ar)))
                    << tdp << " " << toString(type) << " " << ar;
            }
        }
    }
}

TEST_F(FlexWattsTest, PredictorHysteresisSticksToCurrentMode)
{
    EteeTable table(fw, opm);
    // A huge margin should never advise a switch.
    ModePredictor sticky(table, 0.5);
    PredictorInputs in;
    in.tdp = watts(4.0); // strongly LDO-favored
    EXPECT_EQ(sticky.decide(in, HybridMode::IvrMode),
              HybridMode::IvrMode);
    // Zero margin follows Algorithm 1 exactly.
    ModePredictor bare(table, 0.0);
    EXPECT_EQ(bare.decide(in, HybridMode::IvrMode),
              HybridMode::LdoMode);
}

TEST_F(FlexWattsTest, PredictorRejectsBadHysteresis)
{
    EteeTable table(fw, opm);
    EXPECT_THROW(ModePredictor(table, -0.1), ConfigError);
    EXPECT_THROW(ModePredictor(table, 1.0), ConfigError);
}

/** Exact equality of every field an evaluation's consumers read. */
void
expectSameEvaluation(const EteeResult &got, const EteeResult &want,
                     const std::string &where)
{
    EXPECT_EQ(inWatts(got.inputPower), inWatts(want.inputPower))
        << where;
    EXPECT_EQ(inWatts(got.nominalPower), inWatts(want.nominalPower))
        << where;
    EXPECT_EQ(inWatts(got.loss.vrLoss), inWatts(want.loss.vrLoss))
        << where;
    EXPECT_EQ(inWatts(got.loss.conductionCompute),
              inWatts(want.loss.conductionCompute))
        << where;
    EXPECT_EQ(inWatts(got.loss.conductionUncore),
              inWatts(want.loss.conductionUncore))
        << where;
    EXPECT_EQ(inWatts(got.loss.other), inWatts(want.loss.other))
        << where;
    EXPECT_EQ(inAmps(got.chipInputCurrent),
              inAmps(want.chipInputCurrent))
        << where;
    EXPECT_EQ(inMilliohms(got.computeLoadLine),
              inMilliohms(want.computeLoadLine))
        << where;
}

TEST_F(FlexWattsTest, ModesAreTheImbvrAndLdoTopologies)
{
    // Sec. 6: the hybrid rail in IVR-Mode is the I+MBVR topology and
    // in LDO-Mode the LDO topology, each at FlexWatts' shared-resource
    // TOB and load-lines, with SA/IO on dedicated off-chip VRs.
    FlexWattsParams p;
    for (const PlatformConfig &preset : allPlatformPresets()) {
        FlexWattsPdn flex(preset.pdnParams, p);
        RailTablePdn imbvr(imbvrRailTable({.tob = p.tobIvrMode,
                                           .rllIn = p.rllInIvrMode,
                                           .rllSa = p.rllSa,
                                           .rllIo = p.rllIo}),
                           preset.pdnParams);
        RailTablePdn ldo(ldoRailTable({.tob = p.tobLdoMode,
                                       .rllIn = p.rllInLdoMode,
                                       .rllSa = p.rllSa,
                                       .rllIo = p.rllIo}),
                         preset.pdnParams);

        std::vector<OperatingPointModel::Query> grid;
        OperatingPointModel::Query q;
        q.tdp = preset.tdp;
        for (WorkloadType type : allWorkloadTypes) {
            q.type = type;
            for (double ar : {0.2, 0.5, 0.9}) {
                q.ar = ar;
                grid.push_back(q);
            }
        }
        q.type = WorkloadType::BatteryLife;
        for (PackageCState cs : batteryLifeCStates) {
            q.cstate = cs;
            grid.push_back(q);
        }

        for (const OperatingPointModel::Query &point : grid) {
            PlatformState s = opm.build(point);
            std::string where = preset.name + " " +
                                toString(point.type) + " AR " +
                                std::to_string(point.ar) + " " +
                                toString(point.cstate);
            expectSameEvaluation(flex.evaluate(s, HybridMode::IvrMode),
                                 imbvr.evaluate(s), where + " IVR-Mode");
            expectSameEvaluation(flex.evaluate(s, HybridMode::LdoMode),
                                 ldo.evaluate(s), where + " LDO-Mode");
            EteeResult winner;
            HybridMode best = flex.bestMode(s, &winner);
            EXPECT_EQ(best, flex.bestMode(s)) << where;
            expectSameEvaluation(winner, flex.evaluate(s, best),
                                 where + " oracle");

            std::vector<OffChipRail> rails = flex.offChipRails(s);
            std::vector<OffChipRail> want = imbvr.offChipRails(s);
            ASSERT_EQ(rails.size(), want.size()) << where;
            for (size_t i = 0; i < rails.size(); ++i) {
                EXPECT_EQ(rails[i].name, want[i].name) << where;
                EXPECT_EQ(inVolts(rails[i].outputVoltage),
                          inVolts(want[i].outputVoltage))
                    << where << " " << want[i].name;
                EXPECT_EQ(inAmps(rails[i].iccMax),
                          inAmps(want[i].iccMax))
                    << where << " " << want[i].name;
            }
        }
    }
}

TEST_F(FlexWattsTest, LdoModeAreaOverheadMatchesPaper)
{
    // Sec. 6: ~0.041 mm^2 per hybrid rail at 14 nm.
    EXPECT_NEAR(
        inSquareMillimetres(FlexWattsPdn::ldoModeAreaOverhead()), 0.041,
        1e-12);
}

TEST(ModeSwitchFlowTest, TotalLatencyMatchesPaper)
{
    // Sec. 6: 45 + 19 + 30 = 94 us.
    ModeSwitchParams p;
    EXPECT_NEAR(inMicroseconds(p.totalLatency()), 94.0, 1e-9);
}

TEST(ModeSwitchFlowTest, SwitchLifecycle)
{
    ModeSwitchFlow flow(HybridMode::IvrMode);
    EXPECT_FALSE(flow.switching(seconds(0.0)));

    EXPECT_TRUE(flow.requestSwitch(milliseconds(1.0),
                                   HybridMode::LdoMode));
    EXPECT_EQ(flow.mode(), HybridMode::LdoMode);
    EXPECT_TRUE(flow.switching(milliseconds(1.05)));
    EXPECT_FALSE(flow.switching(milliseconds(1.1)));
    EXPECT_EQ(flow.switchCount(), 1u);

    // Same-mode requests and in-flight requests are rejected.
    EXPECT_FALSE(flow.requestSwitch(milliseconds(2.0),
                                    HybridMode::LdoMode));
    EXPECT_TRUE(flow.requestSwitch(milliseconds(3.0),
                                   HybridMode::IvrMode));
    EXPECT_FALSE(flow.requestSwitch(milliseconds(3.00005),
                                    HybridMode::LdoMode));
    EXPECT_EQ(flow.switchCount(), 2u);
}

TEST(ModeSwitchFlowTest, OverheadAccounting)
{
    ModeSwitchFlow flow(HybridMode::IvrMode);
    flow.requestSwitch(milliseconds(1.0), HybridMode::LdoMode);
    flow.requestSwitch(milliseconds(2.0), HybridMode::IvrMode);
    EXPECT_NEAR(inMicroseconds(flow.totalOverheadTime()), 188.0, 1e-9);
    // Energy = flow power * overhead time.
    EXPECT_NEAR(inJoules(flow.totalOverheadEnergy()),
                inWatts(flow.params().flowPower) * 188e-6, 1e-12);
}

TEST(ModeSwitchFlowTest, WellBelowDvfsLatency)
{
    // Sec. 6 argues 94 us is acceptable because DVFS transitions can
    // take up to 500 us.
    ModeSwitchParams p;
    EXPECT_LT(inMicroseconds(p.totalLatency()), 500.0);
}

} // anonymous namespace
} // namespace pdnspot
