/**
 * @file
 * Integration tests asserting the paper's headline results hold in
 * shape: who wins, by roughly what factor, where crossovers fall
 * (Sec. 7 of the paper).
 */

#include <gtest/gtest.h>

#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"
#include "workload/gfx_3dmark06.hh"
#include "workload/spec_cpu2006.hh"

namespace pdnspot
{
namespace
{

class HeadlineResults : public ::testing::Test
{
  protected:
    HeadlineResults() : platform() {}

    Platform platform;
    ParallelRunner serial{1};
};

TEST_F(HeadlineResults, SpecAt4WGainsRoughly22Percent)
{
    // Paper: FlexWatts improves average SPEC CPU2006 performance at
    // 4 W TDP by ~22% over the IVR PDN.
    double flex = suiteMeanRelativePerf(platform, PdnKind::FlexWatts,
                                        watts(4.0), specCpu2006(), serial);
    EXPECT_GT(flex, 1.17);
    EXPECT_LT(flex, 1.32);
}

TEST_F(HeadlineResults, GraphicsAt4WGainsRoughly25Percent)
{
    // Paper: ~25% average 3DMark06 gain at 4 W TDP.
    double flex = suiteMeanRelativePerf(platform, PdnKind::FlexWatts,
                                        watts(4.0), gfx3dmark06(), serial);
    EXPECT_GT(flex, 1.19);
    EXPECT_LT(flex, 1.35);
}

TEST_F(HeadlineResults, FlexWattsWithin1PercentOfBestStaticOnSpec)
{
    // Paper Fig. 8a: FlexWatts trails the per-TDP best PDN by <1%.
    for (double tdp : evaluationTdpsW) {
        double best = 0.0;
        for (PdnKind kind : {PdnKind::MBVR, PdnKind::LDO,
                             PdnKind::IplusMBVR}) {
            best = std::max(best,
                            suiteMeanRelativePerf(platform, kind,
                                                  watts(tdp),
                                                  specCpu2006(), serial));
        }
        best = std::max(best, 1.0); // IVR itself
        double flex = suiteMeanRelativePerf(platform,
                                            PdnKind::FlexWatts,
                                            watts(tdp), specCpu2006(), serial);
        EXPECT_GT(flex, best - 0.015) << tdp;
    }
}

TEST_F(HeadlineResults, FlexWattsNeverLosesToIvrOnSpec)
{
    for (double tdp : evaluationTdpsW) {
        double flex = suiteMeanRelativePerf(platform,
                                            PdnKind::FlexWatts,
                                            watts(tdp), specCpu2006(), serial);
        EXPECT_GE(flex, 0.995) << tdp;
    }
}

TEST_F(HeadlineResults, MbvrLosesAtHighTdpOnSpec)
{
    // Fig. 8a: MBVR falls below the IVR baseline at 36-50 W.
    double mbvr = suiteMeanRelativePerf(platform, PdnKind::MBVR,
                                        watts(50.0), specCpu2006(), serial);
    EXPECT_LT(mbvr, 1.0);
}

TEST_F(HeadlineResults, GraphicsCrossoverAbove18W)
{
    // Fig. 8b: MBVR/LDO lead at low TDP; by 25-50 W the IVR-style
    // PDNs (IVR, I+MBVR, FlexWatts in IVR-Mode) win.
    double mbvr_4 = suiteMeanRelativePerf(platform, PdnKind::MBVR,
                                          watts(4.0), gfx3dmark06(), serial);
    EXPECT_GT(mbvr_4, 1.1);
    double mbvr_50 = suiteMeanRelativePerf(platform, PdnKind::MBVR,
                                           watts(50.0), gfx3dmark06(), serial);
    EXPECT_LT(mbvr_50, 0.95);
    double flex_50 = suiteMeanRelativePerf(platform,
                                           PdnKind::FlexWatts,
                                           watts(50.0), gfx3dmark06(), serial);
    EXPECT_GT(flex_50, mbvr_50 + 0.02);
}

TEST_F(HeadlineResults, IplusMbvrModestGainOverIvr)
{
    // Paper: I+MBVR provides up to ~6% over IVR but trails FlexWatts
    // by a wide margin at low TDP.
    double imbvr = suiteMeanRelativePerf(platform, PdnKind::IplusMBVR,
                                         watts(4.0), specCpu2006(), serial);
    double flex = suiteMeanRelativePerf(platform, PdnKind::FlexWatts,
                                        watts(4.0), specCpu2006(), serial);
    EXPECT_GT(imbvr, 1.02);
    EXPECT_LT(imbvr, 1.15);
    EXPECT_GT(flex, imbvr + 0.08);
}

TEST_F(HeadlineResults, VideoPlaybackPowerReduction)
{
    // Paper: FlexWatts reduces video-playback average power by ~11%
    // vs the IVR PDN (8-12% across battery-life workloads).
    double ivr = inWatts(batteryAveragePower(platform, PdnKind::IVR,
                                             videoPlayback()));
    double flex = inWatts(batteryAveragePower(
        platform, PdnKind::FlexWatts, videoPlayback()));
    double reduction = 1.0 - flex / ivr;
    EXPECT_GT(reduction, 0.07);
    EXPECT_LT(reduction, 0.17);
}

TEST_F(HeadlineResults, BatteryFlexWattsWithin1PercentOfMbvr)
{
    // Paper Fig. 8c: FlexWatts consumes at most ~1% more than MBVR
    // on battery-life workloads.
    for (const BatteryProfile &p : batteryLifeWorkloads()) {
        double mbvr = inWatts(batteryAveragePower(platform,
                                                  PdnKind::MBVR, p));
        double flex = inWatts(batteryAveragePower(
            platform, PdnKind::FlexWatts, p));
        EXPECT_LT(flex / mbvr, 1.012) << p.name;
    }
}

TEST_F(HeadlineResults, BatteryReductionShrinksWithActivity)
{
    // Fig. 8c: the FlexWatts-vs-IVR gap is largest for the most
    // idle-dominated workload (video playback).
    auto reduction = [&](const BatteryProfile &p) {
        double ivr = inWatts(
            batteryAveragePower(platform, PdnKind::IVR, p));
        double flex = inWatts(
            batteryAveragePower(platform, PdnKind::FlexWatts, p));
        return 1.0 - flex / ivr;
    };
    EXPECT_GT(reduction(videoPlayback()),
              reduction(lightGaming()));
}

TEST_F(HeadlineResults, Fig7OrderingTracksScalability)
{
    // Fig. 7: per-benchmark gains grow with performance-scalability;
    // the most scalable benchmark gains the most.
    auto rel = suiteRelativePerf(platform, PdnKind::FlexWatts,
                                 watts(4.0), specCpu2006(), serial);
    ASSERT_EQ(rel.size(), 29u);
    EXPECT_GT(rel.back(), rel.front());
    // Sorted input implies (weakly) sorted gains in our model.
    for (size_t i = 1; i < rel.size(); ++i)
        EXPECT_GE(rel[i] + 1e-9, rel[i - 1]) << i;
    // The top benchmark approaches the full frequency gain.
    EXPECT_GT(rel.back(), 1.25);
}

TEST_F(HeadlineResults, BomAndAreaComparableToIvr)
{
    // Paper: "FlexWatts has comparable cost and area overhead to IVR."
    for (double tdp : evaluationTdpsW) {
        EXPECT_LT(normalizedBom(platform, PdnKind::FlexWatts,
                                watts(tdp)),
                  1.25)
            << tdp;
        EXPECT_LT(normalizedArea(platform, PdnKind::FlexWatts,
                                 watts(tdp)),
                  1.40)
            << tdp;
    }
}

TEST_F(HeadlineResults, ModePolicyMatchesPaperNarrative)
{
    // Sec. 7: FlexWatts operates mainly in LDO-Mode below ~18 W and
    // mainly in IVR-Mode at high TDP for CPU workloads.
    const FlexWattsPdn &fw = platform.flexWatts();
    const OperatingPointModel &opm = platform.operatingPoints();

    OperatingPointModel::Query q;
    q.type = WorkloadType::MultiThread;
    q.tdp = watts(4.0);
    EXPECT_EQ(fw.bestMode(opm.build(q)), HybridMode::LdoMode);
    q.tdp = watts(10.0);
    EXPECT_EQ(fw.bestMode(opm.build(q)), HybridMode::LdoMode);
    q.tdp = watts(50.0);
    EXPECT_EQ(fw.bestMode(opm.build(q)), HybridMode::IvrMode);
}

} // anonymous namespace
} // namespace pdnspot
