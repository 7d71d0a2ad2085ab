/**
 * @file
 * Unit and property tests across the five PDN topologies.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "flexwatts/pdn_factory.hh"
#include "golden.hh"
#include "pdn/rail_table.hh"
#include "power/operating_point.hh"

namespace pdnspot
{
namespace
{

class PdnTopologies : public ::testing::Test
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
};

TEST_F(PdnTopologies, FactoryProducesAllKinds)
{
    for (PdnKind kind : allPdnKinds) {
        auto pdn = makePdn(kind);
        ASSERT_NE(pdn, nullptr);
        EXPECT_EQ(pdn->kind(), kind);
        EXPECT_EQ(pdn->name(), toString(kind));
    }
}

TEST_F(PdnTopologies, KindNamesRoundTripFromOneSourceOfTruth)
{
    for (PdnKind kind : allPdnKinds) {
        EXPECT_EQ(parseName<PdnKind>(toString(kind)), kind);
    }
    EXPECT_THROW(parseName<PdnKind>("ivr"), ConfigError);
    EXPECT_THROW(parseName<PdnKind>(""), ConfigError);
}

TEST_F(PdnTopologies, EnergyConservationInvariant)
{
    // input = nominal + sum(losses) must hold exactly for every
    // topology at every operating point.
    for (PdnKind kind : allPdnKinds) {
        auto pdn = makePdn(kind);
        for (double tdp : {4.0, 18.0, 50.0}) {
            for (WorkloadType type :
                 {WorkloadType::SingleThread, WorkloadType::MultiThread,
                  WorkloadType::Graphics}) {
                EteeResult r = pdn->evaluate(state(tdp, type));
                EXPECT_NEAR(inWatts(r.inputPower),
                            inWatts(r.nominalPower + r.loss.total()),
                            1e-9)
                    << toString(kind) << " " << tdp << "W "
                    << toString(type);
            }
        }
    }
}

TEST_F(PdnTopologies, EteeInPlausibleBand)
{
    for (PdnKind kind : allPdnKinds) {
        auto pdn = makePdn(kind);
        for (double tdp : {4.0, 10.0, 25.0, 50.0}) {
            double etee = pdn->evaluate(state(tdp)).etee();
            EXPECT_GT(etee, 0.40) << toString(kind) << " " << tdp;
            EXPECT_LT(etee, 0.95) << toString(kind) << " " << tdp;
        }
    }
}

TEST_F(PdnTopologies, IvrReducesChipInputCurrent)
{
    // Fig. 5: the MBVR PDN's chip input current is ~2x the IVR PDN's
    // because the IVR brings 1.8 V into the package.
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    PlatformState s = state(18.0);
    double ratio = mbvr.evaluate(s).chipInputCurrent /
                   ivr.evaluate(s).chipInputCurrent;
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.8);
}

TEST_F(PdnTopologies, LoadLineImpedancesMatchTable2)
{
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());
    PlatformState s = state(18.0);
    EXPECT_NEAR(inMilliohms(ivr.evaluate(s).computeLoadLine), 1.0,
                1e-9);
    EXPECT_NEAR(inMilliohms(mbvr.evaluate(s).computeLoadLine), 2.5,
                1e-9);
    EXPECT_NEAR(inMilliohms(ldo.evaluate(s).computeLoadLine), 1.25,
                1e-9);
}

TEST_F(PdnTopologies, Observation1LowTdpFavorsMbvrLdo)
{
    // Sec. 5 Observation 1: at 4 W the IVR PDN trails MBVR and LDO;
    // at 50 W it leads both.
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());

    PlatformState low = state(4.0);
    EXPECT_LT(ivr.evaluate(low).etee() + 0.04, mbvr.evaluate(low).etee());
    EXPECT_LT(ivr.evaluate(low).etee() + 0.04, ldo.evaluate(low).etee());

    PlatformState high = state(50.0);
    EXPECT_GT(ivr.evaluate(high).etee(), mbvr.evaluate(high).etee());
    EXPECT_GT(ivr.evaluate(high).etee(), ldo.evaluate(high).etee());
}

TEST_F(PdnTopologies, Observation1CrossoverBetween4And50)
{
    // The IVR-vs-MBVR ETEE crossover falls inside the TDP range,
    // near 18 W for CPU workloads.
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    double prev_gap = 0.0;
    bool crossed = false;
    for (double tdp = 4.0; tdp <= 50.0; tdp += 2.0) {
        PlatformState s = state(tdp);
        double gap = ivr.evaluate(s).etee() - mbvr.evaluate(s).etee();
        if (prev_gap < 0.0 && gap >= 0.0) {
            crossed = true;
            EXPECT_GT(tdp, 10.0);
            EXPECT_LT(tdp, 26.0);
        }
        prev_gap = gap;
    }
    EXPECT_TRUE(crossed);
}

TEST_F(PdnTopologies, Observation2EteeRisesWithArForBoardPdns)
{
    // Fig. 4: MBVR/LDO ETEE increases with AR (load-line guardband
    // shrinks); the effect is most pronounced at high TDP.
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());
    for (double tdp : {18.0, 50.0}) {
        double m_lo = mbvr.evaluate(state(tdp, WorkloadType::MultiThread,
                                          0.4))
                          .etee();
        double m_hi = mbvr.evaluate(state(tdp, WorkloadType::MultiThread,
                                          0.8))
                          .etee();
        EXPECT_GT(m_hi, m_lo) << tdp;
        double l_lo = ldo.evaluate(state(tdp, WorkloadType::MultiThread,
                                         0.4))
                          .etee();
        double l_hi = ldo.evaluate(state(tdp, WorkloadType::MultiThread,
                                         0.8))
                          .etee();
        EXPECT_GT(l_hi, l_lo) << tdp;
    }
}

TEST_F(PdnTopologies, Observation2LdoSuffersOnGraphics)
{
    // Sec. 5 Observation 2: the LDO PDN loses efficiency on graphics
    // workloads (core LDOs regulate far below the GFX-driven V_IN),
    // falling below MBVR at mid/high TDPs.
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());
    {
        PlatformState gfx = state(18.0, WorkloadType::Graphics);
        EXPECT_LT(ldo.evaluate(gfx).etee(), mbvr.evaluate(gfx).etee());
    }
    // ... while it beats MBVR on CPU-intensive work.
    PlatformState cpu = state(18.0, WorkloadType::MultiThread);
    EXPECT_GT(ldo.evaluate(cpu).etee(), mbvr.evaluate(cpu).etee());
}

TEST_F(PdnTopologies, Observation3IvrCollapsesInIdleStates)
{
    // Fig. 4j: in package C-states the IVR PDN's two-stage conversion
    // is far less efficient than MBVR/LDO.
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());
    RailTablePdn ldo(ldoRailTable());
    for (PackageCState cs :
         {PackageCState::C2, PackageCState::C6, PackageCState::C8}) {
        PlatformState s = state(15.0, WorkloadType::BatteryLife, 0.3,
                                cs);
        double e_ivr = ivr.evaluate(s).etee();
        EXPECT_GT(mbvr.evaluate(s).etee(), e_ivr + 0.05)
            << toString(cs);
        EXPECT_GT(ldo.evaluate(s).etee(), e_ivr + 0.05)
            << toString(cs);
    }
}

TEST_F(PdnTopologies, Fig5LossBreakdownShapes)
{
    // At 4 W, VR inefficiency dominates and the IVR PDN pays the
    // two-stage premium; at 50 W, MBVR's compute conduction loss
    // explodes while IVR's stays small.
    RailTablePdn ivr(ivrRailTable());
    RailTablePdn mbvr(mbvrRailTable());

    EteeResult ivr4 = ivr.evaluate(state(4.0));
    EteeResult mbvr4 = mbvr.evaluate(state(4.0));
    EXPECT_GT(ivr4.lossFraction(ivr4.loss.vrLoss),
              mbvr4.lossFraction(mbvr4.loss.vrLoss) + 0.03);

    EteeResult ivr50 = ivr.evaluate(state(50.0));
    EteeResult mbvr50 = mbvr.evaluate(state(50.0));
    EXPECT_GT(mbvr50.lossFraction(mbvr50.loss.conductionCompute),
              3.0 * ivr50.lossFraction(ivr50.loss.conductionCompute));
    // MBVR compute conduction grows steeply with TDP.
    EteeResult mbvr18 = mbvr.evaluate(state(18.0));
    EXPECT_GT(mbvr50.lossFraction(mbvr50.loss.conductionCompute),
              mbvr18.lossFraction(mbvr18.loss.conductionCompute));
}

TEST_F(PdnTopologies, IdleRailsPowerDown)
{
    // In C8 only SA/IO draw; PDNs with dedicated uncore rails shut
    // the compute rail entirely.
    PlatformState s = state(15.0, WorkloadType::BatteryLife, 0.3,
                            PackageCState::C8);
    for (PdnKind kind : allPdnKinds) {
        auto pdn = makePdn(kind);
        EteeResult r = pdn->evaluate(s);
        EXPECT_NEAR(inWatts(r.nominalPower), 0.13, 0.01)
            << toString(kind);
        EXPECT_LT(inWatts(r.inputPower), 0.35) << toString(kind);
    }
}

TEST_F(PdnTopologies, OffChipRailCounts)
{
    // Fig. 1: IVR exposes one off-chip rail (V_IN); MBVR four;
    // LDO three; I+MBVR and FlexWatts three.
    PlatformState peak = state(50.0);
    EXPECT_EQ(makePdn(PdnKind::IVR)->offChipRails(peak).size(), 1u);
    EXPECT_EQ(makePdn(PdnKind::MBVR)->offChipRails(peak).size(), 4u);
    EXPECT_EQ(makePdn(PdnKind::LDO)->offChipRails(peak).size(), 3u);
    EXPECT_EQ(makePdn(PdnKind::IplusMBVR)->offChipRails(peak).size(),
              3u);
    EXPECT_EQ(makePdn(PdnKind::FlexWatts)->offChipRails(peak).size(),
              3u);
}

TEST_F(PdnTopologies, RejectsTablesItCannotWalk)
{
    // deliver() sums the compute rails, then the uncore rails; a
    // by-load-share rail must be the only one.
    RailTable uncore_first = ldoRailTable();
    std::swap(uncore_first.rows[0], uncore_first.rows[1]);
    EXPECT_THROW(RailTablePdn{uncore_first}, ConfigError);

    RailTable compute_only = mbvrRailTable();
    compute_only.rows.resize(2);
    EXPECT_THROW(RailTablePdn{compute_only}, ConfigError);

    RailTable shared_plus_uncore = ivrRailTable();
    shared_plus_uncore.rows.push_back(ldoRailTable().rows[1]);
    EXPECT_THROW(RailTablePdn{shared_plus_uncore}, ConfigError);

    RailTable past_the_demand = mbvrRailTable();
    past_the_demand.firstRail = PdnDemand::maxRails - 3;
    EXPECT_THROW(RailTablePdn{past_the_demand}, ConfigError);

    RailTable empty = ivrRailTable();
    empty.rows.clear();
    EXPECT_THROW(RailTablePdn{empty}, ConfigError);
}

TEST_F(PdnTopologies, LdoInputRailCarriesMoreCurrentThanIvrs)
{
    // The LDO V_IN runs at ~1 V instead of 1.8 V, so its Iccmax is
    // far higher for the same compute power.
    PlatformState peak = state(50.0);
    auto ldo_rails = makePdn(PdnKind::LDO)->offChipRails(peak);
    auto ivr_rails = makePdn(PdnKind::IVR)->offChipRails(peak);
    EXPECT_GT(inAmps(ldo_rails[0].iccMax),
              1.3 * inAmps(ivr_rails[0].iccMax));
}

/** One golden line: every EteeResult field as a hex float. */
std::string
goldenLine(const std::string &label, const EteeResult &r)
{
    return strprintf("%s nominal=%a input=%a vr=%a cond_compute=%a "
                     "cond_uncore=%a other=%a icc=%a rll=%a\n",
                     label.c_str(), r.nominalPower.value(),
                     r.inputPower.value(), r.loss.vrLoss.value(),
                     r.loss.conductionCompute.value(),
                     r.loss.conductionUncore.value(),
                     r.loss.other.value(), r.chipInputCurrent.value(),
                     r.computeLoadLine.value());
}

TEST_F(PdnTopologies, GridMatchesGolden)
{
    // Bit-exact pin of every topology's demand, delivery and rail
    // sizing: a refactor of the PDN models must leave each hex float
    // of tests/golden/pdn_grid.txt as it is.
    std::vector<std::unique_ptr<PdnModel>> pdns;
    for (PdnKind kind : allPdnKinds)
        pdns.push_back(makePdn(kind));
    FlexWattsPdn flex;

    std::string out;
    for (double tdp : {4.0, 8.0, 10.0, 15.0, 18.0, 25.0, 36.0, 45.0,
                       50.0}) {
        for (WorkloadType type : allWorkloadTypes) {
            for (int ai = 1; ai <= 20; ++ai) {
                double ar = ai / 20.0;
                PlatformState s = state(tdp, type, ar);
                std::string where = strprintf(
                    "%gW %s ar=%a", tdp, toString(type).c_str(), ar);
                for (const auto &pdn : pdns)
                    out += goldenLine("evaluate " + pdn->name() + " " +
                                          where,
                                      pdn->evaluate(s));
                PdnDemand d = flex.demand(s);
                for (HybridMode m : allHybridModes)
                    out += goldenLine("deliver FlexWatts/" +
                                          toString(m) + " " + where,
                                      flex.deliver(d, ar, m));
            }
        }
    }

    for (PackageCState cs : batteryLifeCStates) {
        PlatformState s = state(15.0, WorkloadType::BatteryLife, 0.3, cs);
        std::string where = "15W battery-life " + toString(cs);
        for (const auto &pdn : pdns)
            out += goldenLine("evaluate " + pdn->name() + " " + where,
                              pdn->evaluate(s));
        PdnDemand d = flex.demand(s);
        for (HybridMode m : allHybridModes)
            out += goldenLine("deliver FlexWatts/" + toString(m) + " " +
                                  where,
                              flex.deliver(d, s.ar, m));
    }

    for (double tdp : {4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0}) {
        for (WorkloadType type :
             {WorkloadType::SingleThread, WorkloadType::MultiThread,
              WorkloadType::Graphics}) {
            PlatformState peak = state(tdp, type, 1.0);
            for (const auto &pdn : pdns)
                for (const OffChipRail &rail : pdn->offChipRails(peak))
                    out += strprintf(
                        "rails %s %gW %s %s V=%a A=%a\n",
                        pdn->name().c_str(), tdp,
                        toString(type).c_str(), rail.name.c_str(),
                        rail.outputVoltage.value(), rail.iccMax.value());
        }
    }

    checkGolden("pdn_grid.txt", out);
}

/**
 * Property sweep: invariants hold over a broad operating grid.
 *
 * gtest lists each case with a hex dump of its raw parameter bytes, so
 * the padding after the two enums is spelled out and zeroed; left
 * implicit it picks up stack garbage and the listed test name changes
 * from run to run.
 */
struct GridParam
{
    PdnKind kind;
    std::uint32_t pad0 = 0;
    double tdp;
    WorkloadType type;
    std::uint32_t pad1 = 0;
    double ar;
};
static_assert(sizeof(GridParam) == sizeof(PdnKind) + sizeof(WorkloadType) +
                                       2 * sizeof(std::uint32_t) +
                                       2 * sizeof(double),
              "GridParam must have no implicit padding");

class PdnGrid : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(PdnGrid, InvariantsHold)
{
    const GridParam &p = GetParam();
    OperatingPointModel opm;
    OperatingPointModel::Query q;
    q.tdp = watts(p.tdp);
    q.type = p.type;
    q.ar = p.ar;
    PlatformState s = opm.build(q);

    auto pdn = makePdn(p.kind);
    EteeResult r = pdn->evaluate(s);

    EXPECT_GT(r.inputPower, r.nominalPower);
    EXPECT_NEAR(inWatts(r.inputPower),
                inWatts(r.nominalPower + r.loss.total()), 1e-9);
    EXPECT_GE(inWatts(r.loss.vrLoss), 0.0);
    EXPECT_GE(inWatts(r.loss.conductionCompute), 0.0);
    EXPECT_GE(inWatts(r.loss.conductionUncore), 0.0);
    EXPECT_GE(inWatts(r.loss.other), 0.0);
    EXPECT_GT(inAmps(r.chipInputCurrent), 0.0);
    EXPECT_GT(r.etee(), 0.3);
    EXPECT_LT(r.etee(), 1.0);
}

std::vector<GridParam>
gridParams()
{
    std::vector<GridParam> params;
    for (PdnKind kind : allPdnKinds)
        for (double tdp : {4.0, 10.0, 25.0, 50.0})
            for (WorkloadType type :
                 {WorkloadType::SingleThread, WorkloadType::MultiThread,
                  WorkloadType::Graphics})
                for (double ar : {0.4, 0.56, 0.8})
                    params.push_back({kind, 0, tdp, type, 0, ar});
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PdnGrid, ::testing::ValuesIn(gridParams()),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        const GridParam &p = info.param;
        std::string name = toString(p.kind) + "_" +
                           std::to_string(int(p.tdp)) + "W_" +
                           toString(p.type) + "_ar" +
                           std::to_string(int(p.ar * 100));
        for (char &c : name)
            if (c == '+' || c == '-')
                c = '_';
        return name;
    });

} // anonymous namespace
} // namespace pdnspot
