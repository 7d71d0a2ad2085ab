/**
 * @file
 * Unit tests for the on-chip regulators: the IVR and the LDO VR.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "vr/ivr.hh"
#include "vr/ldo_vr.hh"

namespace pdnspot
{
namespace
{

Ivr
ivr()
{
    return Ivr(IvrParams{.name = "ivr-test"});
}

TEST(Ivr, EfficiencyWithinTable2Band)
{
    // Table 2: measured IVR efficiency 81-88% across the operational
    // range (Vin 1.8 V, Vout 0.6-1.1 V, load currents above ~1 A).
    Ivr v = ivr();
    for (double vout : {0.6, 0.8, 1.0, 1.1}) {
        for (double iout : {1.0, 3.0, 8.0, 20.0}) {
            double eta = v.efficiency(volts(1.8), volts(vout),
                                      amps(iout));
            EXPECT_GT(eta, 0.77) << vout << "V " << iout << "A";
            EXPECT_LT(eta, 0.90) << vout << "V " << iout << "A";
        }
    }
}

TEST(Ivr, LightLoadCollapse)
{
    // The two-stage IVR PDN's battery-life weakness (Observation 3):
    // fixed losses dominate at milliwatt-class loads.
    Ivr v = ivr();
    double at_3a = v.efficiency(volts(1.8), volts(0.75), amps(3.0));
    double at_50ma = v.efficiency(volts(1.8), volts(0.75), amps(0.05));
    EXPECT_GT(at_3a, 0.8);
    EXPECT_LT(at_50ma, 0.7);
}

TEST(Ivr, HeadroomAndLimits)
{
    Ivr v = ivr();
    EXPECT_FALSE(v.canConvert(volts(1.0), volts(0.9)));
    EXPECT_THROW(v.loss(volts(1.0), volts(0.9), amps(1.0)),
                 ConfigError);
    EXPECT_THROW(v.loss(volts(1.8), volts(1.0), amps(100.0)),
                 ConfigError);
    EXPECT_THROW(v.loss(volts(1.8), volts(1.0), amps(-1.0)),
                 ConfigError);
}

TEST(Ivr, ZeroLoadBehaviour)
{
    Ivr v = ivr();
    EXPECT_DOUBLE_EQ(v.efficiency(volts(1.8), volts(1.0), amps(0.0)),
                     0.0);
    EXPECT_DOUBLE_EQ(
        inWatts(v.inputPower(volts(1.8), volts(1.0), watts(0.0))), 0.0);
}

TEST(Ldo, EfficiencyIsEq10)
{
    // Eq. 10: eta = (Vout/Vin) * Ie with Ie = 99.1%.
    LdoVr ldo(LdoParams{.name = "ldo-test"});
    EXPECT_NEAR(ldo.efficiency(volts(0.9), volts(0.5)),
                (0.5 / 0.9) * 0.991, 1e-12);
    EXPECT_NEAR(ldo.efficiency(volts(1.0), volts(0.9)),
                0.9 * 0.991, 1e-12);
}

TEST(Ldo, BypassKeepsOnlyCurrentEfficiencyLoss)
{
    LdoVr ldo(LdoParams{.name = "ldo-test"});
    EXPECT_EQ(ldo.modeFor(volts(0.9), volts(0.9)), LdoMode::Bypass);
    EXPECT_NEAR(ldo.efficiency(volts(0.9), volts(0.9)), 0.991, 1e-12);
}

TEST(Ldo, ModeSelection)
{
    LdoVr ldo(LdoParams{.name = "ldo-test"});
    EXPECT_EQ(ldo.modeFor(volts(1.0), volts(0.5)), LdoMode::Regulation);
    EXPECT_EQ(ldo.modeFor(volts(1.0), volts(0.99)), LdoMode::Bypass);
    EXPECT_EQ(ldo.modeFor(volts(1.0), volts(0.0)), LdoMode::PowerGate);
    EXPECT_EQ(toString(LdoMode::Regulation), "regulation");
    EXPECT_EQ(toString(LdoMode::Bypass), "bypass");
    EXPECT_EQ(toString(LdoMode::PowerGate), "power-gate");
}

TEST(Ldo, GatedDomainDrawsNothingButRejectsLoad)
{
    LdoVr ldo(LdoParams{.name = "ldo-test"});
    EXPECT_DOUBLE_EQ(
        inWatts(ldo.inputPower(volts(1.0), volts(0.0), watts(0.0))),
        0.0);
    EXPECT_THROW(ldo.inputPower(volts(1.0), volts(0.0), watts(1.0)),
                 ConfigError);
}

TEST(Ldo, LossMatchesInputMinusOutput)
{
    LdoVr ldo(LdoParams{.name = "ldo-test"});
    Power pout = watts(2.0);
    Power pin = ldo.inputPower(volts(1.0), volts(0.6), pout);
    EXPECT_NEAR(inWatts(ldo.loss(volts(1.0), volts(0.6), pout)),
                inWatts(pin - pout), 1e-12);
}

TEST(Ldo, RejectsBadCurrentEfficiency)
{
    EXPECT_THROW(LdoVr(LdoParams{.name = "x", .currentEfficiency = 0.0}),
                 ConfigError);
    EXPECT_THROW(LdoVr(LdoParams{.name = "x", .currentEfficiency = 1.5}),
                 ConfigError);
}

} // anonymous namespace
} // namespace pdnspot
