/**
 * @file
 * Tests for matrix-based measurement mitigation (MBM).
 */

#include <gtest/gtest.h>

#include "mitigation/mbm.hh"

namespace varsaw {
namespace {

TEST(Mbm, CalibrationRecoversKnownErrorRates)
{
    DeviceModel device = DeviceModel::uniform(3, 0.04, 0.09);
    NoisyExecutor exec(device);
    MbmCalibration cal = MbmCalibration::calibrate(exec, 3, 0);
    for (int q = 0; q < 3; ++q) {
        EXPECT_NEAR(cal.errors()[q].p01, 0.04, 1e-10);
        EXPECT_NEAR(cal.errors()[q].p10, 0.09, 1e-10);
    }
}

TEST(Mbm, CalibrationCountsTwoCircuits)
{
    DeviceModel device = DeviceModel::uniform(2, 0.02, 0.05);
    NoisyExecutor exec(device);
    MbmCalibration::calibrate(exec, 2, 0);
    EXPECT_EQ(exec.circuitsExecuted(), 2u);
}

TEST(MbmCalibration, RepeatsOnOneExecutor)
{
    // Calibration samples each circuit's content stream, so what
    // an executor ran before cannot move it: a second calibration
    // on the same executor reads the same errors, bit for bit.
    DeviceModel device = DeviceModel::uniform(3, 0.04, 0.09, 0.05);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       42);
    const MbmCalibration first =
        MbmCalibration::calibrate(exec, 3, 8192);
    const MbmCalibration second =
        MbmCalibration::calibrate(exec, 3, 8192);
    ASSERT_EQ(second.errors().size(), first.errors().size());
    for (std::size_t q = 0; q < first.errors().size(); ++q) {
        EXPECT_EQ(second.errors()[q].p01, first.errors()[q].p01);
        EXPECT_EQ(second.errors()[q].p10, first.errors()[q].p10);
    }
}

TEST(Mbm, CalibrationIncludesCrosstalk)
{
    // Full-register calibration sees crosstalk-amplified errors.
    DeviceModel device = DeviceModel::uniform(4, 0.02, 0.02, 0.1);
    NoisyExecutor exec(device);
    MbmCalibration cal = MbmCalibration::calibrate(exec, 4, 0);
    EXPECT_GT(cal.errors()[0].p01, 0.02);
}

TEST(Mbm, ExactlyInvertsReadoutNoiseInfiniteShots)
{
    DeviceModel device = DeviceModel::uniform(3, 0.05, 0.08, 0.04);
    NoisyExecutor exec(device);
    MbmCalibration cal = MbmCalibration::calibrate(exec, 3, 0);

    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    Pmf noisy = exec.execute(c, {}, 0);
    Pmf corrected = cal.apply(noisy);

    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);
    EXPECT_LT(Pmf::tvDistance(corrected, ideal), 1e-9);
}

TEST(Mbm, ImprovesFidelityWithFiniteShots)
{
    DeviceModel device = DeviceModel::uniform(3, 0.05, 0.08, 0.04);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       42);
    MbmCalibration cal = MbmCalibration::calibrate(exec, 3, 16384);

    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    Pmf noisy = exec.execute(c, {}, 16384);
    Pmf corrected = cal.apply(noisy);

    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);
    EXPECT_GT(Pmf::fidelity(corrected, ideal),
              Pmf::fidelity(noisy, ideal));
}

TEST(Mbm, OutputIsNonNegativeAndNormalized)
{
    MbmCalibration cal(
        std::vector<ReadoutError>{{0.1, 0.2}, {0.15, 0.05}});
    Pmf measured(2);
    measured.set(0b00, 0.01);
    measured.set(0b01, 0.49);
    measured.set(0b10, 0.49);
    measured.set(0b11, 0.01);
    Pmf out = cal.apply(measured);
    for (const Pmf::Entry &e : out.entries())
        EXPECT_GE(e.p, 0.0);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-12);
}

TEST(Mbm, FromKnownErrorsConstructor)
{
    MbmCalibration cal(
        std::vector<ReadoutError>{{0.03, 0.06}});
    EXPECT_EQ(cal.numQubits(), 1);
    EXPECT_DOUBLE_EQ(cal.errors()[0].p10, 0.06);
}

} // namespace
} // namespace varsaw
