/**
 * @file
 * Tests for M3-style subspace readout mitigation.
 */

#include <gtest/gtest.h>

#include "mitigation/m3.hh"
#include "mitigation/mbm.hh"

namespace varsaw {
namespace {

TEST(M3, AgreesWithMbmOnFullSupport)
{
    // When every outcome is observed, the subspace system is the
    // full system and M3 must match MBM.
    DeviceModel device = DeviceModel::uniform(3, 0.05, 0.08, 0.04);
    NoisyExecutor exec(device);
    MbmCalibration mbm = MbmCalibration::calibrate(exec, 3, 0);
    M3Mitigator m3(mbm.errors());

    Circuit c(3);
    c.h(0).h(1).h(2).measureAll(); // full-support distribution
    Pmf noisy = exec.execute(c, {}, 0);

    Pmf via_mbm = mbm.apply(noisy);
    Pmf via_m3 = m3.apply(noisy);
    EXPECT_LT(Pmf::tvDistance(via_mbm, via_m3), 1e-6);
}

TEST(M3, ExactlyInvertsOnSparseSupport)
{
    // GHZ support {000, 111} plus readout leakage: M3 restricted to
    // the sampled support recovers the ideal distribution closely.
    DeviceModel device = DeviceModel::uniform(4, 0.04, 0.07, 0.05);
    NoisyExecutor exec(device);
    M3Mitigator m3 = M3Mitigator::calibrate(exec, 4, 0);

    Circuit c(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measureAll();
    Pmf noisy = exec.execute(c, {}, 0);
    Pmf corrected = m3.apply(noisy);

    Pmf ideal(4);
    ideal.set(0b0000, 0.5);
    ideal.set(0b1111, 0.5);
    EXPECT_GT(Pmf::fidelity(corrected, ideal),
              Pmf::fidelity(noisy, ideal));
    EXPECT_GT(Pmf::fidelity(corrected, ideal), 0.999);
}

TEST(M3, IterativePathMatchesDirect)
{
    DeviceModel device = DeviceModel::uniform(4, 0.03, 0.05, 0.02);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       17);
    M3Mitigator m3 = M3Mitigator::calibrate(exec, 4, 0);

    Circuit c(4);
    c.h(0).cx(0, 1).ry(2, 0.9).cx(2, 3).measureAll();
    Pmf noisy = exec.execute(c, {}, 4096);

    Pmf direct = m3.apply(noisy, /*direct_limit=*/1 << 16);
    Pmf iterative = m3.apply(noisy, /*direct_limit=*/0);
    EXPECT_LT(Pmf::tvDistance(direct, iterative), 1e-6);
}

TEST(M3, OutputNormalizedNonNegative)
{
    M3Mitigator m3(std::vector<ReadoutError>{{0.1, 0.2},
                                             {0.05, 0.15}});
    Pmf measured(2);
    measured.set(0b00, 0.05);
    measured.set(0b01, 0.45);
    measured.set(0b10, 0.45);
    measured.set(0b11, 0.05);
    Pmf out = m3.apply(measured);
    for (const Pmf::Entry &e : out.entries())
        EXPECT_GE(e.p, 0.0);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-12);
}

TEST(M3, EmptyInputPassesThrough)
{
    M3Mitigator m3(std::vector<ReadoutError>{{0.1, 0.1}});
    Pmf empty(1);
    EXPECT_EQ(m3.apply(empty).supportSize(), 0u);
}

TEST(M3, CalibrationCountsTwoCircuits)
{
    DeviceModel device = DeviceModel::uniform(2, 0.02, 0.05);
    NoisyExecutor exec(device);
    M3Mitigator::calibrate(exec, 2, 0);
    EXPECT_EQ(exec.circuitsExecuted(), 2u);
}

} // namespace
} // namespace varsaw
