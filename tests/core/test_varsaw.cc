/**
 * @file
 * Tests for the end-to-end VarSaw estimator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "chem/exact_solver.hh"
#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "sim/kernels/kernels.hh"
#include "vqa/ansatz.hh"

namespace varsaw {
namespace {

struct Fixture
{
    Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz{AnsatzConfig{4, 2, Entanglement::Linear}};
    std::vector<double> params = ansatz.initialParameters(77);
};

VarsawConfig
exactShotsConfig(GlobalScheduler::Mode mode)
{
    VarsawConfig config;
    config.subsetShots = 0;
    config.globalShots = 0;
    config.temporal.mode = mode;
    return config;
}

TEST(VarsawEstimator, MatchesExactWithoutNoise)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::NoSparsity));
    EXPECT_NEAR(est.estimate(f.params), exact.estimate(f.params),
                1e-6);
}

TEST(VarsawEstimator, FirstTickCostIsSubsetsPlusGlobals)
{
    Fixture f;
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::Adaptive));
    est.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted(),
              est.plan().executedSubsets.size() +
                  est.plan().bases.bases.size());
}

TEST(VarsawEstimator, NonGlobalTickCostIsSubsetsOnly)
{
    Fixture f;
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::MaxSparsity));
    est.estimate(f.params);
    const auto first = exec.circuitsExecuted();
    est.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted() - first,
              est.plan().executedSubsets.size());
}

TEST(VarsawEstimator, CheaperThanJigsawPerTick)
{
    Hamiltonian h = molecule("H2O-6");
    EfficientSU2 ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    const auto params = ansatz.initialParameters(5);

    IdealExecutor exec_v, exec_j;
    VarsawEstimator varsaw(
        h, ansatz.circuit(), exec_v,
        exactShotsConfig(GlobalScheduler::Mode::Adaptive));
    JigsawEstimator jigsaw(h, ansatz.circuit(), exec_j,
                           JigsawConfig{});

    // Warm-up tick (VarSaw runs globals), then steady-state ticks.
    varsaw.estimate(params);
    jigsaw.estimate(params);
    const auto v0 = exec_v.circuitsExecuted();
    const auto j0 = exec_j.circuitsExecuted();
    for (int t = 0; t < 4; ++t) {
        varsaw.estimate(params);
        jigsaw.estimate(params);
    }
    const auto v_steady = exec_v.circuitsExecuted() - v0;
    const auto j_steady = exec_j.circuitsExecuted() - j0;
    EXPECT_LT(v_steady * 3, j_steady); // >3x cheaper already
}

TEST(VarsawEstimator, MitigatesNoiseOnEnergy)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    const double truth = exact.estimate(f.params);

    DeviceModel device = DeviceModel::uniform(4, 0.05, 0.1, 0.08);
    NoisyExecutor exec_b(device), exec_v(device);
    BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec_b, 0);
    VarsawEstimator varsaw(
        f.h, f.ansatz.circuit(), exec_v,
        exactShotsConfig(GlobalScheduler::Mode::Adaptive));

    const double err_base =
        std::abs(baseline.estimate(f.params) - truth);
    const double err_var =
        std::abs(varsaw.estimate(f.params) - truth);
    EXPECT_LT(err_var, err_base);
}

TEST(VarsawEstimator, AdaptiveGlobalFractionDropsOverTicks)
{
    Fixture f;
    DeviceModel device = DeviceModel::uniform(4, 0.04, 0.08, 0.06);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       11);
    VarsawConfig config = exactShotsConfig(
        GlobalScheduler::Mode::Adaptive);
    config.subsetShots = 1024;
    config.globalShots = 2048;
    VarsawEstimator est(f.h, f.ansatz.circuit(), exec, config);

    for (int t = 0; t < 60; ++t)
        est.estimate(f.params);
    EXPECT_LT(est.scheduler().globalFraction(), 0.5);
    EXPECT_GT(est.scheduler().globalsRun(), 0u);
}

TEST(VarsawEstimator, ResetTemporalStateRestartsChain)
{
    Fixture f;
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::MaxSparsity));
    est.estimate(f.params);
    est.estimate(f.params);
    EXPECT_EQ(est.ticks(), 2u);
    est.resetTemporalState();
    EXPECT_EQ(est.ticks(), 0u);
    // After reset the next tick must run globals again.
    const auto before = exec.circuitsExecuted();
    est.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted() - before,
              est.plan().executedSubsets.size() +
                  est.plan().bases.bases.size());
}

TEST(VarsawEstimator, MaxSparsityStaysFiniteAndSane)
{
    Fixture f;
    DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06, 0.05);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       3);
    VarsawConfig config =
        exactShotsConfig(GlobalScheduler::Mode::MaxSparsity);
    config.subsetShots = 512;
    config.globalShots = 1024;
    VarsawEstimator est(f.h, f.ansatz.circuit(), exec, config);
    for (int t = 0; t < 20; ++t) {
        const double e = est.estimate(f.params);
        EXPECT_TRUE(std::isfinite(e));
        EXPECT_GE(e, f.h.energyLowerBound() - 1.0);
    }
    EXPECT_EQ(est.scheduler().globalsRun(), 1u);
}

TEST(VarsawEstimator, IterationPacingSharesPriorAcrossProbes)
{
    // Externally paced: globals run once per iteration (on its
    // first probe), not once per estimate.
    Fixture f;
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::NoSparsity));

    est.onIterationBoundary(); // iteration 0 opens
    est.estimate(f.params);    // probe 1: subsets + globals
    const auto after_first = exec.circuitsExecuted();
    est.estimate(f.params); // probe 2: subsets only
    EXPECT_EQ(exec.circuitsExecuted() - after_first,
              est.plan().executedSubsets.size());

    est.onIterationBoundary(); // iteration 1
    est.estimate(f.params);    // probe 1 again: subsets + globals
    EXPECT_EQ(exec.circuitsExecuted() - after_first,
              2 * est.plan().executedSubsets.size() +
                  est.plan().bases.bases.size());
}

TEST(VarsawEstimator, RepeatedBoundaryKeepsThePrior)
{
    // The boundary moves the last result into the prior. A second
    // boundary with no evaluation in between must keep that prior,
    // so the stale chain reads exactly what a single boundary gives.
    Fixture f;
    DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06, 0.05);
    VarsawConfig config =
        exactShotsConfig(GlobalScheduler::Mode::MaxSparsity);
    config.subsetShots = 512;
    config.globalShots = 512;
    std::vector<double> shifted = f.params;
    for (double &p : shifted)
        p += 0.05;

    const auto run = [&](bool double_boundary) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 5);
        VarsawEstimator est(f.h, f.ansatz.circuit(), exec, config);
        std::vector<double> energies;
        est.onIterationBoundary();
        energies.push_back(est.estimate(f.params)); // runs Globals
        est.onIterationBoundary();
        if (double_boundary)
            est.onIterationBoundary();
        energies.push_back(est.estimate(shifted)); // stale chain
        est.onIterationBoundary();
        energies.push_back(est.estimate(f.params));
        EXPECT_EQ(est.scheduler().globalsRun(), 1u);
        return energies;
    };
    const std::vector<double> once = run(false);
    const std::vector<double> twice = run(true);
    ASSERT_EQ(once.size(), twice.size());
    for (std::size_t i = 0; i < once.size(); ++i)
        EXPECT_EQ(once[i], twice[i]) << "evaluation " << i;
}

TEST(VarsawEstimator, SchedulerCountsIterationsNotProbes)
{
    Fixture f;
    IdealExecutor exec;
    VarsawEstimator est(
        f.h, f.ansatz.circuit(), exec,
        exactShotsConfig(GlobalScheduler::Mode::Adaptive));
    for (int iter = 0; iter < 3; ++iter) {
        est.onIterationBoundary();
        est.estimate(f.params);
        est.estimate(f.params);
    }
    EXPECT_EQ(est.scheduler().ticksSeen(), 3u);
    EXPECT_EQ(est.ticks(), 6u);
}

TEST(VarsawEstimator, NoSparsityReportedEnergyStaysPhysical)
{
    // Regression for the min-selection ratchet: with fresh Globals
    // every iteration the reported energy must track the true value
    // and never drift below the spectrum, even over many noisy
    // iterations at fixed parameters.
    Fixture f;
    DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06, 0.05);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       909);
    VarsawConfig config =
        exactShotsConfig(GlobalScheduler::Mode::NoSparsity);
    config.subsetShots = 1024;
    config.globalShots = 1024;
    VarsawEstimator est(f.h, f.ansatz.circuit(), exec, config);

    const double floor = groundStateEnergy(f.h);
    double worst = 1e30;
    for (int iter = 0; iter < 40; ++iter) {
        est.onIterationBoundary();
        worst = std::min(worst, est.estimate(f.params));
    }
    // Allow a small shot-noise margin below the exact ground energy.
    EXPECT_GT(worst, floor - 0.15);
}

TEST(VarsawEstimator, TierInvariantAcrossWindowWidths)
{
    // The same energy bits on the scalar tier and on the widest one
    // the host has, for subset sizes whose windows the AVX-512 lanes
    // take (2) and hand to the scalar body (3, 5), at 1 and 3
    // reconstruction passes, over fresh-Global and stale-chain
    // evaluations (Adaptive: Globals on iteration 0, 2, ...).
    const Hamiltonian h = molecule("CH4-6");
    EfficientSU2 ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    const DeviceModel device = DeviceModel::uniform(6, 0.03, 0.06, 0.05);
    const kern::SimdTier entry_tier = kern::activeSimdTier();
    for (const int subset : {2, 3, 5}) {
        for (const int passes : {1, 3}) {
            VarsawConfig config;
            config.subsetSize = subset;
            config.reconstructionPasses = passes;
            config.subsetShots = 256;
            config.globalShots = 256;
            const auto energies = [&](kern::SimdTier tier) {
                kern::setSimdTier(tier);
                NoisyExecutor exec(device,
                                   GateNoiseMode::AnalyticDepolarizing,
                                   13);
                VarsawEstimator est(h, ansatz.circuit(), exec, config);
                std::vector<double> params = ansatz.initialParameters(21);
                std::vector<double> out;
                for (int t = 0; t < 8; ++t) {
                    out.push_back(est.estimate(params));
                    for (double &p : params)
                        p += 0.01;
                }
                EXPECT_GE(est.scheduler().globalsRun(), 2u);
                EXPECT_LT(est.scheduler().globalsRun(), 8u);
                return out;
            };
            const std::vector<double> scalar =
                energies(kern::SimdTier::Scalar);
            const std::vector<double> widest =
                energies(kern::maxSupportedSimdTier());
            ASSERT_EQ(scalar.size(), widest.size());
            for (std::size_t t = 0; t < scalar.size(); ++t)
                EXPECT_EQ(std::memcmp(&scalar[t], &widest[t],
                                      sizeof(double)),
                          0)
                    << "subset " << subset << " passes " << passes
                    << " evaluation " << t << ": " << scalar[t]
                    << " vs " << widest[t];
        }
    }
    kern::setSimdTier(entry_tier);
}

TEST(VarsawEstimator, MbmStackingKeepsEnergyFinite)
{
    Fixture f;
    DeviceModel device = DeviceModel::uniform(4, 0.05, 0.1, 0.06);
    NoisyExecutor exec(device);
    VarsawConfig config =
        exactShotsConfig(GlobalScheduler::Mode::Adaptive);
    config.mbm = MbmCalibration::calibrate(exec, 4, 0);
    VarsawEstimator est(f.h, f.ansatz.circuit(), exec, config);

    ExactEstimator exact(f.h, f.ansatz.circuit());
    const double truth = exact.estimate(f.params);
    const double e = est.estimate(f.params);
    EXPECT_TRUE(std::isfinite(e));
    // MBM + VarSaw should be at least as close as plain noisy.
    NoisyExecutor exec_b(device);
    BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec_b, 0);
    EXPECT_LE(std::abs(e - truth),
              std::abs(baseline.estimate(f.params) - truth) + 1e-9);
}

} // namespace
} // namespace varsaw
