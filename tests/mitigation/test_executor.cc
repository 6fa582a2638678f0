/**
 * @file
 * Unit tests for circuit executors and cost accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mitigation/executor.hh"
#include "runtime/batch_executor.hh"

#include "../worker_service.hh"

namespace varsaw {
namespace {

Circuit
bellCircuit()
{
    Circuit c(2, "bell");
    c.h(0).cx(0, 1).measureAll();
    return c;
}

TEST(IdealExecutor, ExactDistribution)
{
    IdealExecutor exec;
    Pmf pmf = exec.execute(bellCircuit(), {}, 0);
    EXPECT_NEAR(pmf.prob(0b00), 0.5, 1e-12);
    EXPECT_NEAR(pmf.prob(0b11), 0.5, 1e-12);
    EXPECT_EQ(pmf.prob(0b01), 0.0);
}

TEST(IdealExecutor, SampledDistributionConverges)
{
    IdealExecutor exec(123);
    Pmf pmf = exec.execute(bellCircuit(), {}, 50000);
    EXPECT_NEAR(pmf.prob(0b00), 0.5, 0.02);
    EXPECT_NEAR(pmf.prob(0b11), 0.5, 0.02);
}

TEST(Executor, CountsCircuitsAndShots)
{
    IdealExecutor exec;
    EXPECT_EQ(exec.circuitsExecuted(), 0u);
    exec.execute(bellCircuit(), {}, 100);
    exec.execute(bellCircuit(), {}, 200);
    EXPECT_EQ(exec.circuitsExecuted(), 2u);
    EXPECT_EQ(exec.shotsExecuted(), 300u);
    exec.resetCounters();
    EXPECT_EQ(exec.circuitsExecuted(), 0u);
    EXPECT_EQ(exec.shotsExecuted(), 0u);
}

TEST(Executor, ExecuteMatchesTheRuntime)
{
    // execute() runs a job on its content stream, so it returns bit
    // for bit what the batch runtime returns for the same job: a
    // serial BatchExecutor with the result cache off or on, and a
    // 2-worker ExecutionService session. The trajectory mode draws
    // its noise from the stream too, so it is compared at 0 shots
    // as well.
    Circuit c(3, "ry-ghz");
    c.ryParam(0, 0).cx(0, 1).cx(1, 2).h(2).measureAll();
    const std::vector<double> params{0.37};
    const DeviceModel device = DeviceModel::uniform(3, 0.02, 0.05);
    std::vector<std::unique_ptr<Executor>> backends;
    backends.push_back(std::make_unique<IdealExecutor>(5));
    backends.push_back(std::make_unique<NoisyExecutor>(
        device, GateNoiseMode::AnalyticDepolarizing, 5));
    backends.push_back(std::make_unique<NoisyExecutor>(
        device, GateNoiseMode::PauliTrajectories, 5, 16));

    for (std::size_t b = 0; b < backends.size(); ++b) {
        Executor &exec = *backends[b];
        RuntimeConfig cache_off, cache_on, shared;
        cache_on.cacheResults = true;
        BatchExecutor serial_off(exec, cache_off);
        BatchExecutor serial_on(exec, cache_on);
        const auto service = workerService(exec, 2);
        shared.service = service.get();
        const auto session = makeSubmitter(exec, shared);
        for (const std::uint64_t shots : {0, 1, 777, 2048}) {
            SCOPED_TRACE("backend " + std::to_string(b) + ", shots " +
                         std::to_string(shots));
            Batch batch;
            batch.add(c, params, shots);
            const Pmf direct = exec.execute(c, params, shots);
            EXPECT_EQ(direct, serial_off.run(batch).front());
            EXPECT_EQ(direct, serial_on.run(batch).front());
            EXPECT_EQ(direct, session->run(batch).front());
            EXPECT_EQ(direct, exec.execute(c, params, shots));
        }
    }
}

TEST(NoisyExecutor, ZeroNoiseMatchesIdeal)
{
    NoisyExecutor noisy(DeviceModel::ideal(4));
    IdealExecutor ideal;
    Circuit c(3);
    c.h(0).cx(0, 1).ry(2, 0.8).measureAll();
    Pmf a = noisy.execute(c, {}, 0);
    Pmf b = ideal.execute(c, {}, 0);
    EXPECT_LT(Pmf::tvDistance(a, b), 1e-12);
}

TEST(NoisyExecutor, ReadoutNoiseBroadensDistribution)
{
    NoisyExecutor noisy(
        DeviceModel::uniform(3, 0.05, 0.1));
    Circuit c(3);
    c.measureAll(); // exact |000>
    Pmf pmf = noisy.execute(c, {}, 0);
    EXPECT_LT(pmf.prob(0b000), 1.0);
    EXPECT_GT(pmf.prob(0b001), 0.0);
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
}

TEST(NoisyExecutor, PartialMeasurementUsesBestQubits)
{
    // Device with one excellent qubit and awful others: a 1-qubit
    // subset must see the excellent error rate.
    std::vector<ReadoutError> readout = {
        {0.2, 0.2}, {0.001, 0.001}, {0.2, 0.2}};
    DeviceModel device("skewed", readout, 0.0, 0.0, 0.0);
    NoisyExecutor exec(device);

    Circuit subset(3);
    subset.measure(0); // partial: remapped to best physical qubit
    Pmf pmf = exec.execute(subset, {}, 0);
    EXPECT_GT(pmf.prob(0), 0.99);

    Circuit full(3);
    full.measureAll(); // full: default (bad) physical order
    Pmf pmf_full = exec.execute(full, {}, 0);
    EXPECT_LT(pmf_full.prob(0), 0.7);
}

TEST(NoisyExecutor, CrosstalkWorsensWiderMeasurements)
{
    DeviceModel device =
        DeviceModel::uniform(6, 0.02, 0.02, 0.1);
    NoisyExecutor exec(device);

    Circuit narrow(6);
    narrow.measure(0).measure(1);
    Circuit wide(6);
    wide.measureAll();

    // Probability that measured bits are all correct (state |0...0>).
    const double p_narrow = exec.execute(narrow, {}, 0).prob(0);
    const double p_wide = exec.execute(wide, {}, 0).prob(0);
    // Per-qubit error grows with width, so even normalized per qubit
    // the wide readout is worse: compare the 2-qubit marginal.
    Circuit wide2(6);
    wide2.measureAll();
    Pmf wide_pmf = exec.execute(wide2, {}, 0);
    const double p_wide_marg = wide_pmf.marginal({0, 1}).prob(0);
    EXPECT_GT(p_narrow, p_wide_marg);
    EXPECT_GT(p_narrow, p_wide);
}

TEST(NoisyExecutor, AnalyticDepolarizingMixesUniform)
{
    DeviceModel device =
        DeviceModel::uniform(2, 0.0, 0.0, 0.0, 0.0, 0.1);
    NoisyExecutor exec(device);
    Circuit c(2);
    c.cx(0, 1).measureAll(); // one 2q gate on |00>
    Pmf pmf = exec.execute(c, {}, 0);
    // lambda = 0.1 -> 0.9 * |00> + 0.1 * uniform.
    EXPECT_NEAR(pmf.prob(0b00), 0.9 + 0.1 / 4, 1e-12);
    EXPECT_NEAR(pmf.prob(0b01), 0.1 / 4, 1e-12);
}

TEST(NoisyExecutor, TrajectoriesAgreeWithAnalyticNoNoise)
{
    DeviceModel device = DeviceModel::ideal(3);
    NoisyExecutor analytic(device,
                           GateNoiseMode::AnalyticDepolarizing);
    NoisyExecutor traj(device, GateNoiseMode::PauliTrajectories, 7,
                       16);
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    EXPECT_LT(Pmf::tvDistance(analytic.execute(c, {}, 0),
                              traj.execute(c, {}, 0)),
              1e-12);
}

TEST(NoisyExecutor, TrajectoriesApproximateDepolarizing)
{
    DeviceModel device =
        DeviceModel::uniform(2, 0.0, 0.0, 0.0, 0.0, 0.05);
    NoisyExecutor traj(device, GateNoiseMode::PauliTrajectories, 99,
                       4000);
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Pmf pmf = traj.execute(c, {}, 0);
    // Bell weights shrink, error outcomes appear.
    EXPECT_LT(pmf.prob(0b00), 0.5);
    EXPECT_GT(pmf.prob(0b01) + pmf.prob(0b10), 0.0);
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-9);
}

TEST(DensityMatrixExecutor, MatchesTrajectoriesInTheLimit)
{
    // The DM executor applies exactly the per-qubit depolarizing
    // channel the trajectory mode samples; with many trajectories
    // the two distributions must agree.
    DeviceModel device =
        DeviceModel::uniform(2, 0.0, 0.0, 0.0, 0.0, 0.08);
    DensityMatrixExecutor dm(device);
    NoisyExecutor traj(device, GateNoiseMode::PauliTrajectories, 13,
                       6000);
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Pmf a = dm.execute(c, {}, 0);
    Pmf b = traj.execute(c, {}, 0);
    EXPECT_LT(Pmf::tvDistance(a, b), 0.02);
}

TEST(DensityMatrixExecutor, CloseToAnalyticAtSmallError)
{
    // Local vs global depolarizing differ, but at small error rates
    // the output distributions must be close.
    DeviceModel device =
        DeviceModel::uniform(3, 0.02, 0.04, 0.05, 1e-4, 1e-3);
    DensityMatrixExecutor dm(device);
    NoisyExecutor analytic(device);
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    Pmf a = dm.execute(c, {}, 0);
    Pmf b = analytic.execute(c, {}, 0);
    EXPECT_LT(Pmf::tvDistance(a, b), 0.02);
}

TEST(DensityMatrixExecutor, ZeroNoiseMatchesIdeal)
{
    DensityMatrixExecutor dm(DeviceModel::ideal(3));
    IdealExecutor ideal;
    Circuit c(3);
    c.h(0).cx(0, 1).ry(2, 1.1).measureAll();
    EXPECT_LT(Pmf::tvDistance(dm.execute(c, {}, 0),
                              ideal.execute(c, {}, 0)),
              1e-10);
}

TEST(NoisyExecutor, BestMappingToggle)
{
    std::vector<ReadoutError> readout = {
        {0.2, 0.2}, {0.001, 0.001}, {0.2, 0.2}};
    DeviceModel device("skewed", readout, 0.0, 0.0, 0.0);
    NoisyExecutor exec(device);
    Circuit subset(3);
    subset.measure(0);

    exec.setBestMapping(false);
    EXPECT_FALSE(exec.bestMapping());
    const double p_default = exec.execute(subset, {}, 0).prob(0);
    exec.setBestMapping(true);
    const double p_best = exec.execute(subset, {}, 0).prob(0);
    EXPECT_GT(p_best, p_default);
}

TEST(NoisyExecutor, GateNoiseSkippedWhenDisabled)
{
    DeviceModel device = DeviceModel::mumbai().withoutGateNoise();
    NoisyExecutor exec(device);
    Circuit c(2);
    // Heavy gate sequence but no gate error: only readout noise.
    for (int i = 0; i < 50; ++i)
        c.cx(0, 1);
    c.measureAll();
    Pmf pmf = exec.execute(c, {}, 0);
    // |00> degraded only by readout error of the two default qubits.
    EXPECT_GT(pmf.prob(0b00), 0.8);
}

} // namespace
} // namespace varsaw
