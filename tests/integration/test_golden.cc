/**
 * @file
 * Golden result digests: absolute bit-identity gates.
 *
 * Every other determinism test is relative (path A against path B in
 * one build), so a change that moves every path alike passes them
 * silently. Each case here runs a small configuration of a paper
 * experiment or a benchmark-of-record workload, folds the bits of
 * every objective evaluation's energy into one word with mix64, and
 * compares that digest and the backend's circuit/shot counters with
 * constants recorded from a known-good build.
 *
 * A mismatch means results moved. If the move is intended (a new
 * sampling contract, say), record the new constants in the same
 * change and say why; otherwise the change broke bit-identity.
 *
 * The constants hold under every CI configuration: any SIMD tier,
 * state-cache budget, kernel-thread count, telemetry, profiling and
 * seeded fault injection (injected transients fail before the
 * backend counts the circuit). The contract is per compiler, C++
 * library and libm; see docs/architecture.md "Determinism".
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "core/selective.hh"
#include "core/varsaw.hh"
#include "noise/device_model.hh"
#include "service/execution_service.hh"
#include "util/rng.hh"
#include "vqa/ansatz.hh"
#include "vqa/optimizer.hh"
#include "vqa/vqe.hh"

namespace varsaw {
namespace {

/** What a golden case pins. */
struct Golden
{
    std::uint64_t digest = 0;      //!< mix64 fold of energy bits
    std::uint64_t evaluations = 0; //!< estimate() calls folded
    std::uint64_t circuits = 0;    //!< backend circuitsExecuted()
    std::uint64_t shots = 0;       //!< backend shotsExecuted()

    bool operator==(const Golden &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Golden &g)
{
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(g.digest));
    return os << "{" << digest << ", " << g.evaluations << " evals, "
              << g.circuits << " circuits, " << g.shots << " shots}";
}

/** Forwards to an estimator and folds each energy's bits. */
class DigestEstimator : public EnergyEstimator
{
  public:
    explicit DigestEstimator(EnergyEstimator &inner) : inner_(inner) {}

    double
    estimate(const std::vector<double> &params) override
    {
        const double energy = inner_.estimate(params);
        digest_ = mix64(digest_, std::bit_cast<std::uint64_t>(energy));
        ++evaluations_;
        return energy;
    }

    void onIterationBoundary() override { inner_.onIterationBoundary(); }

    std::string name() const override { return inner_.name(); }

    std::uint64_t digest() const { return digest_; }
    std::uint64_t evaluations() const { return evaluations_; }

  private:
    EnergyEstimator &inner_;
    std::uint64_t digest_ = 0;
    std::uint64_t evaluations_ = 0;
};

/** Run SPSA over @p est and pin every evaluation plus the cost. */
Golden
runVqe(EnergyEstimator &est, Executor &exec, std::vector<double> x0,
       int iterations, std::uint64_t budget, std::uint64_t spsa_seed)
{
    DigestEstimator digest(est);
    Spsa::Config sc;
    sc.seed = spsa_seed;
    Spsa spsa(sc);
    VqeDriver driver(digest, spsa, &exec);
    VqeConfig vc;
    vc.maxIterations = iterations;
    vc.circuitBudget = budget;
    driver.run(std::move(x0), vc);
    return {digest.digest(), digest.evaluations(),
            exec.circuitsExecuted(), exec.shotsExecuted()};
}

NoisyExecutor
mumbai(std::uint64_t seed)
{
    return NoisyExecutor(DeviceModel::mumbai(),
                         GateNoiseMode::AnalyticDepolarizing, seed);
}

TEST(Golden, VarsawCh4Fig13)
{
    // bench_fig13's VarSaw scenario at its default budget.
    const Hamiltonian h = molecule("CH4-6");
    EfficientSU2 ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    NoisyExecutor exec = mumbai(4);
    VarsawConfig config;
    config.subsetShots = 2048;
    config.globalShots = 2048;
    VarsawEstimator est(h, ansatz.circuit(), exec, config);
    EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(23), 1000000,
                     40000, 21),
              (Golden{0x66605e3061063fe1, 977, 40070, 82063360}));
}

TEST(Golden, VarsawH6WidePostprocess)
{
    // The wide_postprocess shape: H6-10, 512/512 shots, the Global
    // interval pinned at 4. Six iterations reach iteration 4's
    // stale-vs-fresh check tick.
    const Hamiltonian h = molecule("H6-10");
    EfficientSU2 ansatz(AnsatzConfig{10, 2, Entanglement::Linear});
    NoisyExecutor exec = mumbai(6);
    VarsawConfig config;
    config.subsetShots = 512;
    config.globalShots = 512;
    config.temporal.initialInterval = 4;
    config.temporal.minInterval = 4;
    config.temporal.maxInterval = 4;
    VarsawEstimator est(h, ansatz.circuit(), exec, config);
    EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(1), 6, 0, 7),
              (Golden{0x5dfdd6a18ddd4c88, 21, 3235, 1656320}));
    EXPECT_EQ(est.scheduler().globalsRun(), 2u);
}

TEST(Golden, VarsawMbmFig18)
{
    // bench_fig18's stacked arm (LiH-6, trial 0) at 20 iterations;
    // the counters include the MBM calibration circuits.
    //
    // The constants were recorded when calibration moved onto
    // content streams: Executor::execute() draws from
    // jobStream(makeJobKey(job)), not from a generator the executor
    // keeps across calls. The temporal scheduler reads the
    // energies, so circuits and shots moved with the digest (11
    // Global ticks instead of 6); the evaluation count stayed 49.
    const Hamiltonian h = molecule("LiH-6");
    EfficientSU2 ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    NoisyExecutor exec = mumbai(302);
    VarsawConfig config;
    config.subsetShots = 2048;
    config.globalShots = 2048;
    config.mbm = MbmCalibration::calibrate(exec, h.numQubits(), 8192);
    VarsawEstimator est(h, ansatz.circuit(), exec, config);
    EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(71), 20, 0, 13),
              (Golden{0x771a4b49f27f1aaf, 49, 2979, 6113280}));
    EXPECT_EQ(est.scheduler().globalsRun(), 11u);
}

TEST(Golden, SelectiveCh4)
{
    const Hamiltonian h = molecule("CH4-6");
    EfficientSU2 ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    NoisyExecutor exec = mumbai(2);
    VarsawConfig config;
    config.subsetShots = 1024;
    config.globalShots = 1024;
    SelectiveVarsawEstimator est(h, ansatz.circuit(), exec, config, 0.5,
                                 1024);
    EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(19), 10, 0, 5),
              (Golden{0x22efd2ba182c49b8, 29, 2106, 2156544}));
}

TEST(Golden, JigsawAndBaselineTable1)
{
    // bench_table1's H2-4 row: exact (shots 0) distributions, one
    // backend seed per method, here under a short SPSA run.
    const Hamiltonian h = molecule("H2-4");
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Full});
    {
        NoisyExecutor exec = mumbai(101);
        BaselineEstimator est(h, ansatz.circuit(), exec, 0);
        EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(17), 10, 0, 17),
                  (Golden{0xfb4b2e8e81b9b6bb, 29, 290, 0}));
    }
    {
        NoisyExecutor exec = mumbai(202);
        JigsawConfig jc;
        jc.subsetSize = 2;
        jc.globalShots = 0;
        jc.subsetShots = 0;
        JigsawEstimator est(h, ansatz.circuit(), exec, jc);
        EXPECT_EQ(runVqe(est, exec, ansatz.initialParameters(17), 10, 0, 17),
                  (Golden{0x9f75c383b6efc8c9, 29, 1015, 0}));
    }
}

TEST(Golden, SharedSweepTfim8)
{
    // The shared_sweep shape: VarSaw and Baseline clients on one
    // 2-worker service, walking the same SPSA-style +- pairs from
    // two threads. Cross-session dedupe runs each distinct job once
    // whichever client submits it first, so the counters are exact.
    const Hamiltonian h = tfim(8, 1.0, 1.0);
    EfficientSU2 ansatz(AnsatzConfig{8, 2, Entanglement::Linear});
    NoisyExecutor exec = mumbai(8);
    ServiceConfig sc;
    sc.threads = 2;
    sc.kernelThreads = 1;
    ExecutionService service(exec, sc);
    RuntimeConfig rt;
    rt.cacheResults = true;
    rt.service = &service;

    VarsawConfig vc;
    vc.subsetShots = 256;
    vc.globalShots = 512;
    vc.runtime = rt;
    VarsawEstimator varsaw(h, ansatz.circuit(), exec, vc);
    BaselineEstimator baseline(h, ansatz.circuit(), exec, 512,
                               BasisMode::Cover, ShotAllocation::Uniform,
                               rt);

    Rng rng(41);
    std::vector<double> x = ansatz.initialParameters(41);
    std::vector<std::vector<double>> points;
    for (int k = 0; k < 8; ++k) {
        std::vector<double> plus = x, minus = x;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = 0.1 * rng.rademacher();
            plus[i] += d;
            minus[i] -= d;
        }
        points.push_back(std::move(plus));
        points.push_back(std::move(minus));
        for (double &v : x)
            v += 0.02 * rng.rademacher();
    }

    DigestEstimator dv(varsaw), db(baseline);
    std::thread client_b([&] {
        for (const auto &p : points)
            db.estimate(p);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i % 2 == 0)
            dv.onIterationBoundary();
        dv.estimate(points[i]);
    }
    client_b.join();

    EXPECT_EQ((Golden{dv.digest(), dv.evaluations(),
                      exec.circuitsExecuted(), exec.shotsExecuted()}),
              (Golden{0x537ee799f08d62ac, 16, 384, 135168}));
    EXPECT_EQ(db.digest(), 0xdc2d784cea386d5cu);
}

} // namespace
} // namespace varsaw
