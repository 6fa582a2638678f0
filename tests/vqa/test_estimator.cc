/**
 * @file
 * Tests for energy estimators (exact / baseline / jigsaw).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "pauli/subsetting.hh"
#include "util/statistics.hh"
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"

namespace varsaw {
namespace {

/** TFIM instance and a fixed parameter point shared by tests. */
struct Fixture
{
    Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz{AnsatzConfig{4, 2, Entanglement::Linear}};
    std::vector<double> params = ansatz.initialParameters(21);
};

TEST(ExactEstimator, IdentityOnlyHamiltonian)
{
    Hamiltonian h(2);
    h.addTerm("II", -3.5);
    EfficientSU2 ansatz(AnsatzConfig{2, 1, Entanglement::Linear});
    ExactEstimator est(h, ansatz.circuit());
    EXPECT_DOUBLE_EQ(est.estimate(ansatz.initialParameters(1)), -3.5);
}

TEST(ExactEstimator, ZeroParametersGiveAllZeroState)
{
    // theta = 0 everywhere: ansatz is identity, state is |0...0>,
    // so <Z_i> = 1 and <X_i> = 0.
    Hamiltonian h(3);
    h.addTerm("ZII", 1.0);
    h.addTerm("IZI", 1.0);
    h.addTerm("XII", 5.0);
    EfficientSU2 ansatz(AnsatzConfig{3, 1, Entanglement::Linear});
    ExactEstimator est(h, ansatz.circuit());
    std::vector<double> zeros(ansatz.numParams(), 0.0);
    EXPECT_NEAR(est.estimate(zeros), 2.0, 1e-10);
}

TEST(BaselineEstimator, MatchesExactWithInfiniteShotsNoNoise)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    IdealExecutor exec;
    BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec, 0);
    EXPECT_NEAR(baseline.estimate(f.params), exact.estimate(f.params),
                1e-9);
}

TEST(BaselineEstimator, CircuitCostEqualsBasisCount)
{
    Fixture f;
    IdealExecutor exec;
    BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec, 0);
    baseline.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted(),
              baseline.reduction().bases.size());
}

TEST(BaselineEstimator, TfimNeedsTwoBasesUnderMergeGrouping)
{
    // TFIM terms merge into an all-Z and an all-X basis under the
    // merge grouping (the small grouped count the paper's Fig. 16
    // TFIM instance relies on). The covering-only reduction keeps
    // each bond/field separate since no term contains another.
    Fixture f;
    IdealExecutor exec;
    BaselineEstimator merged(f.h, f.ansatz.circuit(), exec, 0,
                             BasisMode::Merge);
    EXPECT_EQ(merged.reduction().bases.size(), 2u);
    BaselineEstimator covered(f.h, f.ansatz.circuit(), exec, 0,
                              BasisMode::Cover);
    EXPECT_EQ(covered.reduction().bases.size(), f.h.numTerms());
}

TEST(BaselineEstimator, MergeModeStillMatchesExact)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    IdealExecutor exec;
    BaselineEstimator merged(f.h, f.ansatz.circuit(), exec, 0,
                             BasisMode::Merge);
    EXPECT_NEAR(merged.estimate(f.params), exact.estimate(f.params),
                1e-9);
}

TEST(BaselineEstimator, ShotNoiseConvergesWithShots)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    const double truth = exact.estimate(f.params);

    IdealExecutor exec(77);
    BaselineEstimator low(f.h, f.ansatz.circuit(), exec, 128);
    BaselineEstimator high(f.h, f.ansatz.circuit(), exec, 65536);

    // Average absolute deviation over a few repeats.
    double err_low = 0.0, err_high = 0.0;
    for (int r = 0; r < 5; ++r) {
        err_low += std::abs(low.estimate(f.params) - truth);
        err_high += std::abs(high.estimate(f.params) - truth);
    }
    EXPECT_LT(err_high, err_low);
}

TEST(BaselineEstimator, H2AtZeroParamsMatchesDiagonal)
{
    // |0000> energy of the H2 Hamiltonian: sum of Z-type terms.
    Hamiltonian h = h2Sto3g();
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    IdealExecutor exec;
    BaselineEstimator baseline(h, ansatz.circuit(), exec, 0);
    ExactEstimator exact(h, ansatz.circuit());
    std::vector<double> zeros(ansatz.numParams(), 0.0);
    EXPECT_NEAR(baseline.estimate(zeros), exact.estimate(zeros),
                1e-9);
}

TEST(JigsawEstimator, MatchesExactWithoutNoise)
{
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    IdealExecutor exec;
    JigsawConfig config;
    config.globalShots = 0;
    config.subsetShots = 0;
    JigsawEstimator jigsaw(f.h, f.ansatz.circuit(), exec, config);
    EXPECT_NEAR(jigsaw.estimate(f.params), exact.estimate(f.params),
                1e-6);
}

TEST(JigsawEstimator, CostsMoreThanBaseline)
{
    Fixture f;
    IdealExecutor exec_b, exec_j;
    BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec_b, 0);
    JigsawEstimator jigsaw(f.h, f.ansatz.circuit(), exec_j,
                           JigsawConfig{});
    baseline.estimate(f.params);
    jigsaw.estimate(f.params);
    EXPECT_GT(exec_j.circuitsExecuted(), exec_b.circuitsExecuted());
}

TEST(JigsawEstimator, CircuitCostIsWindowsPlusGlobal)
{
    // Every estimate runs each basis's sliding windows plus its
    // Global: sum over bases b of (windows_b + 1) circuits.
    Fixture f;
    IdealExecutor exec;
    JigsawConfig config;
    config.subsetSize = 2;
    JigsawEstimator jigsaw(f.h, f.ansatz.circuit(), exec, config);
    std::uint64_t per_estimate = 0;
    for (const auto &basis : jigsaw.reduction().bases)
        per_estimate +=
            windowSubsets(basis, config.subsetSize).size() + 1;
    jigsaw.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted(), per_estimate);
    jigsaw.estimate(f.params);
    EXPECT_EQ(exec.circuitsExecuted(), 2 * per_estimate);
}

TEST(JigsawEstimator, MitigatesReadoutNoiseOnEnergy)
{
    // Energy estimated with JigSaw should sit closer to the exact
    // value than the unmitigated baseline under readout noise: with
    // exact distributions, at 8192 shots, and with 3-qubit windows.
    Fixture f;
    ExactEstimator exact(f.h, f.ansatz.circuit());
    const double truth = exact.estimate(f.params);

    DeviceModel device = DeviceModel::uniform(4, 0.05, 0.1, 0.08);
    struct Case
    {
        std::uint64_t shots;
        int subsetSize;
    };
    for (const Case c : {Case{0, 2}, Case{8192, 2}, Case{0, 3}}) {
        SCOPED_TRACE("shots " + std::to_string(c.shots) +
                     ", subset size " + std::to_string(c.subsetSize));
        NoisyExecutor exec_b(device), exec_j(device);
        BaselineEstimator baseline(f.h, f.ansatz.circuit(), exec_b,
                                   c.shots);
        JigsawConfig config;
        config.subsetSize = c.subsetSize;
        config.globalShots = c.shots;
        config.subsetShots = c.shots;
        JigsawEstimator jigsaw(f.h, f.ansatz.circuit(), exec_j,
                               config);

        const double err_base =
            std::abs(baseline.estimate(f.params) - truth);
        const double err_jig =
            std::abs(jigsaw.estimate(f.params) - truth);
        EXPECT_LT(err_jig, err_base);
    }
}

TEST(BaselineEstimator, CoefficientWeightedShotsPreserveBudget)
{
    Hamiltonian h(3);
    h.addTerm("ZZI", 10.0); // heavy
    h.addTerm("IXX", 0.1);  // light
    EfficientSU2 ansatz(AnsatzConfig{3, 1, Entanglement::Linear});
    IdealExecutor exec;
    BaselineEstimator est(h, ansatz.circuit(), exec, 1000,
                          BasisMode::Cover,
                          ShotAllocation::CoefficientWeighted);
    ASSERT_EQ(est.basisShots().size(), 2u);
    std::uint64_t total = 0;
    for (auto s : est.basisShots()) {
        EXPECT_GE(s, 1u);
        total += s;
    }
    // Budget conserved up to rounding; heavy basis dominates.
    EXPECT_NEAR(static_cast<double>(total), 2000.0, 2.0);
    const auto hi =
        std::max(est.basisShots()[0], est.basisShots()[1]);
    const auto lo =
        std::min(est.basisShots()[0], est.basisShots()[1]);
    EXPECT_GT(hi, 50 * lo);
}

TEST(BaselineEstimator, WeightedShotsReduceEnergyVariance)
{
    // With one dominant term, weighting shots toward its basis
    // shrinks the spread of repeated energy estimates.
    Hamiltonian h(3);
    h.addTerm("ZZI", 5.0);
    h.addTerm("IXX", 0.05);
    h.addTerm("YIY", 0.05);
    EfficientSU2 ansatz(AnsatzConfig{3, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(13);

    // Sampling streams are content-addressed: re-estimating at the
    // same parameters redraws the SAME shots by design, so the
    // independent samples for the spread come from varying the
    // backend seed instead of repeating one estimator.
    auto spread = [&](ShotAllocation alloc, std::uint64_t seed) {
        std::vector<double> samples;
        for (int r = 0; r < 60; ++r) {
            IdealExecutor exec(seed + static_cast<std::uint64_t>(r));
            BaselineEstimator est(h, ansatz.circuit(), exec, 64,
                                  BasisMode::Cover, alloc);
            samples.push_back(est.estimate(params));
        }
        return stddev(samples);
    };
    EXPECT_LT(spread(ShotAllocation::CoefficientWeighted, 5),
              spread(ShotAllocation::Uniform, 5));
}

TEST(EnergyFromBasisPmfs, SimpleHandAssembledCase)
{
    Hamiltonian h(2);
    h.addTerm("ZI", 2.0);
    h.addTerm("ZZ", -1.0);
    BasisReduction red = coverReduce(h.strings());
    ASSERT_EQ(red.bases.size(), 1u); // ZI covered by ZZ

    Pmf pmf(2);
    pmf.set(0b00, 1.0); // <ZI> = 1, <ZZ> = 1
    EXPECT_DOUBLE_EQ(energyFromBasisPmfs(h, red, {pmf}), 1.0);

    Pmf pmf2(2);
    pmf2.set(0b01, 1.0); // q0=1: <ZI> = -1, <ZZ> = -1
    EXPECT_DOUBLE_EQ(energyFromBasisPmfs(h, red, {pmf2}), -1.0);
}

} // namespace
} // namespace varsaw
