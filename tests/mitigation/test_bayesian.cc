/**
 * @file
 * Unit and property tests for Bayesian reconstruction (IPF).
 */

#include <gtest/gtest.h>

#include "mitigation/bayesian.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

/** Noisy GHZ-like global over 3 qubits. */
Pmf
noisyGhz()
{
    Pmf pmf(3);
    pmf.set(0b000, 0.38);
    pmf.set(0b111, 0.38);
    pmf.set(0b001, 0.08);
    pmf.set(0b110, 0.08);
    pmf.set(0b010, 0.04);
    pmf.set(0b101, 0.04);
    pmf.normalize();
    return pmf;
}

/** Ideal GHZ local marginal over 2 qubits. */
LocalPmf
idealLocal(std::vector<int> positions)
{
    LocalPmf local;
    local.positions = std::move(positions);
    local.pmf = Pmf(2);
    local.pmf.set(0b00, 0.5);
    local.pmf.set(0b11, 0.5);
    return local;
}

TEST(Bayesian, NoLocalsReturnsNormalizedGlobal)
{
    Pmf global = noisyGhz();
    Pmf out = bayesianReconstruct(global, {}, 1);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

TEST(Bayesian, IdealLocalsSharpenNoisyGlobal)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1}),
                                    idealLocal({1, 2})};
    Pmf out = bayesianReconstruct(global, locals, 1);

    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);

    EXPECT_LT(Pmf::tvDistance(out, ideal),
              Pmf::tvDistance(global, ideal));
    // Error outcomes killed by the zero-probability locals.
    EXPECT_NEAR(out.prob(0b001), 0.0, 1e-12);
    EXPECT_NEAR(out.prob(0b010), 0.0, 1e-12);
}

TEST(Bayesian, MorePassesConvergeFurther)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1}),
                                    idealLocal({1, 2})};
    Pmf one = bayesianReconstruct(global, locals, 1);
    Pmf five = bayesianReconstruct(global, locals, 5);
    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);
    EXPECT_LE(Pmf::tvDistance(five, ideal),
              Pmf::tvDistance(one, ideal) + 1e-12);
}

TEST(Bayesian, OutputIsNormalized)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1})};
    Pmf out = bayesianReconstruct(global, locals, 3);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-12);
}

TEST(Bayesian, FixedPointWhenMarginalsAlreadyMatch)
{
    // Global whose marginals equal the locals: IPF must not move it.
    Pmf global(2);
    global.set(0b00, 0.25);
    global.set(0b01, 0.25);
    global.set(0b10, 0.25);
    global.set(0b11, 0.25);

    LocalPmf local;
    local.positions = {0};
    local.pmf = Pmf(1);
    local.pmf.set(0, 0.5);
    local.pmf.set(1, 0.5);

    Pmf out = bayesianReconstruct(global, {local}, 4);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

TEST(Bayesian, SingleSubsetMatchesItsMarginalExactly)
{
    // After one IPF step with one local, the output's marginal on
    // that subset equals the local distribution.
    Rng rng(31);
    Pmf global(3);
    for (int i = 0; i < 8; ++i)
        global.set(i, rng.uniform() + 0.01);
    global.normalize();

    LocalPmf local;
    local.positions = {0, 2};
    local.pmf = Pmf(2);
    for (int i = 0; i < 4; ++i)
        local.pmf.set(i, rng.uniform() + 0.01);
    local.pmf.normalize();

    Pmf out = bayesianReconstruct(global, {local}, 1);
    Pmf marg = out.marginal(local.positions);
    EXPECT_LT(Pmf::tvDistance(marg, local.pmf), 1e-10);
}

TEST(Bayesian, ZeroPriorStaysZero)
{
    // The Bayesian update cannot invent outcomes the Global lacks.
    Pmf global(2);
    global.set(0b00, 1.0);

    LocalPmf local;
    local.positions = {0};
    local.pmf = Pmf(1);
    local.pmf.set(0, 0.6);
    local.pmf.set(1, 0.4);

    Pmf out = bayesianReconstruct(global, {local}, 2);
    EXPECT_EQ(out.prob(0b01), 0.0);
    EXPECT_EQ(out.prob(0b11), 0.0);
    EXPECT_NEAR(out.prob(0b00), 1.0, 1e-12);
}

TEST(Bayesian, EmptyLocalSkipped)
{
    Pmf global = noisyGhz();
    LocalPmf empty;
    empty.positions = {0, 1};
    empty.pmf = Pmf(2); // no support
    Pmf out = bayesianReconstruct(global, {empty}, 1);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

/** Property: reconstruction never produces negative probabilities. */
class BayesianPositivity : public ::testing::TestWithParam<int>
{
};

TEST_P(BayesianPositivity, NonNegativeNormalizedOutput)
{
    Rng rng(700 + GetParam());
    Pmf global(4);
    for (int i = 0; i < 16; ++i)
        if (rng.bernoulli(0.7))
            global.set(i, rng.uniform());
    global.normalize();
    if (global.supportSize() == 0)
        global.set(0, 1.0);

    std::vector<LocalPmf> locals;
    for (int s = 0; s < 3; ++s) {
        LocalPmf local;
        local.positions = {s, s + 1};
        local.pmf = Pmf(2);
        for (int i = 0; i < 4; ++i)
            local.pmf.set(i, rng.uniform());
        local.pmf.normalize();
        locals.push_back(std::move(local));
    }

    Pmf out = bayesianReconstruct(global, locals, 2);
    for (const Pmf::Entry &e : out.entries())
        EXPECT_GE(e.p, 0.0);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BayesianPositivity,
                         ::testing::Range(0, 10));

} // namespace
} // namespace varsaw
