/**
 * @file
 * Unit and property tests for probability mass functions: the
 * sorted flat storage and its sums, marginals and distances (the
 * shot sampler's tests are in tests/sim/test_sampling.cc).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>

#include "util/pmf.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

Pmf
makeBell()
{
    // 2-qubit Bell-like distribution: 00 and 11 equally likely.
    Pmf pmf(2);
    pmf.set(0b00, 0.5);
    pmf.set(0b11, 0.5);
    return pmf;
}

TEST(Pmf, FromDenseAndBack)
{
    const std::vector<double> dense = {0.1, 0.2, 0.3, 0.4};
    Pmf pmf = Pmf::fromDense(2, dense);
    EXPECT_EQ(pmf.supportSize(), 4u);
    const auto round = pmf.toDense();
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(round[i], dense[i]);
}

TEST(Pmf, FromDensePrunesSmallEntries)
{
    const std::vector<double> dense = {0.5, 1e-16, 0.5, 0.0};
    Pmf pmf = Pmf::fromDense(2, dense, 1e-14);
    EXPECT_EQ(pmf.supportSize(), 2u);
    EXPECT_EQ(pmf.prob(1), 0.0);
}

TEST(Pmf, NormalizeMakesMassOne)
{
    Pmf pmf(2);
    pmf.set(0, 2.0);
    pmf.set(3, 6.0);
    pmf.normalize();
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
    EXPECT_NEAR(pmf.prob(0), 0.25, 1e-12);
    EXPECT_NEAR(pmf.prob(3), 0.75, 1e-12);
}

TEST(Pmf, NormalizeEmptyIsNoop)
{
    Pmf pmf(3);
    pmf.normalize();
    EXPECT_EQ(pmf.totalMass(), 0.0);
}

TEST(Pmf, MarginalOfBellIsUniformPerQubit)
{
    Pmf bell = makeBell();
    for (int q = 0; q < 2; ++q) {
        Pmf marg = bell.marginal({q});
        EXPECT_NEAR(marg.prob(0), 0.5, 1e-12);
        EXPECT_NEAR(marg.prob(1), 0.5, 1e-12);
    }
}

TEST(Pmf, MarginalReordersBits)
{
    Pmf pmf(2);
    pmf.set(0b01, 1.0); // qubit0=1, qubit1=0
    Pmf marg = pmf.marginal({1, 0});
    // marginal bit0 = original qubit1 (0), bit1 = original qubit0 (1).
    EXPECT_NEAR(marg.prob(0b10), 1.0, 1e-12);
}

TEST(Pmf, MarginalPreservesMass)
{
    Rng rng(5);
    Pmf pmf(4);
    for (int i = 0; i < 16; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();
    Pmf marg = pmf.marginal({0, 2});
    EXPECT_NEAR(marg.totalMass(), 1.0, 1e-12);
}

TEST(Pmf, ExpectationParityBell)
{
    Pmf bell = makeBell();
    // <Z0 Z1> = +1 on the Bell distribution; <Z0> = 0.
    EXPECT_NEAR(bell.expectationParity(0b11), 1.0, 1e-12);
    EXPECT_NEAR(bell.expectationParity(0b01), 0.0, 1e-12);
    EXPECT_NEAR(bell.expectationParity(0b00), 1.0, 1e-12);
}

TEST(Pmf, ExpectationParityBounds)
{
    Rng rng(6);
    Pmf pmf(5);
    for (int i = 0; i < 32; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();
    for (std::uint64_t mask = 0; mask < 32; ++mask) {
        const double e = pmf.expectationParity(mask);
        EXPECT_LE(e, 1.0 + 1e-12);
        EXPECT_GE(e, -1.0 - 1e-12);
    }
}

TEST(Pmf, SupportStaysSortedAfterSetAndAccumulate)
{
    // Insert a permutation of outcomes in scrambled order, then
    // accumulate onto some existing and some new outcomes.
    Pmf pmf(8);
    std::vector<std::uint64_t> order(40);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(25);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);
    for (std::uint64_t x : order)
        pmf.set(x * 5, static_cast<double>(x));
    for (std::uint64_t x : {199u, 3u, 0u, 101u, 250u})
        pmf.accumulate(x, 0.5);

    ASSERT_EQ(pmf.supportSize(), 44u);
    for (std::size_t i = 1; i < pmf.supportSize(); ++i)
        EXPECT_LT(pmf.entries()[i - 1].outcome,
                  pmf.entries()[i].outcome);
    EXPECT_EQ(pmf.prob(0), 0.5);
    EXPECT_EQ(pmf.prob(3), 0.5);
    EXPECT_EQ(pmf.prob(195), 39.0);
    EXPECT_EQ(pmf.prob(250), 0.5);
    pmf.set(195, 1.0);
    EXPECT_EQ(pmf.prob(195), 1.0);
    EXPECT_EQ(pmf.supportSize(), 44u);
}

TEST(Pmf, EqualityIsExact)
{
    Pmf a = makeBell();
    Pmf b = makeBell();
    EXPECT_EQ(a, b);
    b.set(0b11, std::nextafter(0.5, 1.0));
    EXPECT_NE(a, b);
    Pmf wider(3);
    wider.set(0b00, 0.5);
    wider.set(0b11, 0.5);
    EXPECT_NE(a, wider);
}

TEST(Pmf, FromSortedEntriesAdoptsAscendingOutcomes)
{
    EXPECT_EQ(Pmf::fromSortedEntries(2, {{0b00, 0.5}, {0b11, 0.5}}),
              makeBell());
    EXPECT_EQ(Pmf::fromSortedEntries(3, {}), Pmf(3));
}

TEST(PmfDeathTest, FromSortedEntriesRejectsUnsortedOrDuplicate)
{
    EXPECT_DEATH(Pmf::fromSortedEntries(2, {{0b11, 0.5}, {0b00, 0.5}}),
                 "ascend");
    EXPECT_DEATH(Pmf::fromSortedEntries(
                     2, {{0b00, 0.2}, {0b01, 0.3}, {0b01, 0.5}}),
                 "ascend");
}

TEST(PmfDeathTest, MarginalRejectsPositionsOutsideThePmf)
{
    const Pmf bell = makeBell(); // 2 bits
    EXPECT_DEATH(bell.marginal({-1}), "Pmf::marginal: bit position");
    EXPECT_DEATH(bell.marginal({0, 2}), "Pmf::marginal: bit position");
    EXPECT_DEATH(bell.marginal({64}), "Pmf::marginal: bit position");
    EXPECT_DEATH(bell.marginal({1, 1}), "repeated");
    EXPECT_EQ(bell.marginal({}).supportSize(), 1u);
}

TEST(Pmf, ArgmaxFindsMode)
{
    Pmf pmf(3);
    pmf.set(2, 0.2);
    pmf.set(5, 0.5);
    pmf.set(7, 0.3);
    EXPECT_EQ(pmf.argmax(), 5u);
}

TEST(Pmf, TvDistanceIdentity)
{
    Pmf bell = makeBell();
    EXPECT_NEAR(Pmf::tvDistance(bell, bell), 0.0, 1e-12);
}

TEST(Pmf, TvDistanceDisjoint)
{
    Pmf a(1), b(1);
    a.set(0, 1.0);
    b.set(1, 1.0);
    EXPECT_NEAR(Pmf::tvDistance(a, b), 1.0, 1e-12);
}

TEST(Pmf, TvDistanceSymmetric)
{
    Rng rng(12);
    Pmf a(3), b(3);
    for (int i = 0; i < 8; ++i) {
        a.set(i, rng.uniform());
        b.set(i, rng.uniform());
    }
    a.normalize();
    b.normalize();
    EXPECT_NEAR(Pmf::tvDistance(a, b), Pmf::tvDistance(b, a), 1e-12);
}

TEST(Pmf, FidelityIdentityIsOne)
{
    Pmf bell = makeBell();
    EXPECT_NEAR(Pmf::fidelity(bell, bell), 1.0, 1e-12);
}

TEST(Pmf, FidelityDisjointIsZero)
{
    Pmf a(1), b(1);
    a.set(0, 1.0);
    b.set(1, 1.0);
    EXPECT_NEAR(Pmf::fidelity(a, b), 0.0, 1e-12);
}

TEST(Pmf, HellingerBetweenZeroAndOne)
{
    Rng rng(14);
    Pmf a(3), b(3);
    for (int i = 0; i < 8; ++i) {
        a.set(i, rng.uniform());
        b.set(i, rng.uniform());
    }
    a.normalize();
    b.normalize();
    const double h = Pmf::hellingerDistance(a, b);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
}

/** Property sweep: marginal consistency for random PMFs. */
class PmfMarginalProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PmfMarginalProperty, MarginalOfMarginalIsDirectMarginal)
{
    Rng rng(1000 + GetParam());
    Pmf pmf(4);
    for (int i = 0; i < 16; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();

    // Marginalizing {0,1,2} then {0,2} (relative) equals {0,2} direct.
    Pmf two_step = pmf.marginal({0, 1, 2}).marginal({0, 2});
    Pmf direct = pmf.marginal({0, 2});
    EXPECT_LT(Pmf::tvDistance(two_step, direct), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PmfMarginalProperty,
                         ::testing::Range(0, 10));

} // namespace
} // namespace varsaw
