/**
 * @file
 * Tests for shot sampling (sim/sampling.hh): the distribution the
 * draws follow, the shape of the result, sampling contract v2's
 * golden entries, and bit-identity of the draws across SIMD tiers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/kernels/kernels.hh"
#include "sim/sampling.hh"
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

TEST(Sampling, SampleMatchesDistribution)
{
    Pmf pmf(2);
    pmf.set(0, 0.7);
    pmf.set(3, 0.3);
    Rng rng(8);
    const Pmf sampled = sampleShots(pmf, rng, 100000);
    EXPECT_EQ(sampled.numBits(), 2);
    EXPECT_NEAR(sampled.totalMass(), 1.0, 1e-12);
    EXPECT_NEAR(sampled.prob(0), 0.7, 0.01);
    EXPECT_NEAR(sampled.prob(3), 0.3, 0.01);
    EXPECT_EQ(sampled.prob(1), 0.0);
}

TEST(Sampling, SampleNeverDrawsZeroOrNegativeEntries)
{
    Pmf pmf(3);
    pmf.set(0, 0.0);
    pmf.set(1, 0.5);
    pmf.set(2, -0.25);
    pmf.set(5, 0.5);
    pmf.set(7, 0.0);
    Rng rng(21);
    const Pmf sampled = sampleShots(pmf, rng, 50000);
    ASSERT_EQ(sampled.supportSize(), 2u);
    EXPECT_EQ(sampled.entries()[0].outcome, 1u);
    EXPECT_EQ(sampled.entries()[1].outcome, 5u);
}

TEST(Sampling, SampleOfSingleOutcomeIsCertain)
{
    Pmf pmf(4);
    pmf.set(9, 0.3);
    Rng rng(22);
    const Pmf sampled = sampleShots(pmf, rng, 1000);
    ASSERT_EQ(sampled.supportSize(), 1u);
    EXPECT_EQ(sampled.entries()[0], (Pmf::Entry{9, 1.0}));
}

TEST(Sampling, SampleOfEmptyOrZeroShotsIsEmpty)
{
    Rng rng(23);
    EXPECT_EQ(sampleShots(Pmf(3), rng, 100), Pmf(3));
    EXPECT_EQ(sampleShots(makeBell(), rng, 0), Pmf(2));
}

TEST(Sampling, SampledSupportIsSortedSubsetWithIntegerCounts)
{
    Rng rng(24);
    Pmf pmf(6);
    for (int i = 0; i < 64; ++i)
        if (i % 5 != 0)
            pmf.set(i, rng.uniform());
    const std::uint64_t shots = 777;
    const Pmf sampled = sampleShots(pmf, rng, shots);

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sampled.supportSize(); ++i) {
        const Pmf::Entry &e = sampled.entries()[i];
        if (i > 0) {
            EXPECT_LT(sampled.entries()[i - 1].outcome, e.outcome);
        }
        EXPECT_GT(pmf.prob(e.outcome), 0.0) << "outcome " << e.outcome;
        const double count = e.p * static_cast<double>(shots);
        EXPECT_NEAR(count, std::nearbyint(count), 1e-9);
        EXPECT_GE(count, 1.0 - 1e-9);
        total += static_cast<std::uint64_t>(std::nearbyint(count));
    }
    EXPECT_EQ(total, shots);
}

TEST(Sampling, SampleFitsDistributionChiSquare)
{
    // 64 outcomes with weights spread over two decades, 10^6 shots.
    // The seed is fixed, so the statistic is a constant of the
    // sampling contract, not a flaky draw.
    Pmf pmf(6);
    Rng weights(26);
    for (int i = 0; i < 64; ++i)
        pmf.set(i, 0.1 + weights.uniform() * (i % 2 == 0 ? 1.0 : 10.0));
    pmf.normalize();

    const std::uint64_t shots = 1000000;
    Rng rng(27);
    const Pmf sampled = sampleShots(pmf, rng, shots);
    double chi2 = 0.0;
    for (const Pmf::Entry &e : pmf.entries()) {
        const double expected = e.p * static_cast<double>(shots);
        const double observed =
            sampled.prob(e.outcome) * static_cast<double>(shots);
        chi2 += (observed - expected) * (observed - expected) / expected;
    }
    // 63 degrees of freedom: the 0.1% upper critical value is 103.4.
    EXPECT_LT(chi2, 103.4);
}

TEST(Sampling, SampleGoldenEntries)
{
    // Pins sampling contract v2: the alias-table build order, the
    // 128-bit column/coin split, and count/shots emission. Any change
    // to those changes these entries.
    const std::vector<double> dense = {0.05, 0.1, 0.0, 0.2,
                                       0.15, 0.25, 0.05, 0.2};
    const Pmf pmf = Pmf::fromDense(3, dense);
    Rng rng(2024);
    const Pmf sampled = sampleShots(pmf, rng, 1000);
    // (outcome, count): outcome 2 has p = 0 and is never drawn.
    const std::vector<std::pair<std::uint64_t, int>> counts = {
        {0, 54}, {1, 99}, {3, 204}, {4, 169}, {5, 229}, {6, 60},
        {7, 185}};
    Pmf golden(3);
    for (const auto &[outcome, count] : counts)
        golden.set(outcome, count / 1000.0);
    EXPECT_EQ(sampled, golden);
}

TEST(Sampling, DrawsAndGeneratorStateIdenticalAcrossTiers)
{
    // Real Vose tables of every shape the AVX-512 body special-cases
    // (2, 4, 8 columns) and the reference-only widths around them.
    // Every tier must return the scalar tier's entries and leave the
    // generator where `shots` calls of Rng::next() would.
    const kern::SimdTier entry_tier = kern::activeSimdTier();
    const int ceiling =
        static_cast<int>(kern::maxSupportedSimdTier());
    Rng weights(31);
    for (const int k : {1, 2, 3, 4, 5, 7, 8, 9, 16, 64}) {
        Pmf pmf(7);
        for (int c = 0; c < k; ++c)
            pmf.set(static_cast<std::uint64_t>(c) * 2 + 1,
                    c == 0 ? 4.0 : weights.uniform());
        for (const std::uint64_t shots :
             {0ull, 1ull, 63ull, 64ull, 65ull, 777ull, 2048ull}) {
            const std::uint64_t seed = 1000 + k * 7 + shots;
            kern::setSimdTier(kern::SimdTier::Scalar);
            Rng ref_rng(seed);
            const Pmf reference = sampleShots(pmf, ref_rng, shots);
            Rng stepped(seed);
            for (std::uint64_t s = 0; s < shots; ++s)
                stepped.next();
            EXPECT_EQ(ref_rng.state(), stepped.state())
                << "k=" << k << " shots=" << shots;
            for (int t = 1; t <= ceiling; ++t) {
                const auto tier = static_cast<kern::SimdTier>(t);
                kern::setSimdTier(tier);
                Rng rng(seed);
                EXPECT_EQ(sampleShots(pmf, rng, shots), reference)
                    << kern::simdTierName(tier) << " k=" << k
                    << " shots=" << shots;
                EXPECT_EQ(rng.state(), ref_rng.state())
                    << kern::simdTierName(tier) << " k=" << k
                    << " shots=" << shots;
            }
        }
    }
    kern::setSimdTier(entry_tier);
}

} // namespace
} // namespace varsaw
