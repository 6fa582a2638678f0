/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hh"

namespace varsaw {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform();
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 4.0);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 4.0);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    const int n = 200000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(19);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, RademacherBalanced)
{
    Rng rng(23);
    int plus = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const int r = rng.rademacher();
        ASSERT_TRUE(r == 1 || r == -1);
        if (r == 1)
            ++plus;
    }
    EXPECT_NEAR(static_cast<double>(plus) / n, 0.5, 0.01);
}

} // namespace
} // namespace varsaw
