/**
 * @file
 * Unit and property tests for readout-error channels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "noise/readout_error.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

TEST(ReadoutError, MeanError)
{
    ReadoutError e{0.02, 0.06};
    EXPECT_DOUBLE_EQ(e.meanError(), 0.04);
}

TEST(ReadoutError, ScalingClampsAtHalf)
{
    ReadoutError e{0.3, 0.4};
    ReadoutError scaled = e.scaled(3.0);
    EXPECT_DOUBLE_EQ(scaled.p01, 0.5);
    EXPECT_DOUBLE_EQ(scaled.p10, 0.5);
    ReadoutError mild = e.scaled(1.1);
    EXPECT_NEAR(mild.p01, 0.33, 1e-12);
}

TEST(ReadoutConfusion, NoErrorIsIdentity)
{
    std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
    applyReadoutConfusion(probs, {{0, 0}, {0, 0}});
    EXPECT_DOUBLE_EQ(probs[0], 0.1);
    EXPECT_DOUBLE_EQ(probs[3], 0.4);
}

TEST(ReadoutConfusion, SingleQubitFlip)
{
    // Pure |0> with p01 = 0.1 reads 1 with probability 0.1.
    std::vector<double> probs = {1.0, 0.0};
    applyReadoutConfusion(probs, {{0.1, 0.25}});
    EXPECT_NEAR(probs[0], 0.9, 1e-12);
    EXPECT_NEAR(probs[1], 0.1, 1e-12);

    // Pure |1> with p10 = 0.25 reads 0 with probability 0.25.
    probs = {0.0, 1.0};
    applyReadoutConfusion(probs, {{0.1, 0.25}});
    EXPECT_NEAR(probs[0], 0.25, 1e-12);
    EXPECT_NEAR(probs[1], 0.75, 1e-12);
}

TEST(ReadoutConfusion, PreservesNormalization)
{
    Rng rng(3);
    std::vector<double> probs(8);
    double total = 0.0;
    for (auto &p : probs) {
        p = rng.uniform();
        total += p;
    }
    for (auto &p : probs)
        p /= total;

    applyReadoutConfusion(probs,
                          {{0.05, 0.1}, {0.02, 0.04}, {0.01, 0.07}});
    double after = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, 0.0);
        after += p;
    }
    EXPECT_NEAR(after, 1.0, 1e-12);
}

TEST(ReadoutConfusion, TensorStructureOnProductState)
{
    // Independent qubits: channel acts independently per qubit.
    std::vector<double> probs = {1.0, 0.0, 0.0, 0.0}; // |00>
    applyReadoutConfusion(probs, {{0.1, 0.2}, {0.3, 0.4}});
    EXPECT_NEAR(probs[0b00], 0.9 * 0.7, 1e-12);
    EXPECT_NEAR(probs[0b01], 0.1 * 0.7, 1e-12);
    EXPECT_NEAR(probs[0b10], 0.9 * 0.3, 1e-12);
    EXPECT_NEAR(probs[0b11], 0.1 * 0.3, 1e-12);
}

TEST(InverseReadoutConfusion, RoundTripRecoversInput)
{
    Rng rng(5);
    std::vector<double> original(16);
    double total = 0.0;
    for (auto &p : original) {
        p = rng.uniform();
        total += p;
    }
    for (auto &p : original)
        p /= total;

    const std::vector<ReadoutError> errors = {
        {0.03, 0.08}, {0.01, 0.05}, {0.06, 0.02}, {0.04, 0.04}};
    std::vector<double> noisy = original;
    applyReadoutConfusion(noisy, errors);
    ASSERT_TRUE(applyInverseReadoutConfusion(noisy, errors));
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_NEAR(noisy[i], original[i], 1e-10);
}

TEST(InverseReadoutConfusion, SingularMatrixRejected)
{
    std::vector<double> probs = {0.5, 0.5};
    EXPECT_FALSE(applyInverseReadoutConfusion(probs, {{0.5, 0.5}}));
}

TEST(CrosstalkFactor, GrowsLinearly)
{
    EXPECT_DOUBLE_EQ(crosstalkFactor(1, 0.05), 1.0);
    EXPECT_DOUBLE_EQ(crosstalkFactor(2, 0.05), 1.05);
    EXPECT_DOUBLE_EQ(crosstalkFactor(27, 0.04), 1.0 + 26 * 0.04);
    EXPECT_DOUBLE_EQ(crosstalkFactor(0, 0.05), 1.0);
}

/**
 * The skip-scan form both confusion passes had before they walked
 * pairs: sweep every index and skip those with the bit set. The
 * per-pair arithmetic is @p update(v0, v1, q).
 */
template <typename Update>
void
skipScanPasses(std::vector<double> &probs, int bits, Update update)
{
    for (int q = 0; q < bits; ++q) {
        const std::size_t bit = 1ull << q;
        for (std::size_t i = 0; i < probs.size(); ++i) {
            if (i & bit)
                continue;
            update(probs[i], probs[i | bit], q);
        }
    }
}

/** Bitwise equality of two double vectors. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
        0;
}

TEST(ReadoutConfusion, PairWalkMatchesSkipScanBitForBit)
{
    Rng rng(4242);
    for (int bits = 1; bits <= 14; ++bits) {
        std::vector<double> probs(1ull << bits);
        for (double &p : probs)
            p = rng.uniform();
        std::vector<ReadoutError> errors(bits);
        for (auto &e : errors) {
            e.p01 = rng.uniform(0.0, 0.2);
            e.p10 = rng.uniform(0.0, 0.2);
        }

        std::vector<double> forward = probs;
        applyReadoutConfusion(forward, errors);
        std::vector<double> forward_ref = probs;
        skipScanPasses(forward_ref, bits,
                       [&](double &lo, double &hi, int q) {
                           const double p01 = errors[q].p01;
                           const double p10 = errors[q].p10;
                           const double v0 = lo;
                           const double v1 = hi;
                           lo = (1.0 - p01) * v0 + p10 * v1;
                           hi = p01 * v0 + (1.0 - p10) * v1;
                       });
        EXPECT_TRUE(sameBits(forward, forward_ref)) << bits << " bits";

        std::vector<double> inverse = probs;
        ASSERT_TRUE(applyInverseReadoutConfusion(inverse, errors));
        std::vector<double> inverse_ref = probs;
        skipScanPasses(inverse_ref, bits,
                       [&](double &lo, double &hi, int q) {
                           const double p01 = errors[q].p01;
                           const double p10 = errors[q].p10;
                           const double det = 1.0 - p01 - p10;
                           const double inv00 = (1.0 - p10) / det;
                           const double inv01 = -p10 / det;
                           const double inv10 = -p01 / det;
                           const double inv11 = (1.0 - p01) / det;
                           const double v0 = lo;
                           const double v1 = hi;
                           lo = inv00 * v0 + inv01 * v1;
                           hi = inv10 * v0 + inv11 * v1;
                       });
        EXPECT_TRUE(sameBits(inverse, inverse_ref)) << bits << " bits";
    }
}

/** Property: confusion is a stochastic map for any rates <= 0.5. */
class ConfusionStochastic : public ::testing::TestWithParam<int>
{
};

TEST_P(ConfusionStochastic, MassAndPositivityPreserved)
{
    Rng rng(100 + GetParam());
    const int m = 1 + GetParam() % 4;
    std::vector<double> probs(1ull << m, 0.0);
    probs[rng.uniformInt(probs.size())] = 1.0;

    std::vector<ReadoutError> errors(m);
    for (auto &e : errors) {
        e.p01 = rng.uniform(0.0, 0.5);
        e.p10 = rng.uniform(0.0, 0.5);
    }
    applyReadoutConfusion(probs, errors);
    double total = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, -1e-15);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomChannels, ConfusionStochastic,
                         ::testing::Range(0, 12));

} // namespace
} // namespace varsaw
