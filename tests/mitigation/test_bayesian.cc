/**
 * @file
 * Unit and property tests for Bayesian reconstruction (IPF).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "mitigation/bayesian.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
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

/**
 * The four-pass update bayesianReconstruct ran before its two-pass
 * kernel (marginal, scale, totalMass, normalize per local), kept as
 * the reference the kernel must match bit for bit. The scale is the
 * in-order multiply the removed Pmf::scale performed.
 */
Pmf
fourPassReconstruct(const Pmf &global,
                    const std::vector<LocalPmf> &locals, int passes)
{
    if (passes < 1)
        panic("bayesianReconstruct: passes must be >= 1");

    std::size_t width = 0;
    for (const auto &local : locals)
        width = std::max(width, local.positions.size());
    if (width > 30)
        panic("bayesianReconstruct: local spans too many bits");

    Pmf out = global;
    out.normalize();

    std::vector<double> marg(std::size_t{1} << width);
    std::vector<double> ratio(marg.size());

    for (int pass = 0; pass < passes; ++pass) {
        for (const auto &local : locals) {
            if (local.pmf.supportSize() == 0)
                continue;
            const std::vector<int> &positions = local.positions;
            const std::size_t n = std::size_t{1} << positions.size();

            std::fill_n(marg.begin(), n, 0.0);
            for (const Pmf::Entry &e : out.entries())
                marg[gatherBits(e.outcome, positions)] += e.p;

            std::fill_n(ratio.begin(), n, 0.0);
            for (const Pmf::Entry &e : local.pmf.entries())
                if (e.outcome < n)
                    ratio[e.outcome] = e.p;
            for (std::size_t s = 0; s < n; ++s)
                ratio[s] = marg[s] <= 0.0 ? 1.0 : ratio[s] / marg[s];

            std::vector<Pmf::Entry> scaled = out.entries();
            for (Pmf::Entry &e : scaled)
                e.p *= ratio[gatherBits(e.outcome, positions)];
            out = Pmf::fromSortedEntries(out.numBits(),
                                         std::move(scaled));
            out.normalize();
        }
    }
    return out;
}

/** Unnormalized global over @p bits with about @p support outcomes,
 * about a tenth of them at exactly zero. */
Pmf
randomGlobal(Rng &rng, int bits, int support)
{
    Pmf global(bits);
    for (int i = 0; i < support; ++i)
        global.set(rng.uniformInt(std::uint64_t{1} << bits),
                   rng.bernoulli(0.1) ? 0.0 : rng.uniform());
    return global;
}

/** A local over @p width distinct random bits below @p bits, with
 * some window outcomes missing and sometimes an outcome at or beyond
 * 2^width (which the update must ignore). */
LocalPmf
randomLocal(Rng &rng, int bits, int width)
{
    std::vector<int> order(static_cast<std::size_t>(bits));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);
    LocalPmf local;
    local.positions.assign(order.begin(), order.begin() + width);
    local.pmf = Pmf(width);
    const std::uint64_t n = std::uint64_t{1} << width;
    for (std::uint64_t s = 0; s < n; ++s)
        if (rng.bernoulli(0.8))
            local.pmf.set(s, rng.uniform());
    if (rng.bernoulli(0.3))
        local.pmf.set(n + rng.uniformInt(4), rng.uniform());
    return local;
}

TEST(Bayesian, TwoPassKernelMatchesFourPassReference)
{
    // Every stack width (0-5) and one runtime width (9) in each
    // call, shuffled, plus empty locals, across 1-3 passes.
    constexpr int kBits = 12;
    Rng rng(2024);
    for (int trial = 0; trial < 60; ++trial) {
        const Pmf global =
            randomGlobal(rng, kBits, 1 + static_cast<int>(
                                          rng.uniformInt(300)));
        std::vector<LocalPmf> locals;
        for (int width : {0, 1, 2, 3, 4, 5, 9, 2, 2})
            locals.push_back(randomLocal(rng, kBits, width));
        LocalPmf empty;
        empty.positions = {3, 7};
        empty.pmf = Pmf(2);
        locals.push_back(empty);
        for (std::size_t i = locals.size(); i > 1; --i)
            std::swap(locals[i - 1], locals[rng.uniformInt(i)]);
        const int passes = 1 + trial % 3;
        EXPECT_EQ(bayesianReconstruct(global, locals, passes),
                  fourPassReconstruct(global, locals, passes))
            << "trial " << trial;
    }
}

TEST(Bayesian, TwoPassKernelMatchesReferenceOnDegenerateInputs)
{
    Rng rng(77);
    std::vector<LocalPmf> locals;
    for (int width : {1, 2, 5, 9})
        locals.push_back(randomLocal(rng, 10, width));

    // All-zero global: every normalize is a no-op, every ratio 1.
    Pmf zeros(10);
    for (std::uint64_t x : {3u, 17u, 256u, 1000u})
        zeros.set(x, 0.0);
    // Empty global and no locals at all.
    const Pmf empty(10);
    // Bit 0 is never set, so window outcome 1 of a local on bit 0
    // has zero marginal mass; so has outcome 0b10 of {0, 4}, whose
    // only carrier has probability zero.
    Pmf lopsided(10);
    lopsided.set(0b00000, 0.25);
    lopsided.set(0b00010, 0.5);
    lopsided.set(0b10000, 0.0);
    lopsided.set(0b10010, 0.25);
    LocalPmf bit0;
    bit0.positions = {0};
    bit0.pmf = Pmf(1);
    bit0.pmf.set(0, 0.3);
    bit0.pmf.set(1, 0.7);
    LocalPmf pair;
    pair.positions = {0, 4};
    pair.pmf = Pmf(2);
    for (std::uint64_t s = 0; s < 4; ++s)
        pair.pmf.set(s, 0.1 + 0.2 * static_cast<double>(s));

    for (int passes = 1; passes <= 3; ++passes) {
        EXPECT_EQ(bayesianReconstruct(zeros, locals, passes),
                  fourPassReconstruct(zeros, locals, passes));
        EXPECT_EQ(bayesianReconstruct(empty, locals, passes),
                  fourPassReconstruct(empty, locals, passes));
        EXPECT_EQ(bayesianReconstruct(zeros, {}, passes),
                  fourPassReconstruct(zeros, {}, passes));
        EXPECT_EQ(bayesianReconstruct(lopsided, {bit0, pair}, passes),
                  fourPassReconstruct(lopsided, {bit0, pair}, passes));
    }
}

TEST(Bayesian, BatchedMatchesFourPassReference)
{
    // bayesianReconstructAll over 61 bases (seven full groups of
    // eight and one of five) equals the four-pass reference basis by
    // basis. Most bases have only 0-2 bit windows, so their groups
    // take the AVX-512 lanes where the host has them; every fourth
    // basis also has wider ones, which sends its group to the scalar
    // body. Supports, window counts and empty locals vary per basis.
    constexpr int kBits = 12;
    Rng rng(4242);
    for (int passes = 1; passes <= 3; ++passes) {
        std::vector<Pmf> globals;
        std::vector<std::vector<LocalPmf>> locals;
        for (int b = 0; b < 61; ++b) {
            globals.push_back(randomGlobal(
                rng, kBits,
                static_cast<int>(rng.uniformInt(400))));
            std::vector<LocalPmf> own;
            const int windows = static_cast<int>(rng.uniformInt(9));
            for (int w = 0; w < windows; ++w) {
                const int width = b % 4 == 3 && w % 2 == 0
                    ? 3 + static_cast<int>(rng.uniformInt(3))
                    : static_cast<int>(rng.uniformInt(3));
                own.push_back(randomLocal(rng, kBits, width));
                if (rng.bernoulli(0.1))
                    own.back().pmf = Pmf(width);
            }
            locals.push_back(std::move(own));
        }
        const std::vector<Pmf> batched =
            bayesianReconstructAll(globals, locals, passes);
        ASSERT_EQ(batched.size(), globals.size());
        for (std::size_t b = 0; b < globals.size(); ++b)
            EXPECT_EQ(batched[b],
                      fourPassReconstruct(globals[b], locals[b], passes))
                << "basis " << b << " passes " << passes;
    }
    EXPECT_TRUE(bayesianReconstructAll({}, {}, 1).empty());
}

TEST(BayesianDeathTest, RejectsPositionsOutsideTheGlobal)
{
    // A shift by a negative count or by 64 or more is undefined, so
    // every local position must be a distinct bit of the global.
    const Pmf global = noisyGhz(); // 3 bits
    for (const std::vector<int> &bad :
         {std::vector<int>{-1}, std::vector<int>{0, 3},
          std::vector<int>{64}, std::vector<int>{1, 1}}) {
        LocalPmf local = idealLocal(bad);
        EXPECT_DEATH(bayesianReconstruct(global, {local}, 1),
                     "bayesianReconstruct: bit position");
        EXPECT_DEATH(bayesianReconstructAll({global, global},
                                            {{}, {local}}, 1),
                     "bayesianReconstruct: bit position");
    }
    EXPECT_DEATH(bayesianReconstructAll({global}, {}, 1),
                 "one locals list per global");
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
