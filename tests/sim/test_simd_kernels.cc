/**
 * @file
 * Bit-identity of the SIMD kernel tiers.
 *
 * The dispatch layer (sim/kernels/) promises that every tier —
 * scalar reference, AVX2+FMA, AVX-512 — produces bit-identical
 * results for every kernel: identical per-element rounding DAGs
 * (std::fma in the reference where the vector tiers use fused
 * ops, -ffp-contract=off on all kernel TUs) plus absolute-index
 * lane assignment and fixed fold order in the reductions. These
 * tests pin that contract on every tier the host supports, crossed
 * with the kernel-thread counts {1, 2, 8} and register widths
 * around the parallel engagement threshold — and exercise the
 * dispatched table functions directly on ragged/unaligned
 * subranges, where the vector tiers must run their scalar heads
 * and tails.
 *
 * Tiers above maxSupportedSimdTier() cannot be installed here
 * (setSimdTier clamps), so on a host without AVX-512 the avx512
 * rows simply collapse onto the widest available tier; CI runs the
 * forced-scalar twin job to cover the reference on every machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "sim/kernels/kernels.hh"
#include "sim/statevector.hh"
#include "util/aligned.hh"
#include "util/bitops.hh"
#include "util/parallel.hh"
#include "util/pmf.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

using kern::SimdTier;

/** Restore the active tier and kernel threads on scope exit. */
class SimdEnvGuard
{
  public:
    SimdEnvGuard()
        : tier_(kern::activeSimdTier()), threads_(kernelThreads())
    {
    }
    ~SimdEnvGuard()
    {
        kern::setSimdTier(tier_);
        setKernelThreads(threads_);
    }

  private:
    SimdTier tier_;
    int threads_;
};

/** Every tier the host can actually install, scalar first. */
std::vector<SimdTier>
supportedTiers()
{
    std::vector<SimdTier> tiers;
    const int ceiling =
        static_cast<int>(kern::maxSupportedSimdTier());
    for (int t = 0; t <= ceiling; ++t)
        tiers.push_back(static_cast<SimdTier>(t));
    return tiers;
}

const std::vector<int> kThreadCounts = {1, 2, 8};

/** Widths around kParallelEngage: serial and chunked algorithms. */
const std::vector<int> kWidths = {15, 16, 17};

/** Deterministic dense state: rotations, entanglers, phases. */
Statevector
makeState(int n)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.h(q);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.19 + 0.11 * q);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.rz(q, 0.43 - 0.07 * q);
    c.rzz(0, n - 1, 0.59);
    Statevector sv(n);
    sv.run(c, {});
    return sv;
}

void
expectAmpsIdentical(const Statevector &a, const Statevector &b,
                    const char *what, int n, SimdTier tier,
                    int threads)
{
    ASSERT_EQ(a.amplitudes().size(), b.amplitudes().size());
    const int same = std::memcmp(
        a.amplitudes().data(), b.amplitudes().data(),
        a.amplitudes().size() * sizeof(Statevector::Amplitude));
    EXPECT_EQ(same, 0)
        << what << " diverged at n=" << n
        << " simd=" << kern::simdTierName(tier)
        << " kernelThreads=" << threads;
}

/**
 * Run @p mutate on a fresh copy of @p input at every supported tier
 * x thread count and compare bitwise against the scalar 1-thread
 * reference.
 */
template <typename Fn>
void
sweepTiers(const Statevector &input, const char *what, Fn mutate)
{
    SimdEnvGuard guard;
    const int n = input.numQubits();
    kern::setSimdTier(SimdTier::Scalar);
    setKernelThreads(1);
    Statevector reference(input);
    mutate(reference);
    for (const SimdTier tier : supportedTiers()) {
        ASSERT_EQ(kern::setSimdTier(tier), tier);
        for (const int t : kThreadCounts) {
            setKernelThreads(t);
            Statevector got(input);
            mutate(got);
            expectAmpsIdentical(reference, got, what, n, tier, t);
        }
    }
}

/** Bitwise double equality (also distinguishes -0.0 from 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBits(const std::complex<double> &a, const std::complex<double> &b)
{
    return sameBits(a.real(), b.real()) &&
        sameBits(a.imag(), b.imag());
}

TEST(SimdKernels, TierNamesAndParsing)
{
    EXPECT_STREQ(kern::simdTierName(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(kern::simdTierName(SimdTier::Avx2), "avx2");
    EXPECT_STREQ(kern::simdTierName(SimdTier::Avx512), "avx512");

    SimdTier tier = SimdTier::Avx512;
    bool is_auto = false;
    EXPECT_TRUE(kern::parseSimdTier("scalar", &tier, &is_auto));
    EXPECT_EQ(tier, SimdTier::Scalar);
    EXPECT_FALSE(is_auto);
    EXPECT_TRUE(kern::parseSimdTier("avx2", &tier, &is_auto));
    EXPECT_EQ(tier, SimdTier::Avx2);
    EXPECT_TRUE(kern::parseSimdTier("avx512", &tier, &is_auto));
    EXPECT_EQ(tier, SimdTier::Avx512);
    // "auto" reports via is_auto and leaves the tier alone.
    tier = SimdTier::Avx2;
    EXPECT_TRUE(kern::parseSimdTier("auto", &tier, &is_auto));
    EXPECT_TRUE(is_auto);
    EXPECT_EQ(tier, SimdTier::Avx2);
    EXPECT_FALSE(kern::parseSimdTier("AVX2", &tier, &is_auto));
    EXPECT_FALSE(kern::parseSimdTier("", &tier, &is_auto));
    EXPECT_FALSE(kern::parseSimdTier("sse", &tier, &is_auto));
}

TEST(SimdKernels, SetTierClampsToHostCeiling)
{
    SimdEnvGuard guard;
    const SimdTier ceiling = kern::maxSupportedSimdTier();
    // A request above the ceiling clamps; the active tier always
    // reports what was actually installed.
    EXPECT_EQ(kern::setSimdTier(SimdTier::Avx512),
              std::min(SimdTier::Avx512, ceiling));
    EXPECT_EQ(kern::activeSimdTier(),
              std::min(SimdTier::Avx512, ceiling));
    EXPECT_EQ(kern::setSimdTier(SimdTier::Scalar), SimdTier::Scalar);
    EXPECT_EQ(kern::activeSimdTier(), SimdTier::Scalar);
    EXPECT_EQ(kern::kernelsFor(SimdTier::Scalar).tier,
              SimdTier::Scalar);
    // Every installable table self-reports its tier.
    for (const SimdTier t : supportedTiers())
        EXPECT_EQ(kern::kernelsFor(t).tier, t);
}

TEST(SimdKernels, MutatingKernelsBitIdenticalAcrossTiers)
{
    for (const int n : kWidths) {
        const Statevector input = makeState(n);
        // apply1Q at the adjacent-pair target (q = 0, the dedicated
        // interleaved kernel), the q = 1 two-amplitude segments, a
        // middle target, and the top qubit.
        for (const int q : {0, 1, n / 2, n - 1})
            sweepTiers(input, "apply1Q", [&, q](Statevector &sv) {
                sv.apply1Q(q, gates::ry(0.41));
            });
        sweepTiers(input, "applyCX", [&](Statevector &sv) {
            sv.applyCX(0, n - 1);
        });
        sweepTiers(input, "applyCZ", [&](Statevector &sv) {
            sv.applyCZ(1, n / 2);
        });
        sweepTiers(input, "applyRZZ", [&](Statevector &sv) {
            sv.applyRZZ(1, n - 2, 0.53);
        });
        sweepTiers(input, "applySwap", [&](Statevector &sv) {
            sv.applySwap(0, n - 1);
        });
        // RZ layer + CZ + RZZ fuses into one diagonal-table pass.
        Circuit mixed(n);
        for (int q = 0; q < n; ++q)
            mixed.rz(q, 0.21 + 0.07 * q);
        mixed.cz(0, n - 1);
        mixed.rzz(1, n - 2, 0.55);
        sweepTiers(input, "applyDiagonalRun",
                   [&](Statevector &sv) {
                       sv.applyOps(mixed.ops().data(),
                                   mixed.ops().size(), {});
                   });
        PauliString pauli(n);
        for (int q = 0; q < n; ++q)
            pauli.setOp(q, q % 3 == 0
                               ? PauliOp::X
                               : (q % 3 == 1 ? PauliOp::Y
                                             : PauliOp::Z));
        sweepTiers(input, "applyPauli", [&](Statevector &sv) {
            sv.applyPauli(pauli);
        });
    }
}

TEST(SimdKernels, ReductionsBitIdenticalAcrossTiers)
{
    SimdEnvGuard guard;
    for (const int n : kWidths) {
        const Statevector input = makeState(n);
        Statevector other = makeState(n);
        other.apply1Q(0, gates::ry(0.29));
        PauliString pauli(n);
        for (int q = 0; q < n; ++q)
            pauli.setOp(q, q % 2 == 0 ? PauliOp::Z : PauliOp::X);

        kern::setSimdTier(SimdTier::Scalar);
        setKernelThreads(1);
        const double ref_norm = input.norm();
        const auto ref_probs = input.probabilities();
        const auto ref_marg =
            input.marginalProbabilities({n - 1, 2, 5, 0});
        const double ref_exp = input.expectationPauli(pauli);
        const auto ref_inner = input.innerProduct(other);

        for (const SimdTier tier : supportedTiers()) {
            kern::setSimdTier(tier);
            for (const int t : kThreadCounts) {
                setKernelThreads(t);
                const auto tag = [&](const char *what) {
                    return std::string(what) + " n=" +
                        std::to_string(n) + " simd=" +
                        kern::simdTierName(tier) + " threads=" +
                        std::to_string(t);
                };
                EXPECT_TRUE(sameBits(input.norm(), ref_norm))
                    << tag("norm");
                EXPECT_TRUE(
                    sameBits(input.expectationPauli(pauli), ref_exp))
                    << tag("expectationPauli");
                EXPECT_TRUE(
                    sameBits(input.innerProduct(other), ref_inner))
                    << tag("innerProduct");
                const auto probs = input.probabilities();
                ASSERT_EQ(probs.size(), ref_probs.size());
                for (std::size_t i = 0; i < probs.size(); ++i)
                    ASSERT_TRUE(sameBits(probs[i], ref_probs[i]))
                        << tag("probabilities") << " i=" << i;
                const auto marg =
                    input.marginalProbabilities({n - 1, 2, 5, 0});
                ASSERT_EQ(marg.size(), ref_marg.size());
                for (std::size_t i = 0; i < marg.size(); ++i)
                    ASSERT_TRUE(sameBits(marg[i], ref_marg[i]))
                        << tag("marginalProbabilities")
                        << " i=" << i;
            }
        }
    }
}

/**
 * The dispatched table functions directly, on ragged subranges with
 * unaligned (odd) endpoints — the vector tiers must run scalar
 * head/tail loops there, and those heads/tails land in the same
 * absolute-index lanes as the reference.
 */
TEST(SimdKernels, DirectTableRaggedAndUnalignedRanges)
{
    const int n = 10;
    const std::uint64_t dim = 1ull << n;
    const Statevector base = makeState(n);
    Statevector partner = makeState(n);
    partner.apply1Q(2, gates::ry(0.71));
    const Matrix2 m = gates::ry(0.41);

    kern::DiagTableGate diag[3];
    diag[0].a = diag[0].b = 3; // one-qubit diagonal
    diag[0].table[0] = diag[0].table[2] = kern::Amp(0.6, 0.8);
    diag[0].table[1] = diag[0].table[3] = kern::Amp(0.8, -0.6);
    diag[1].a = 1; // RZZ-style parity table
    diag[1].b = 7;
    diag[1].table[1] = diag[1].table[2] = kern::Amp(0.28, 0.96);
    diag[2].a = 2; // CZ-style exact negation
    diag[2].b = 6;
    diag[2].negate = true;

    const kern::KernelTable &ref =
        kern::kernelsFor(SimdTier::Scalar);
    for (const SimdTier tier : supportedTiers()) {
        const kern::KernelTable &kt = kern::kernelsFor(tier);
        const auto tag = [&](const char *what) {
            return std::string(what) + " simd=" +
                kern::simdTierName(tier);
        };

        // apply1q on odd pair subranges, adjacent and strided.
        for (const int q : {0, 1, 4, n - 1}) {
            const std::uint64_t pairs = dim / 2;
            const std::pair<std::uint64_t, std::uint64_t>
                pair_ranges[] = {{3, pairs - 5},
                                 {1, 2},
                                 {pairs - 1, pairs}};
            for (const auto &[k0, k1] : pair_ranges) {
                Statevector want(base), got(base);
                ref.apply1q(
                    const_cast<Statevector::Amplitude *>(
                        want.amplitudes().data()),
                    q, k0, k1, m);
                kt.apply1q(
                    const_cast<Statevector::Amplitude *>(
                        got.amplitudes().data()),
                    q, k0, k1, m);
                expectAmpsIdentical(want, got, tag("apply1q").c_str(),
                                    n, tier, 1);
            }
        }

        // Fused diagonal tables on odd amplitude subranges.
        const std::pair<std::uint64_t, std::uint64_t>
            diag_ranges[] = {{3, dim - 7}, {1, 6}, {dim - 3, dim}};
        for (const auto &[i0, i1] : diag_ranges) {
            Statevector want(base), got(base);
            ref.diagTables(const_cast<Statevector::Amplitude *>(
                               want.amplitudes().data()),
                           i0, i1, diag, 3);
            kt.diagTables(const_cast<Statevector::Amplitude *>(
                              got.amplitudes().data()),
                          i0, i1, diag, 3);
            expectAmpsIdentical(want, got, tag("diagTables").c_str(),
                                n, tier, 1);
        }

        // Quad kernels on odd quad subranges.
        const std::uint64_t quads = dim / 4;
        const std::pair<std::uint64_t, std::uint64_t>
            quad_ranges[] = {{5, quads - 3}, {0, 1}};
        for (const auto &[k0, k1] : quad_ranges) {
            Statevector wantCx(base), gotCx(base);
            ref.cxQuads(const_cast<Statevector::Amplitude *>(
                            wantCx.amplitudes().data()),
                        1, 6, k0, k1);
            kt.cxQuads(const_cast<Statevector::Amplitude *>(
                           gotCx.amplitudes().data()),
                       1, 6, k0, k1);
            expectAmpsIdentical(wantCx, gotCx, tag("cxQuads").c_str(),
                                n, tier, 1);
            Statevector wantCz(base), gotCz(base);
            ref.czQuads(const_cast<Statevector::Amplitude *>(
                            wantCz.amplitudes().data()),
                        2, 8, k0, k1);
            kt.czQuads(const_cast<Statevector::Amplitude *>(
                           gotCz.amplitudes().data()),
                       2, 8, k0, k1);
            expectAmpsIdentical(wantCz, gotCz, tag("czQuads").c_str(),
                                n, tier, 1);
            Statevector wantSw(base), gotSw(base);
            ref.swapQuads(const_cast<Statevector::Amplitude *>(
                              wantSw.amplitudes().data()),
                          0, 7, k0, k1);
            kt.swapQuads(const_cast<Statevector::Amplitude *>(
                             gotSw.amplitudes().data()),
                         0, 7, k0, k1);
            expectAmpsIdentical(wantSw, gotSw,
                                tag("swapQuads").c_str(), n, tier,
                                1);
        }

        // Reductions on ragged ranges: odd heads AND odd totals, so
        // the lane seeding/draining at both ends is exercised.
        const std::uint64_t x = 0x155ull & (dim - 1);
        const std::uint64_t z = 0x0f3ull & (dim - 1);
        const int quadrant = popcount(x & z) & 3;
        const std::pair<std::uint64_t, std::uint64_t>
            red_ranges[] = {{1, dim - 3}, {3, 10}, {7, 8}, {0, dim}};
        for (const auto &[i0, i1] : red_ranges) {
            EXPECT_TRUE(sameBits(
                ref.normChunk(base.amplitudes().data(), i0, i1),
                kt.normChunk(base.amplitudes().data(), i0, i1)))
                << tag("normChunk") << " [" << i0 << "," << i1
                << ")";
            EXPECT_TRUE(sameBits(
                ref.innerChunk(base.amplitudes().data(),
                               partner.amplitudes().data(), i0, i1),
                kt.innerChunk(base.amplitudes().data(),
                              partner.amplitudes().data(), i0, i1)))
                << tag("innerChunk") << " [" << i0 << "," << i1
                << ")";
            EXPECT_TRUE(sameBits(
                ref.expPauliChunk(base.amplitudes().data(), x, z,
                                  quadrant, i0, i1),
                kt.expPauliChunk(base.amplitudes().data(), x, z,
                                 quadrant, i0, i1)))
                << tag("expPauliChunk") << " [" << i0 << "," << i1
                << ")";
            std::vector<double> want(dim, -1.0), got(dim, -1.0);
            ref.probChunk(base.amplitudes().data(), want.data(), i0,
                          i1);
            kt.probChunk(base.amplitudes().data(), got.data(), i0,
                         i1);
            for (std::uint64_t i = 0; i < dim; ++i)
                ASSERT_TRUE(sameBits(want[i], got[i]))
                    << tag("probChunk") << " [" << i0 << "," << i1
                    << ") i=" << i;
        }
    }
}

// --- shot draws (aliasDraws) -------------------------------------

/** An alias table as the draw kernel reads it. */
struct DrawTable
{
    std::vector<std::uint64_t> threshold;
    std::vector<std::uint64_t> alias;
};

enum class TableShape
{
    Flat,     //!< random coins and aliases, one always-redirecting column
    Peaked,   //!< column 0 keeps everything; the rest mostly go to 0
    AllOnes,  //!< every threshold all-ones: redirect on no real coin
    TieFirst, //!< the first draw's coin is its column's threshold
    TieLast,  //!< the last draw's coin is its column's threshold
};

const TableShape kDrawShapes[] = {TableShape::Flat, TableShape::Peaked,
                                  TableShape::AllOnes,
                                  TableShape::TieFirst,
                                  TableShape::TieLast};

const char *
shapeName(TableShape shape)
{
    switch (shape) {
      case TableShape::Flat:
        return "flat";
      case TableShape::Peaked:
        return "peaked";
      case TableShape::AllOnes:
        return "all-ones";
      case TableShape::TieFirst:
        return "tie-first";
      default:
        return "tie-last";
    }
}

/**
 * A k-column table of @p shape. The tie shapes read the draws of
 * @p seed: one draw's coin becomes its column's threshold, so that
 * draw sits exactly on the boundary (`coin >= threshold` sends it
 * to the alias; `coin > threshold` would keep it), where random
 * thresholds tie with probability 2^-64. The first draw lands in
 * the AVX-512 body's 64-draw blocks when shots >= 64, the last in
 * its per-shot tail when shots mod 64 != 0. One tie only: ties in
 * every column with cyclic aliases would cancel in the tally.
 */
DrawTable
makeDrawTable(std::uint64_t k, TableShape shape, Rng &rng,
              const Rng::State &seed, std::uint64_t shots)
{
    DrawTable t;
    t.threshold.assign(k, ~0ull);
    t.alias.resize(k);
    for (std::uint64_t c = 0; c < k; ++c) {
        switch (shape) {
          case TableShape::Flat:
            t.threshold[c] = c == k / 2 ? 0 : rng.next();
            t.alias[c] = rng.uniformInt(k);
            break;
          case TableShape::Peaked:
            t.threshold[c] = c == 0 ? ~0ull : rng.next() >> 6;
            t.alias[c] = 0;
            break;
          default:
            t.alias[c] = (c + 1) % k;
            break;
        }
    }
    const bool tie = shape == TableShape::TieFirst ||
        shape == TableShape::TieLast;
    if (tie && shots > 0) {
        Rng draws;
        draws.setState(seed);
        const std::uint64_t target =
            shape == TableShape::TieFirst ? 0 : shots - 1;
        for (std::uint64_t s = 0; s < target; ++s)
            draws.next();
        const unsigned __int128 wide =
            static_cast<unsigned __int128>(draws.next()) * k;
        t.threshold[static_cast<std::uint64_t>(wide >> 64)] =
            static_cast<std::uint64_t>(wide);
    }
    return t;
}

const std::vector<std::uint64_t> kDrawColumns = {1, 2,  3,  4,  5,    6,
                                                 7, 8,  9,  16, 64, 1024};
const std::vector<std::uint64_t> kDrawShots = {0,   1,   63,  64,   65,
                                               127, 128, 777, 2048, 4099};

/** The tally (added onto @p start) and final state of one call. */
struct DrawResult
{
    std::vector<std::uint64_t> tally;
    std::uint64_t state[4];
};

DrawResult
runDraws(const kern::KernelTable &table, const Rng::State &seed,
         std::uint64_t shots, const DrawTable &t,
         const std::vector<std::uint64_t> &start)
{
    DrawResult out;
    out.tally = start;
    std::copy(seed.begin(), seed.end(), out.state);
    table.aliasDraws(out.state, shots, t.threshold.size(),
                     t.threshold.data(), t.alias.data(),
                     out.tally.data());
    return out;
}

std::string
drawCase(std::uint64_t k, TableShape shape, std::uint64_t shots)
{
    return "k=" + std::to_string(k) + " shape=" + shapeName(shape) +
        " shots=" + std::to_string(shots);
}

/**
 * Every tier's aliasDraws equals the scalar reference in tally and
 * final generator state, for the AVX-512 body's column counts (2,
 * 4, 8) and the reference-only ones, at shot counts on both sides
 * of its 64-draw blocks. The tally starts non-zero, so a body that
 * overwrites instead of adding fails too.
 */
TEST(SimdKernels, AliasDrawsBitIdenticalAcrossTiers)
{
    const kern::KernelTable &scalar =
        kern::kernelsFor(SimdTier::Scalar);
    Rng tables(91);
    for (const std::uint64_t k : kDrawColumns) {
        std::vector<std::uint64_t> start(k);
        for (std::uint64_t c = 0; c < k; ++c)
            start[c] = 1000 * c;
        for (const std::uint64_t shots : kDrawShots) {
            const Rng::State seed = Rng(mix64(k, shots)).state();
            for (const TableShape shape : kDrawShapes) {
                const DrawTable t =
                    makeDrawTable(k, shape, tables, seed, shots);
                const DrawResult ref =
                    runDraws(scalar, seed, shots, t, start);
                for (const SimdTier tier : supportedTiers()) {
                    const DrawResult got = runDraws(
                        kern::kernelsFor(tier), seed, shots, t, start);
                    const std::string where =
                        std::string(kern::simdTierName(tier)) + " " +
                        drawCase(k, shape, shots);
                    EXPECT_EQ(got.tally, ref.tally) << where;
                    EXPECT_TRUE(std::equal(got.state, got.state + 4,
                                           ref.state))
                        << where;
                }
            }
        }
    }
}

/**
 * The scalar reference is sampling contract v2's draw loop: one
 * Rng::next() per shot, column from the high word of next() × k,
 * alias when the low word is >= the column's threshold.
 */
TEST(SimdKernels, ScalarAliasDrawsMatchRngLoop)
{
    const kern::KernelTable &scalar =
        kern::kernelsFor(SimdTier::Scalar);
    Rng tables(92);
    for (const std::uint64_t k : kDrawColumns) {
        for (const std::uint64_t shots : kDrawShots) {
            const Rng::State seed = Rng(mix64(k + 17, shots)).state();
            for (const TableShape shape : kDrawShapes) {
                const DrawTable t =
                    makeDrawTable(k, shape, tables, seed, shots);
                const DrawResult got =
                    runDraws(scalar, seed, shots, t,
                             std::vector<std::uint64_t>(k, 0));
                Rng rng;
                rng.setState(seed);
                std::vector<std::uint64_t> tally(k, 0);
                for (std::uint64_t s = 0; s < shots; ++s) {
                    const unsigned __int128 wide =
                        static_cast<unsigned __int128>(rng.next()) * k;
                    auto column = static_cast<std::uint64_t>(wide >> 64);
                    const auto coin = static_cast<std::uint64_t>(wide);
                    if (coin >= t.threshold[column])
                        column = t.alias[column];
                    ++tally[column];
                }
                const std::string where = drawCase(k, shape, shots);
                EXPECT_EQ(got.tally, tally) << where;
                const Rng::State state = rng.state();
                EXPECT_TRUE(
                    std::equal(state.begin(), state.end(), got.state))
                    << where;
            }
        }
    }
}

// ---------------------------------------------------------------
// Bayesian reconstruction (ipfGroup).
// ---------------------------------------------------------------

/** One basis of an ipfGroup case, owning what its IpfBasis points
 * into. */
struct IpfCaseBasis
{
    std::vector<Pmf::Entry> prior;
    std::vector<std::vector<int>> positions;
    std::vector<std::vector<Pmf::Entry>> locals;
};

constexpr int kIpfBits = 12;

/** An outcome-sorted support of @p size distinct outcomes below
 * 2^kIpfBits, about a tenth of them at probability zero (some -0.0),
 * with probabilities spread over a few binades. */
std::vector<Pmf::Entry>
ipfSupport(Rng &rng, std::size_t size)
{
    std::vector<std::uint64_t> outcomes(std::size_t{1} << kIpfBits);
    std::iota(outcomes.begin(), outcomes.end(), 0);
    for (std::size_t i = 0; i < size; ++i)
        std::swap(outcomes[i],
                  outcomes[i + rng.uniformInt(outcomes.size() - i)]);
    outcomes.resize(size);
    std::sort(outcomes.begin(), outcomes.end());
    std::vector<Pmf::Entry> support;
    for (const std::uint64_t x : outcomes) {
        double p = rng.uniform() * static_cast<double>(
                                       1 + rng.uniformInt(64));
        if (rng.bernoulli(0.1))
            p = rng.bernoulli(0.5) ? 0.0 : -0.0;
        support.push_back({x, p});
    }
    return support;
}

/**
 * A basis with a random support of 0-600 entries and 0-9 windows
 * drawn from @p widths, each over distinct random bits below
 * kIpfBits. Some locals are empty, some miss window outcomes, some
 * carry an outcome at or beyond 2^width (which the update ignores).
 */
IpfCaseBasis
ipfCaseBasis(Rng &rng, const std::vector<int> &widths)
{
    IpfCaseBasis basis;
    basis.prior = ipfSupport(rng, rng.uniformInt(601));
    const std::size_t windows = rng.uniformInt(10);
    for (std::size_t w = 0; w < windows; ++w) {
        const int width = widths[rng.uniformInt(widths.size())];
        std::vector<int> bits(kIpfBits);
        std::iota(bits.begin(), bits.end(), 0);
        for (int i = 0; i < width; ++i)
            std::swap(bits[i], bits[i + rng.uniformInt(kIpfBits - i)]);
        bits.resize(width);
        basis.positions.push_back(bits);

        std::vector<Pmf::Entry> local;
        if (!rng.bernoulli(0.15)) {
            const std::uint64_t n = std::uint64_t{1} << width;
            for (std::uint64_t x = 0; x < n; ++x)
                if (rng.bernoulli(0.8))
                    local.push_back({x, rng.uniform()});
            if (rng.bernoulli(0.3))
                local.push_back({n + rng.uniformInt(3), rng.uniform()});
        }
        basis.locals.push_back(local);
    }
    return basis;
}

/** ipfGroup of @p table over copies of @p group's priors; returns
 * the reconstructed entries of every basis. */
std::vector<std::vector<Pmf::Entry>>
runIpf(const kern::KernelTable &table,
       const std::vector<IpfCaseBasis> &group, int passes)
{
    std::vector<std::vector<Pmf::Entry>> entries;
    std::vector<std::vector<kern::IpfWindow>> windows(group.size());
    std::vector<kern::IpfBasis> bases;
    for (const IpfCaseBasis &b : group)
        entries.push_back(b.prior);
    for (std::size_t i = 0; i < group.size(); ++i) {
        for (std::size_t w = 0; w < group[i].locals.size(); ++w)
            windows[i].push_back(
                {group[i].positions[w].data(),
                 static_cast<int>(group[i].positions[w].size()),
                 group[i].locals[w].data(), group[i].locals[w].size()});
        bases.push_back({entries[i].data(), entries[i].size(),
                         windows[i].data(), windows[i].size()});
    }
    table.ipfGroup(bases.data(), bases.size(), passes);
    return entries;
}

/**
 * Every tier's ipfGroup equals the scalar body bit for bit (memcmp,
 * so ±0.0 and NaN payloads count): groups of 1-8 bases with unequal
 * supports (0-600 entries) and unequal window counts, so lanes run
 * past each other's ends and idle while others still have windows;
 * empty locals, local outcomes beyond 2^width, 1-3 passes. Three
 * groups in four keep every window at most 2 bits wide (0-2),
 * which the AVX-512 lanes take; the rest mix in widths 3-5 and 9,
 * which take the scalar body. The groups run back to back on one
 * thread, so the lane scratch holds the previous group's values
 * past each lane's support. One group has a NaN prior entry, so the
 * `total <= 0` and `M <= 0` selects see a NaN.
 */
TEST(SimdKernels, IpfBitIdenticalAcrossTiers)
{
    const kern::KernelTable &scalar =
        kern::kernelsFor(SimdTier::Scalar);
    const std::vector<int> narrow = {0, 1, 2, 2, 2};
    const std::vector<int> mixed = {0, 1, 2, 3, 4, 5, 9};
    Rng rng(2306);
    for (int trial = 0; trial < 240; ++trial) {
        const std::size_t count = 1 + rng.uniformInt(kern::kIpfLanes);
        const bool lanes = trial % 4 != 3;
        std::vector<IpfCaseBasis> group;
        for (std::size_t b = 0; b < count; ++b)
            group.push_back(ipfCaseBasis(rng, lanes ? narrow : mixed));
        for (IpfCaseBasis &b : group)
            if (trial == 17 && !b.prior.empty()) {
                b.prior[b.prior.size() / 2].p =
                    std::numeric_limits<double>::quiet_NaN();
                break;
            }
        const int passes = 1 + trial % 3;
        const auto ref = runIpf(scalar, group, passes);
        for (const SimdTier tier : supportedTiers()) {
            const auto got =
                runIpf(kern::kernelsFor(tier), group, passes);
            for (std::size_t b = 0; b < count; ++b) {
                ASSERT_EQ(got[b].size(), ref[b].size());
                EXPECT_TRUE(got[b].empty() ||
                            std::memcmp(got[b].data(), ref[b].data(),
                                        got[b].size() *
                                            sizeof(Pmf::Entry)) == 0)
                    << kern::simdTierName(tier) << " trial " << trial
                    << " basis " << b << " of " << count << " passes "
                    << passes;
            }
        }
    }
}

/** 64-byte alignment holds for the whole life of the storage. */
TEST(SimdKernels, AlignmentSurvivesRecycling)
{
    const auto aligned = [](const Statevector &sv) {
        return reinterpret_cast<std::uintptr_t>(
                   sv.amplitudes().data()) %
            kStateAlignment ==
            0;
    };
    Statevector sv(12);
    EXPECT_TRUE(aligned(sv));

    // copyFrom recycling a sufficient allocation keeps the buffer.
    const Statevector narrow = makeState(10);
    EXPECT_TRUE(sv.copyFrom(narrow));
    EXPECT_TRUE(aligned(sv));

    // copyFrom that must reallocate (wider than any seen before).
    Statevector fresh(4);
    EXPECT_FALSE(fresh.copyFrom(makeState(12)));
    EXPECT_TRUE(aligned(fresh));

    // applyPauli's bit-permuting path swaps amps_ with the scratch
    // buffer; the former scratch must carry the same alignment.
    PauliString flips(10);
    for (int q = 0; q < 10; ++q)
        flips.setOp(q, q % 2 == 0 ? PauliOp::X : PauliOp::Y);
    sv.applyPauli(flips);
    EXPECT_TRUE(aligned(sv));
    sv.applyPauli(flips);
    EXPECT_TRUE(aligned(sv));
}

} // namespace
} // namespace varsaw
