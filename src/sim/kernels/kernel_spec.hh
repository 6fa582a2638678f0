/**
 * @file
 * INTERNAL: the rounding-DAG specification shared by all kernel
 * tiers, plus the traversal helpers that turn qubit indices into
 * contiguous memory segments.
 *
 * Only the three per-ISA translation units in this directory may
 * include this header. Like every TU they compile with
 * `-ffp-contract=off`, which is what makes the written DAGs below
 * the DAGs that actually execute. Everything here is `static` so
 * each TU gets its own copy compiled under its own arch flags.
 *
 * That protects only these helpers. Inline functions and templates
 * with external linkage that a vector TU does not inline (the
 * util/bitops.hh helpers, std::complex members, std::min, ...) are
 * emitted there as weak definitions compiled with that TU's `-m`
 * flags: at -O0 kernels_avx512.cc.o defines 15 such symbols
 * (`nm -C | grep -cE ' [WV] '`; none at -O3), among them
 * std::complex<double>'s constructor as a VEX `vmovsd`,
 * varsaw::parity and varsaw::insertZeroBit. The linker keeps one
 * copy of each for the whole program and may pick the AVX-512 one,
 * so a Debug build may run AVX instructions from scalar code on a
 * host without them. Code in a vector TU must not add to that
 * count: no library template or non-static inline function it does
 * not use already. The fix is a `#pragma GCC target` region after
 * the includes in place of the per-source `-m` flags (ROADMAP
 * item 1).
 *
 * THE SPEC: every per-element operation is written once, as the
 * exact sequence of correctly-rounded IEEE-754 operations every
 * tier must perform. IEEE doubles make this sufficient for bit-
 * identity: if two implementations perform the same rounding DAG
 * per element, their results match bit for bit, regardless of lane
 * count or instruction encoding. The vector tiers implement these
 * same DAGs with the fused vfmadd/vfmaddsub family; the scalar
 * reference calls std::fma. Reductions additionally fix the lane
 * assignment (by ABSOLUTE element index, so a chunk's scalar head
 * before the vector-aligned body lands in the same lane at every
 * tier) and the lane fold order (foldNorm / foldCplx below).
 */

#ifndef VARSAW_SIM_KERNELS_KERNEL_SPEC_HH
#define VARSAW_SIM_KERNELS_KERNEL_SPEC_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/kernels/kernels.hh"
#include "util/bitops.hh"

namespace varsaw::kern::spec {

// ---------------------------------------------------------------
// Complex arithmetic DAGs.
// ---------------------------------------------------------------

/**
 * m * a. The canonical complex multiply of every kernel:
 *   re = fma(a.re, m.re, -(a.im * m.im))
 *   im = fma(a.im, m.re,  a.re * m.im)
 * Vector form: fmaddsub(dup(a), bcast(m.re),
 *                       mul(swapPairs(a), bcast(m.im))).
 */
static inline Amp
cmul(const Amp &a, const Amp &m)
{
    return Amp(
        std::fma(a.real(), m.real(), -(a.imag() * m.imag())),
        std::fma(a.imag(), m.real(), a.real() * m.imag()));
}

/**
 * m * a + acc:
 *   re = fma(a.re, m.re, acc.re - a.im * m.im)
 *   im = fma(a.im, m.re, acc.im + a.re * m.im)
 * Vector form: fmadd(a, bcast(m.re),
 *                    addsub(acc, mul(swapPairs(a), bcast(m.im)))).
 */
static inline Amp
cfma(const Amp &a, const Amp &m, const Amp &acc)
{
    return Amp(
        std::fma(a.real(), m.real(),
                 acc.real() - a.imag() * m.imag()),
        std::fma(a.imag(), m.real(),
                 acc.imag() + a.real() * m.imag()));
}

/**
 * conj(l) * r, the inner-product / expectation contribution:
 *   re = fma(l.im, r.im,   l.re * r.re)
 *   im = fma(l.re, r.im, -(l.im * r.re))
 * Vector form: fmsubadd(swapPairs(l), dupIm(r),
 *                       mul(l, dupRe(r))).
 */
static inline Amp
conjMul(const Amp &l, const Amp &r)
{
    return Amp(
        std::fma(l.imag(), r.imag(), l.real() * r.real()),
        std::fma(l.real(), r.imag(), -(l.imag() * r.real())));
}

/** |a|^2 = fma(re, re, im * im). */
static inline double
normPoint(const Amp &a)
{
    return std::fma(a.real(), a.real(), a.imag() * a.imag());
}

/**
 * apply1Q pair update:
 *   lo' = cfma(lo, m00, cmul(hi, m01))
 *   hi' = cfma(lo, m10, cmul(hi, m11))
 */
static inline void
pair1q(Amp &lo, Amp &hi, const Matrix2 &m)
{
    const Amp a0 = lo;
    const Amp a1 = hi;
    lo = cfma(a0, m.m00, cmul(a1, m.m01));
    hi = cfma(a0, m.m10, cmul(a1, m.m11));
}

/**
 * i^quadrant * (-1)^negate * a — EXACT (component swaps and
 * sign-bit flips only), so every tier reproduces it bit for bit,
 * including the signs of zeros.
 */
static inline Amp
phasePoint(const Amp &a, int quadrant, bool negate)
{
    double re = a.real();
    double im = a.imag();
    switch (quadrant & 3) {
      case 0:
        break;
      case 1: { // i * a
        const double t = re;
        re = -im;
        im = t;
        break;
      }
      case 2: // -a
        re = -re;
        im = -im;
        break;
      default: { // -i * a
        const double t = re;
        re = im;
        im = -t;
        break;
      }
    }
    if (negate) {
        re = -re;
        im = -im;
    }
    return Amp(re, im);
}

/** One amplitude through a fused diagonal run, in gate order. */
static inline Amp
diagPoint(Amp a, std::uint64_t i, const DiagTableGate *gates,
          std::size_t count)
{
    for (std::size_t g = 0; g < count; ++g) {
        const DiagTableGate &d = gates[g];
        const std::uint64_t sel =
            ((i >> d.a) & 1ull) | (((i >> d.b) & 1ull) << 1);
        if (d.negate) {
            if (sel == 3)
                a = Amp(-a.real(), -a.imag());
        } else {
            a = cmul(a, d.table[sel]);
        }
    }
    return a;
}

// ---------------------------------------------------------------
// Reduction lane spec.
// ---------------------------------------------------------------

/** Norm accumulates into 8 double lanes: flat double position
 * (2*i for re, 2*i+1 for im) mod 8. */
constexpr int kNormLanes = 8;

/** Complex reductions accumulate into 4 complex lanes: i mod 4. */
constexpr int kCplxLanes = 4;

/** Fixed fold of the 8 norm lanes. */
static inline double
foldNorm(const double lane[kNormLanes])
{
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/** Fixed fold of the 4 complex lanes. */
static inline Amp
foldCplx(const Amp lane[kCplxLanes])
{
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// ---------------------------------------------------------------
// Shot draws (sampling contract v2).
// ---------------------------------------------------------------

static inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** The xoshiro256** output for state word s[1] (Blackman & Vigna):
 * the same scrambler as util/rng's Rng::next(). */
static inline std::uint64_t
xoshiroScramble(std::uint64_t s1)
{
    return rotl64(s1 * 5, 7) * 9;
}

/** One xoshiro256** state transition, as in Rng::next(). */
static inline void
xoshiroStep(std::uint64_t s[4])
{
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
}

/**
 * The column one draw @p r lands in: the 128-bit product r × k
 * gives the column (high word) and the coin (low word); the draw
 * goes to the column's alias when coin >= threshold[column]. The
 * pick is a mask, not a branch: the coin is random, so a branch
 * would mispredict on every mixed column.
 */
static inline std::uint64_t
aliasColumn(std::uint64_t r, std::uint64_t k,
            const std::uint64_t *threshold, const std::uint64_t *alias)
{
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(r) * k;
    const auto column = static_cast<std::uint64_t>(wide >> 64);
    const auto coin = static_cast<std::uint64_t>(wide);
    const std::uint64_t to_alias = std::uint64_t{0} -
        static_cast<std::uint64_t>(coin >= threshold[column]);
    return column ^ ((column ^ alias[column]) & to_alias);
}

/** One shot: draw from @p s, step it, and count the final column. */
static inline void
drawShot(std::uint64_t s[4], std::uint64_t k,
         const std::uint64_t *threshold, const std::uint64_t *alias,
         std::uint64_t *tally)
{
    const std::uint64_t r = xoshiroScramble(s[1]);
    xoshiroStep(s);
    ++tally[aliasColumn(r, k, threshold, alias)];
}

// ---------------------------------------------------------------
// Traversal helpers: qubit index math -> contiguous segments.
// ---------------------------------------------------------------

/**
 * Invoke seg(lo, hi, len) on each maximal contiguous run of the
 * pair range [k0, k1) of target qubit q >= 1: lo and hi point at
 * `len` unit-stride amplitudes whose indices differ by 1 << q.
 * (q == 0 has no contiguous halves — its adjacent stride-2 pairs
 * are handled by the per-tier kernels directly.)
 */
template <typename Seg>
static inline void
forEachPairSegment(Amp *amps, int q, std::uint64_t k0,
                   std::uint64_t k1, Seg seg)
{
    const std::uint64_t bit = 1ull << q;
    std::uint64_t k = k0;
    while (k < k1) {
        const std::uint64_t block = k >> q;
        const std::uint64_t off0 = k & (bit - 1);
        const std::uint64_t off_end =
            std::min<std::uint64_t>(bit, off0 + (k1 - k));
        Amp *base = amps + (block << (q + 1));
        seg(base + off0, base + bit + off0, off_end - off0);
        k += off_end - off0;
    }
}

/**
 * Invoke seg(i, len) on each maximal contiguous run of the quad
 * range [k0, k1): i = insertTwoZeroBits(k, a, b) | set, and the
 * following `len` quad indices map to i+1 .. i+len-1 (the low
 * min(a, b) bits of k pass through unshifted).
 */
template <typename Seg>
static inline void
forEachQuadRun(int a, int b, std::uint64_t k0, std::uint64_t k1,
               std::uint64_t set, Seg seg)
{
    const int mn = a < b ? a : b;
    const std::uint64_t run = 1ull << mn;
    std::uint64_t k = k0;
    while (k < k1) {
        const std::uint64_t off = k & (run - 1);
        const std::uint64_t len =
            std::min<std::uint64_t>(run - off, k1 - k);
        seg(insertTwoZeroBits(k, a, b) | set, len);
        k += len;
    }
}

} // namespace varsaw::kern::spec

#endif // VARSAW_SIM_KERNELS_KERNEL_SPEC_HH
