/**
 * @file
 * AVX-512 F/DQ tier: 512-bit registers, four complex amplitudes
 * per vector, bit-identical to the scalar reference.
 *
 * Compiled with `-mavx512f -mavx512dq -mavx2 -mfma
 * -ffp-contract=off` (CMakeLists); degrades to an uncompiled stub
 * aliasing the scalar table when the toolchain can't target it.
 *
 * Same identity argument as the AVX2 tier (see kernels_avx2.cc),
 * with two AVX-512 specifics: there is no 512-bit addsub, so
 * spec::cfma's `acc -/+ t` is computed as `acc + (t ^ evenSign)` —
 * negation is exact, so the even-lane subtraction still performs
 * the spec's single rounding; and cross-lane moves (q = 0 pair
 * duplication, Pauli partner alignment, probability deinterleave)
 * use permutexvar/permutex2var, which move bits untouched.
 * Segment tails longer than one complex run through the 256-bit
 * DAG helpers below — same per-element DAG, so identity holds
 * through every mixed-width path.
 */

#include "sim/kernels/kernel_spec.hh"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

// GCC 12's avx512fintrin.h reads an uninitialized variable in
// _mm512_undefined_* (GCC bug 105593, fixed in GCC 13), and every
// inlined intrinsic repeats the warning. Silence it for the header
// only: this file's own code is still checked.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#include <cstring>
#include <new>
#include <utility>

namespace varsaw::kern::detail {

namespace {

constexpr long long kSignBit =
    static_cast<long long>(0x8000000000000000ull);

// --- 256-bit DAG helpers for segment tails ----------------------

inline __m256d
swapPairs256(__m256d v)
{
    return _mm256_permute_pd(v, 0x5);
}

inline __m256d
cmulV256(__m256d a, __m256d mre, __m256d mim)
{
    return _mm256_fmaddsub_pd(
        a, mre, _mm256_mul_pd(swapPairs256(a), mim));
}

inline __m256d
cfmaV256(__m256d a, __m256d mre, __m256d mim, __m256d acc)
{
    return _mm256_fmadd_pd(
        a, mre,
        _mm256_addsub_pd(acc,
                         _mm256_mul_pd(swapPairs256(a), mim)));
}

// --- 512-bit DAG building blocks --------------------------------

inline __m512d
swapPairs(__m512d v)
{
    return _mm512_permute_pd(v, 0x55);
}

inline __m512d
dupRe(__m512d v)
{
    return _mm512_movedup_pd(v);
}

inline __m512d
dupIm(__m512d v)
{
    return _mm512_permute_pd(v, 0xFF);
}

inline __m512d
evenSignMask()
{
    return _mm512_castsi512_pd(_mm512_set_epi64(
        0, kSignBit, 0, kSignBit, 0, kSignBit, 0, kSignBit));
}

/** addsub(acc, t): even lanes acc - t, odd acc + t (exact-negate
 * emulation of the missing 512-bit addsub). */
inline __m512d
addsub512(__m512d acc, __m512d t)
{
    return _mm512_add_pd(acc,
                         _mm512_xor_pd(t, evenSignMask()));
}

/** spec::cmul per lane pair. */
inline __m512d
cmulV(__m512d a, __m512d mre, __m512d mim)
{
    return _mm512_fmaddsub_pd(
        a, mre, _mm512_mul_pd(swapPairs(a), mim));
}

/** spec::cfma per lane pair. */
inline __m512d
cfmaV(__m512d a, __m512d mre, __m512d mim, __m512d acc)
{
    return _mm512_fmadd_pd(
        a, mre,
        addsub512(acc, _mm512_mul_pd(swapPairs(a), mim)));
}

/** spec::conjMul per lane pair. */
inline __m512d
conjMulV(__m512d l, __m512d r)
{
    return _mm512_fmsubadd_pd(
        swapPairs(l), dupIm(r), _mm512_mul_pd(l, dupRe(r)));
}

inline __m512d
signMask512(const bool f[8])
{
    return _mm512_castsi512_pd(_mm512_set_epi64(
        f[7] ? kSignBit : 0, f[6] ? kSignBit : 0,
        f[5] ? kSignBit : 0, f[4] ? kSignBit : 0,
        f[3] ? kSignBit : 0, f[2] ? kSignBit : 0,
        f[1] ? kSignBit : 0, f[0] ? kSignBit : 0));
}

// --- apply1Q ----------------------------------------------------

void
apply1qAvx512(Amp *amps, int q, std::uint64_t k0, std::uint64_t k1,
              const Matrix2 &m)
{
    if (q == 0) {
        // Two adjacent (lo, hi) pairs per register.
        const __m512i idx0 =
            _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0);
        const __m512i idx1 =
            _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2);
        const __m512d are = _mm512_set_pd(
            m.m10.real(), m.m10.real(), m.m00.real(), m.m00.real(),
            m.m10.real(), m.m10.real(), m.m00.real(),
            m.m00.real());
        const __m512d aim = _mm512_set_pd(
            m.m10.imag(), m.m10.imag(), m.m00.imag(), m.m00.imag(),
            m.m10.imag(), m.m10.imag(), m.m00.imag(),
            m.m00.imag());
        const __m512d bre = _mm512_set_pd(
            m.m11.real(), m.m11.real(), m.m01.real(), m.m01.real(),
            m.m11.real(), m.m11.real(), m.m01.real(),
            m.m01.real());
        const __m512d bim = _mm512_set_pd(
            m.m11.imag(), m.m11.imag(), m.m01.imag(), m.m01.imag(),
            m.m11.imag(), m.m11.imag(), m.m01.imag(),
            m.m01.imag());
        std::uint64_t k = k0;
        for (; k + 2 <= k1; k += 2) {
            double *p = reinterpret_cast<double *>(amps + 2 * k);
            const __m512d v = _mm512_loadu_pd(p);
            const __m512d a0 = _mm512_permutexvar_pd(idx0, v);
            const __m512d a1 = _mm512_permutexvar_pd(idx1, v);
            _mm512_storeu_pd(
                p, cfmaV(a0, are, aim, cmulV(a1, bre, bim)));
        }
        for (; k < k1; ++k)
            spec::pair1q(amps[2 * k], amps[2 * k + 1], m);
        return;
    }
    const __m512d m00re = _mm512_set1_pd(m.m00.real());
    const __m512d m00im = _mm512_set1_pd(m.m00.imag());
    const __m512d m01re = _mm512_set1_pd(m.m01.real());
    const __m512d m01im = _mm512_set1_pd(m.m01.imag());
    const __m512d m10re = _mm512_set1_pd(m.m10.real());
    const __m512d m10im = _mm512_set1_pd(m.m10.imag());
    const __m512d m11re = _mm512_set1_pd(m.m11.real());
    const __m512d m11im = _mm512_set1_pd(m.m11.imag());
    // q == 1 blocks are exactly two complex long; keep them off
    // the scalar tail by finishing segments with the 256-bit DAG.
    const __m256d h00re = _mm256_set1_pd(m.m00.real());
    const __m256d h00im = _mm256_set1_pd(m.m00.imag());
    const __m256d h01re = _mm256_set1_pd(m.m01.real());
    const __m256d h01im = _mm256_set1_pd(m.m01.imag());
    const __m256d h10re = _mm256_set1_pd(m.m10.real());
    const __m256d h10im = _mm256_set1_pd(m.m10.imag());
    const __m256d h11re = _mm256_set1_pd(m.m11.real());
    const __m256d h11im = _mm256_set1_pd(m.m11.imag());
    spec::forEachPairSegment(
        amps, q, k0, k1, [&](Amp *lo, Amp *hi, std::uint64_t len) {
            std::uint64_t j = 0;
            for (; j + 4 <= len; j += 4) {
                double *pl = reinterpret_cast<double *>(lo + j);
                double *ph = reinterpret_cast<double *>(hi + j);
                const __m512d vl = _mm512_loadu_pd(pl);
                const __m512d vh = _mm512_loadu_pd(ph);
                _mm512_storeu_pd(
                    pl, cfmaV(vl, m00re, m00im,
                              cmulV(vh, m01re, m01im)));
                _mm512_storeu_pd(
                    ph, cfmaV(vl, m10re, m10im,
                              cmulV(vh, m11re, m11im)));
            }
            for (; j + 2 <= len; j += 2) {
                double *pl = reinterpret_cast<double *>(lo + j);
                double *ph = reinterpret_cast<double *>(hi + j);
                const __m256d vl = _mm256_loadu_pd(pl);
                const __m256d vh = _mm256_loadu_pd(ph);
                _mm256_storeu_pd(
                    pl, cfmaV256(vl, h00re, h00im,
                                 cmulV256(vh, h01re, h01im)));
                _mm256_storeu_pd(
                    ph, cfmaV256(vl, h10re, h10im,
                                 cmulV256(vh, h11re, h11im)));
            }
            for (; j < len; ++j)
                spec::pair1q(lo[j], hi[j], m);
        });
}

// --- fused diagonal sweep ---------------------------------------

constexpr std::size_t kDiagBatch = 12;

/** See kernels_avx2.cc: per-gate variants indexed by the 4-complex
 * group base's selector contribution h; selector bits from
 * positions < 2 come from the lane index and are folded in. */
struct PreGate8
{
    bool negate;
    int a;
    int b;
    __m512d x[4];
    __m512d y[4];
};

void
diagTablesAvx512(Amp *amps, std::uint64_t i0, std::uint64_t i1,
                 const DiagTableGate *gates, std::size_t count)
{
    for (std::size_t g0 = 0; g0 < count || g0 == 0;
         g0 += kDiagBatch) {
        const std::size_t batch =
            std::min(kDiagBatch, count - g0);
        const DiagTableGate *gs = gates + g0;
        PreGate8 pre[kDiagBatch];
        for (std::size_t g = 0; g < batch; ++g) {
            const DiagTableGate &d = gs[g];
            PreGate8 &p = pre[g];
            p.negate = d.negate;
            p.a = d.a;
            p.b = d.b;
            for (int h = 0; h < 4; ++h) {
                int sel[4];
                for (int j = 0; j < 4; ++j)
                    sel[j] = h | ((j >> d.a) & 1) |
                        (((j >> d.b) & 1) << 1);
                if (d.negate) {
                    bool f[8];
                    for (int j = 0; j < 4; ++j) {
                        f[2 * j] = sel[j] == 3;
                        f[2 * j + 1] = sel[j] == 3;
                    }
                    p.x[h] = signMask512(f);
                } else {
                    const Amp f0 = d.table[sel[0] & 3];
                    const Amp f1 = d.table[sel[1] & 3];
                    const Amp f2 = d.table[sel[2] & 3];
                    const Amp f3 = d.table[sel[3] & 3];
                    p.x[h] = _mm512_set_pd(
                        f3.real(), f3.real(), f2.real(), f2.real(),
                        f1.real(), f1.real(), f0.real(),
                        f0.real());
                    p.y[h] = _mm512_set_pd(
                        f3.imag(), f3.imag(), f2.imag(), f2.imag(),
                        f1.imag(), f1.imag(), f0.imag(),
                        f0.imag());
                }
            }
        }

        std::uint64_t i = i0;
        for (; i < i1 && (i & 3); ++i)
            amps[i] = spec::diagPoint(amps[i], i, gs, batch);
        for (; i + 4 <= i1; i += 4) {
            double *p = reinterpret_cast<double *>(amps + i);
            __m512d v = _mm512_loadu_pd(p);
            for (std::size_t g = 0; g < batch; ++g) {
                const PreGate8 &pg = pre[g];
                const int h =
                    static_cast<int>(((i >> pg.a) & 1ull) |
                                     (((i >> pg.b) & 1ull) << 1));
                v = pg.negate
                    ? _mm512_xor_pd(v, pg.x[h])
                    : cmulV(v, pg.x[h], pg.y[h]);
            }
            _mm512_storeu_pd(p, v);
        }
        for (; i < i1; ++i)
            amps[i] = spec::diagPoint(amps[i], i, gs, batch);
        if (count == 0)
            break;
    }
}

// --- two-qubit data movement ------------------------------------

void
cxQuadsAvx512(Amp *amps, int control, int target, std::uint64_t k0,
              std::uint64_t k1)
{
    const std::uint64_t tbit = 1ull << target;
    spec::forEachQuadRun(
        control, target, k0, k1, 1ull << control,
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            double *q = reinterpret_cast<double *>(amps + (i | tbit));
            std::uint64_t j = 0;
            for (; j + 4 <= len; j += 4) {
                const __m512d a = _mm512_loadu_pd(p + 2 * j);
                const __m512d b = _mm512_loadu_pd(q + 2 * j);
                _mm512_storeu_pd(p + 2 * j, b);
                _mm512_storeu_pd(q + 2 * j, a);
            }
            for (; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) | tbit]);
        });
}

void
czQuadsAvx512(Amp *amps, int a, int b, std::uint64_t k0,
              std::uint64_t k1)
{
    const __m512d neg = _mm512_castsi512_pd(
        _mm512_set1_epi64(kSignBit));
    spec::forEachQuadRun(
        a, b, k0, k1, (1ull << a) | (1ull << b),
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            std::uint64_t j = 0;
            for (; j + 4 <= len; j += 4)
                _mm512_storeu_pd(
                    p + 2 * j,
                    _mm512_xor_pd(_mm512_loadu_pd(p + 2 * j),
                                  neg));
            for (; j < len; ++j) {
                const Amp v = amps[i + j];
                amps[i + j] = Amp(-v.real(), -v.imag());
            }
        });
}

void
swapQuadsAvx512(Amp *amps, int a, int b, std::uint64_t k0,
                std::uint64_t k1)
{
    const std::uint64_t flip = (1ull << a) | (1ull << b);
    spec::forEachQuadRun(
        a, b, k0, k1, 1ull << a,
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            double *q = reinterpret_cast<double *>(amps + (i ^ flip));
            std::uint64_t j = 0;
            for (; j + 4 <= len; j += 4) {
                const __m512d va = _mm512_loadu_pd(p + 2 * j);
                const __m512d vb = _mm512_loadu_pd(q + 2 * j);
                _mm512_storeu_pd(p + 2 * j, vb);
                _mm512_storeu_pd(q + 2 * j, va);
            }
            for (; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) ^ flip]);
        });
}

// --- reductions -------------------------------------------------

double
normChunkAvx512(const Amp *amps, std::uint64_t i0,
                std::uint64_t i1)
{
    // One accumulator register = the 8 absolute flat-double lanes,
    // seeded/drained through the scalar lane array at the aligned
    // boundaries so every lane is one unbroken fma chain.
    alignas(64) double lane[spec::kNormLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lane[(2 * i) & 7] = std::fma(re, re, lane[(2 * i) & 7]);
        lane[(2 * i + 1) & 7] =
            std::fma(im, im, lane[(2 * i + 1) & 7]);
    }
    __m512d acc = _mm512_loadu_pd(lane);
    const double *d = reinterpret_cast<const double *>(amps);
    for (; i + 4 <= i1; i += 4) {
        const __m512d v = _mm512_loadu_pd(d + 2 * i);
        acc = _mm512_fmadd_pd(v, v, acc);
    }
    _mm512_storeu_pd(lane, acc);
    for (; i < i1; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lane[(2 * i) & 7] = std::fma(re, re, lane[(2 * i) & 7]);
        lane[(2 * i + 1) & 7] =
            std::fma(im, im, lane[(2 * i + 1) & 7]);
    }
    return spec::foldNorm(lane);
}

void
probChunkAvx512(const Amp *amps, double *out, std::uint64_t i0,
                std::uint64_t i1)
{
    const __m512i idxRe =
        _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i idxIm =
        _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    const double *d = reinterpret_cast<const double *>(amps);
    std::uint64_t i = i0;
    for (; i + 8 <= i1; i += 8) {
        const __m512d v0 = _mm512_loadu_pd(d + 2 * i);
        const __m512d v1 = _mm512_loadu_pd(d + 2 * i + 8);
        const __m512d re = _mm512_permutex2var_pd(v0, idxRe, v1);
        const __m512d im = _mm512_permutex2var_pd(v0, idxIm, v1);
        _mm512_storeu_pd(
            out + i,
            _mm512_fmadd_pd(re, re, _mm512_mul_pd(im, im)));
    }
    for (; i < i1; ++i)
        out[i] = spec::normPoint(amps[i]);
}

Amp
innerChunkAvx512(const Amp *lhs, const Amp *rhs, std::uint64_t i0,
                 std::uint64_t i1)
{
    alignas(64) Amp lane[spec::kCplxLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i)
        lane[i & 3] = lane[i & 3] + spec::conjMul(lhs[i], rhs[i]);
    double *lp = reinterpret_cast<double *>(lane);
    __m512d acc = _mm512_loadu_pd(lp);
    const double *ld = reinterpret_cast<const double *>(lhs);
    const double *rd = reinterpret_cast<const double *>(rhs);
    for (; i + 4 <= i1; i += 4)
        acc = _mm512_add_pd(
            acc, conjMulV(_mm512_loadu_pd(ld + 2 * i),
                          _mm512_loadu_pd(rd + 2 * i)));
    _mm512_storeu_pd(lp, acc);
    for (; i < i1; ++i)
        lane[i & 3] = lane[i & 3] + spec::conjMul(lhs[i], rhs[i]);
    return spec::foldCplx(lane);
}

Amp
expPauliChunkAvx512(const Amp *amps, std::uint64_t x,
                    std::uint64_t z, int quadrant,
                    std::uint64_t i0, std::uint64_t i1)
{
    const bool qodd = (quadrant & 1) != 0;
    __m512d phaseMask[2];
    for (int s = 0; s < 2; ++s) {
        bool f[8];
        for (int j = 0; j < 4; ++j) {
            const bool t =
                ((s ^ parity(static_cast<std::uint64_t>(j) & z)) &
                 1) != 0;
            bool f0;
            bool f1;
            switch (quadrant & 3) {
              case 0:
                f0 = t;
                f1 = t;
                break;
              case 1:
                f0 = !t;
                f1 = t;
                break;
              case 2:
                f0 = !t;
                f1 = !t;
                break;
              default:
                f0 = t;
                f1 = !t;
                break;
            }
            f[2 * j] = f0;
            f[2 * j + 1] = f1;
        }
        phaseMask[s] = signMask512(f);
    }
    const std::uint64_t pbase = x & ~3ull;
    const int p = static_cast<int>(x & 3ull);
    const std::uint64_t zhigh = z & ~3ull;
    alignas(64) long long pidxArr[8];
    for (int j = 0; j < 4; ++j) {
        pidxArr[2 * j] = 2 * (j ^ p);
        pidxArr[2 * j + 1] = 2 * (j ^ p) + 1;
    }
    const __m512i pidx = _mm512_loadu_si512(pidxArr);

    alignas(64) Amp lane[spec::kCplxLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i) {
        const Amp c =
            spec::phasePoint(amps[i], quadrant, parity(i & z));
        lane[i & 3] = lane[i & 3] + spec::conjMul(amps[i ^ x], c);
    }
    double *lp = reinterpret_cast<double *>(lane);
    __m512d acc = _mm512_loadu_pd(lp);
    const double *d = reinterpret_cast<const double *>(amps);
    for (; i + 4 <= i1; i += 4) {
        const __m512d v = _mm512_loadu_pd(d + 2 * i);
        const int s = parity(i & zhigh);
        const __m512d c = _mm512_xor_pd(
            qodd ? swapPairs(v) : v, phaseMask[s]);
        __m512d bp = _mm512_loadu_pd(d + 2 * (i ^ pbase));
        if (p)
            bp = _mm512_permutexvar_pd(pidx, bp);
        acc = _mm512_add_pd(acc, conjMulV(bp, c));
    }
    _mm512_storeu_pd(lp, acc);
    for (; i < i1; ++i) {
        const Amp c =
            spec::phasePoint(amps[i], quadrant, parity(i & z));
        lane[i & 3] = lane[i & 3] + spec::conjMul(amps[i ^ x], c);
    }
    return spec::foldCplx(lane);
}

// --- shot draws ---------------------------------------------------

/** Draws generated per block: one 512-byte buffer of state words. */
constexpr int kDrawBlock = 64;

/**
 * aliasDraws for a table of k = 2^L columns (L = 1, 2, 3), in
 * blocks of kDrawBlock shots. A scalar loop steps the generator and
 * records each draw's state word s[1]; eight lanes at a time then
 * scramble the words (rotl(s1 * 5, 7) * 9 as shift-adds and one
 * vprolq) and bin them. For power-of-two k the 128-bit product
 * r × k has high word r >> (64 - L) and low word r << L, so column
 * and coin are exact shifts of the reference's. The threshold and
 * `column ^ alias` come from one register each through vpermq; an
 * unsigned compare gives the alias mask and a masked xor the final
 * column. Each column counts in its own vector of 64-bit lanes,
 * reduced once at the end. The last shots mod kDrawBlock draws take
 * the reference's per-shot step. Binning order differs from the
 * reference, which a histogram cannot see; the draws, the tally and
 * the final state are the reference's.
 */
template <int L>
void
aliasDrawsPow2(std::uint64_t state[4], std::uint64_t shots,
               const std::uint64_t *threshold,
               const std::uint64_t *alias, std::uint64_t *tally)
{
    constexpr int k = 1 << L;
    alignas(64) std::uint64_t thr_words[8] = {};
    alignas(64) std::uint64_t flip_words[8] = {};
    for (int c = 0; c < k; ++c) {
        thr_words[c] = threshold[c];
        flip_words[c] = static_cast<std::uint64_t>(c) ^ alias[c];
    }
    const __m512i thr = _mm512_load_si512(thr_words);
    const __m512i flip = _mm512_load_si512(flip_words);
    const __m512i one = _mm512_set1_epi64(1);
    __m512i count[k];
    for (int c = 0; c < k; ++c)
        count[c] = _mm512_setzero_si512();

    std::uint64_t s[4] = {state[0], state[1], state[2], state[3]};
    alignas(64) std::uint64_t words[kDrawBlock];
    std::uint64_t left = shots;
    for (; left >= kDrawBlock; left -= kDrawBlock) {
        for (int i = 0; i < kDrawBlock; ++i) {
            words[i] = s[1];
            spec::xoshiroStep(s);
        }
        for (int i = 0; i < kDrawBlock; i += 8) {
            const __m512i s1 = _mm512_load_si512(words + i);
            const __m512i x5 =
                _mm512_add_epi64(_mm512_slli_epi64(s1, 2), s1);
            const __m512i rot = _mm512_rol_epi64(x5, 7);
            const __m512i r =
                _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);
            const __m512i column = _mm512_srli_epi64(r, 64 - L);
            const __m512i coin = _mm512_slli_epi64(r, L);
            const __mmask8 to_alias = _mm512_cmpge_epu64_mask(
                coin, _mm512_permutexvar_epi64(column, thr));
            const __m512i landed = _mm512_mask_xor_epi64(
                column, to_alias, column,
                _mm512_permutexvar_epi64(column, flip));
            for (int c = 0; c < k; ++c) {
                const __mmask8 hit = _mm512_cmpeq_epi64_mask(
                    landed, _mm512_set1_epi64(c));
                count[c] =
                    _mm512_mask_add_epi64(count[c], hit, count[c], one);
            }
        }
    }
    for (; left > 0; --left)
        spec::drawShot(s, k, threshold, alias, tally);
    for (int c = 0; c < k; ++c)
        tally[c] += static_cast<std::uint64_t>(
            _mm512_reduce_add_epi64(count[c]));
    for (int i = 0; i < 4; ++i)
        state[i] = s[i];
}

void
aliasDrawsAvx512(std::uint64_t state[4], std::uint64_t shots,
                 std::uint64_t k, const std::uint64_t *threshold,
                 const std::uint64_t *alias, std::uint64_t *tally)
{
    switch (k) {
      case 2:
        aliasDrawsPow2<1>(state, shots, threshold, alias, tally);
        return;
      case 4:
        aliasDrawsPow2<2>(state, shots, threshold, alias, tally);
        return;
      case 8:
        aliasDrawsPow2<3>(state, shots, threshold, alias, tally);
        return;
      default:
        scalarTable().aliasDraws(state, shots, k, threshold, alias,
                                 tally);
    }
}

// --- Bayesian reconstruction lanes -------------------------------

/**
 * The lane body's scratch: entry i of lane l at [i * kIpfLanes + l],
 * outcomes and probabilities in two 64-byte aligned arrays. One per
 * thread, kept across calls and grown to the widest group seen
 * (zeroed when it grows, so no lane ever reads an indeterminate
 * value). It is plain storage, not a std::vector: a library template
 * used here would be instantiated under this TU's arch flags.
 */
class IpfScratch
{
  public:
    IpfScratch() = default;
    IpfScratch(const IpfScratch &) = delete;
    IpfScratch &operator=(const IpfScratch &) = delete;
    ~IpfScratch() { ::operator delete(block_, kAlign); }

    /** Room for @p entries entries in every lane. */
    void
    reserve(std::size_t entries)
    {
        if (entries <= capacity_)
            return;
        ::operator delete(block_, kAlign);
        block_ = nullptr;
        capacity_ = 0;
        const std::size_t bytes = 2 * entries * kIpfLanes * 8;
        block_ = ::operator new(bytes, kAlign);
        std::memset(block_, 0, bytes);
        capacity_ = entries;
    }

    std::uint64_t *
    outcomes() const
    {
        return static_cast<std::uint64_t *>(block_);
    }

    double *
    probs() const
    {
        return reinterpret_cast<double *>(outcomes() +
                                          capacity_ * kIpfLanes);
    }

  private:
    static constexpr std::align_val_t kAlign{64};

    void *block_ = nullptr;
    std::size_t capacity_ = 0;
};

IpfScratch &
ipfScratch()
{
    thread_local IpfScratch scratch;
    return scratch;
}

/** The window @p basis applies next, from @p cursor on, skipping
 * empty locals and wrapping into the next pass. */
const IpfWindow &
nextIpfWindow(const IpfBasis &basis, std::size_t &cursor)
{
    for (;;) {
        const IpfWindow &window = basis.windows[cursor];
        cursor = cursor + 1 == basis.windowCount ? 0 : cursor + 1;
        if (window.localCount != 0)
            return window;
    }
}

/** normalizer() of the scalar body in every lane: 1 / total, or 1
 * where total <= 0. NLE_UQ is !(total <= 0), so a NaN divides. */
inline __m512d
ipfNormalizer(__m512d total)
{
    const __m512d one = _mm512_set1_pd(1.0);
    const __mmask8 divide =
        _mm512_cmp_pd_mask(total, _mm512_setzero_pd(), _CMP_NLE_UQ);
    return _mm512_mask_div_pd(one, divide, one, total);
}

/**
 * ipfGroup for 2-8 bases whose windows are all at most 2 bits wide:
 * lane l runs basis l. The bases are packed into lane-interleaved
 * scratch; each window step then runs both passes for every lane at
 * once, lane l on its own next window. A window of at most 2 bits
 * has at most 4 buckets, so each lane keeps its bucket marginals in
 * four vector accumulators and its running total in a fifth; the
 * bucket of an entry comes from testing its outcome against the
 * lane's two position bits (a missing bit tests 0). Every add and
 * multiply is masked to the lanes it belongs to: entries past a
 * lane's support (whatever the scratch holds there) and lanes whose
 * windows are all done are never read into a sum or scaled, and an
 * idle lane keeps its last total for the final normalize. So each
 * lane performs exactly the scalar body's operations on its basis,
 * in its entry order, and the result is bit-identical.
 */
void
ipfLanes(const IpfBasis *bases, std::size_t count, int passes)
{
    std::size_t size[kIpfLanes] = {};
    std::uint64_t steps[kIpfLanes] = {};
    std::size_t cursor[kIpfLanes] = {};
    std::size_t widest = 0;
    std::uint64_t most_steps = 0;
    for (std::size_t l = 0; l < count; ++l) {
        size[l] = bases[l].count;
        widest = size[l] > widest ? size[l] : widest;
        std::uint64_t live = 0;
        for (std::size_t w = 0; w < bases[l].windowCount; ++w)
            live += bases[l].windows[w].localCount != 0;
        steps[l] = live * static_cast<std::uint64_t>(passes);
        most_steps = steps[l] > most_steps ? steps[l] : most_steps;
    }

    IpfScratch &scratch = ipfScratch();
    scratch.reserve(widest);
    std::uint64_t *const outcomes = scratch.outcomes();
    double *const probs = scratch.probs();
    for (std::size_t l = 0; l < count; ++l) {
        const Pmf::Entry *e = bases[l].entries;
        for (std::size_t i = 0; i < size[l]; ++i) {
            outcomes[i * kIpfLanes + l] = e[i].outcome;
            probs[i * kIpfLanes + l] = e[i].p;
        }
    }

    // Entry ranges [bound[g], bound[g + 1]) over which the set of
    // lanes that still have entries, valid[g], is constant.
    std::size_t bound[kIpfLanes + 1];
    __mmask8 valid[kIpfLanes];
    std::size_t ranges = 0;
    for (std::size_t lo = 0; lo < widest;) {
        std::size_t hi = widest;
        __mmask8 lanes = 0;
        for (std::size_t l = 0; l < count; ++l) {
            if (size[l] <= lo)
                continue;
            lanes = static_cast<__mmask8>(lanes | (1u << l));
            hi = size[l] < hi ? size[l] : hi;
        }
        bound[ranges] = lo;
        valid[ranges++] = lanes;
        lo = hi;
    }
    bound[ranges] = widest;

    const __m512d zero = _mm512_setzero_pd();
    __m512d total = zero;
    for (std::size_t g = 0; g < ranges; ++g)
        for (std::size_t i = bound[g]; i < bound[g + 1]; ++i)
            total = _mm512_mask_add_pd(
                total, valid[g], total,
                _mm512_load_pd(probs + i * kIpfLanes));

    for (std::uint64_t step = 0; step < most_steps; ++step) {
        // Per lane: its window's two position bits (0 where the
        // window is narrower) and its local's probabilities.
        __mmask8 active = 0;
        alignas(64) std::uint64_t bit0[kIpfLanes] = {};
        alignas(64) std::uint64_t bit1[kIpfLanes] = {};
        alignas(64) double local[4][kIpfLanes] = {};
        for (std::size_t l = 0; l < count; ++l) {
            if (step >= steps[l])
                continue;
            active = static_cast<__mmask8>(active | (1u << l));
            const IpfWindow &window =
                nextIpfWindow(bases[l], cursor[l]);
            if (window.width >= 1)
                bit0[l] = 1ull << window.positions[0];
            if (window.width >= 2)
                bit1[l] = 1ull << window.positions[1];
            const std::uint64_t n = 1ull << window.width;
            for (std::size_t k = 0; k < window.localCount; ++k)
                if (window.local[k].outcome < n)
                    local[window.local[k].outcome][l] =
                        window.local[k].p;
        }
        const __m512i m0 = _mm512_load_si512(bit0);
        const __m512i m1 = _mm512_load_si512(bit1);
        const __m512i m01 = _mm512_or_si512(m0, m1);

        // Pass one: the previous step's normalize, then this
        // window's marginal, one accumulator per bucket.
        const __m512d inv = ipfNormalizer(total);
        __m512d marg0 = zero;
        __m512d marg1 = zero;
        __m512d marg2 = zero;
        __m512d marg3 = zero;
        for (std::size_t g = 0; g < ranges; ++g) {
            const __mmask8 live = _kand_mask8(valid[g], active);
            if (!live)
                continue;
            for (std::size_t i = bound[g]; i < bound[g + 1]; ++i) {
                double *pi = probs + i * kIpfLanes;
                const __m512i o =
                    _mm512_load_si512(outcomes + i * kIpfLanes);
                const __m512d prior = _mm512_load_pd(pi);
                const __m512d p =
                    _mm512_mask_mul_pd(prior, live, prior, inv);
                _mm512_store_pd(pi, p);
                const __mmask8 b0 =
                    _mm512_mask_test_epi64_mask(live, o, m0);
                const __mmask8 b1 =
                    _mm512_mask_test_epi64_mask(live, o, m1);
                const __mmask8 none =
                    _mm512_mask_testn_epi64_mask(live, o, m01);
                marg0 = _mm512_mask_add_pd(marg0, none, marg0, p);
                marg1 = _mm512_mask_add_pd(
                    marg1, _kandn_mask8(b1, b0), marg1, p);
                marg2 = _mm512_mask_add_pd(
                    marg2, _kandn_mask8(b0, b1), marg2, p);
                marg3 = _mm512_mask_add_pd(
                    marg3, _kand_mask8(b0, b1), marg3, p);
            }
        }

        // L(s)/M(s), or 1 where M(s) <= 0 (a NaN M divides).
        const __m512d one = _mm512_set1_pd(1.0);
        const auto ratioOf = [&](__m512d marg, const double *l) {
            return _mm512_mask_div_pd(
                one, _mm512_cmp_pd_mask(marg, zero, _CMP_NLE_UQ),
                _mm512_load_pd(l), marg);
        };
        const __m512d ratio0 = ratioOf(marg0, local[0]);
        const __m512d ratio1 = ratioOf(marg1, local[1]);
        const __m512d ratio2 = ratioOf(marg2, local[2]);
        const __m512d ratio3 = ratioOf(marg3, local[3]);

        // Pass two: scale by the bucket's ratio and sum the total.
        __m512d next = zero;
        for (std::size_t g = 0; g < ranges; ++g) {
            const __mmask8 live = _kand_mask8(valid[g], active);
            if (!live)
                continue;
            for (std::size_t i = bound[g]; i < bound[g + 1]; ++i) {
                double *pi = probs + i * kIpfLanes;
                const __m512i o =
                    _mm512_load_si512(outcomes + i * kIpfLanes);
                const __mmask8 b0 = _mm512_test_epi64_mask(o, m0);
                const __mmask8 b1 = _mm512_test_epi64_mask(o, m1);
                const __m512d ratio = _mm512_mask_blend_pd(
                    b1, _mm512_mask_blend_pd(b0, ratio0, ratio1),
                    _mm512_mask_blend_pd(b0, ratio2, ratio3));
                const __m512d prior = _mm512_load_pd(pi);
                const __m512d p =
                    _mm512_mask_mul_pd(prior, live, prior, ratio);
                _mm512_store_pd(pi, p);
                next = _mm512_mask_add_pd(next, live, next, p);
            }
        }
        total = _mm512_mask_mov_pd(total, active, next);
    }

    // The final normalize, written straight into each basis.
    alignas(64) double inv[kIpfLanes];
    _mm512_store_pd(inv, ipfNormalizer(total));
    for (std::size_t l = 0; l < count; ++l) {
        Pmf::Entry *e = bases[l].entries;
        for (std::size_t i = 0; i < size[l]; ++i)
            e[i].p = probs[i * kIpfLanes + l] * inv[l];
    }
}

/** The lanes take groups of two or more bases whose windows are all
 * at most 2 bits wide (the paper's optimal subset size is 2); the
 * scalar body takes the rest. */
void
ipfGroupAvx512(const IpfBasis *bases, std::size_t count, int passes)
{
    bool lanes = count >= 2;
    for (std::size_t b = 0; lanes && b < count; ++b)
        for (std::size_t w = 0; w < bases[b].windowCount; ++w)
            lanes = lanes && bases[b].windows[w].width <= 2;
    if (lanes)
        ipfLanes(bases, count, passes);
    else
        scalarTable().ipfGroup(bases, count, passes);
}

} // namespace

const KernelTable &
avx512Table()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = SimdTier::Avx512;
        t.apply1q = &apply1qAvx512;
        t.diagTables = &diagTablesAvx512;
        t.cxQuads = &cxQuadsAvx512;
        t.czQuads = &czQuadsAvx512;
        t.swapQuads = &swapQuadsAvx512;
        t.normChunk = &normChunkAvx512;
        t.probChunk = &probChunkAvx512;
        t.innerChunk = &innerChunkAvx512;
        t.expPauliChunk = &expPauliChunkAvx512;
        t.aliasDraws = &aliasDrawsAvx512;
        t.ipfGroup = &ipfGroupAvx512;
        return t;
    }();
    return table;
}

bool
avx512Compiled()
{
    return true;
}

} // namespace varsaw::kern::detail

#else // !(__AVX512F__ && __AVX512DQ__)

namespace varsaw::kern::detail {

const KernelTable &
avx512Table()
{
    return scalarTable();
}

bool
avx512Compiled()
{
    return false;
}

} // namespace varsaw::kern::detail

#endif
