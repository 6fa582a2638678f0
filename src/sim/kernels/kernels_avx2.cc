/**
 * @file
 * AVX2 + FMA3 tier: 256-bit registers, two complex amplitudes per
 * vector, bit-identical to the scalar reference.
 *
 * Compiled with `-mavx2 -mfma -ffp-contract=off` (CMakeLists);
 * when the toolchain cannot target AVX2 the TU degrades to a stub
 * that reports itself uncompiled and aliases the scalar table, so
 * dispatch never hands out instructions the binary doesn't have.
 *
 * Identity argument, per kernel: the per-element DAGs are the spec
 * functions' — vfmaddsub/vfmsubadd/vfmadd lanes each perform the
 * one fused rounding the scalar std::fma performs, and addsub's
 * even-lane subtraction is the spec's `acc - t` (one rounding).
 * Reduction lanes are seeded from (and drained to) the scalar lane
 * array across the head/body/tail boundary, so each absolute lane
 * sees the exact accumulation sequence of the reference. Loads are
 * unaligned-encoded throughout (free on aligned data; the aligned
 * allocator makes the common chunk boundary 64-byte aligned) —
 * alignment affects speed only, never values.
 */

#include "sim/kernels/kernel_spec.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>
#include <utility>

namespace varsaw::kern::detail {

namespace {

// --- complex DAG building blocks (two complex per __m256d) ------

inline __m256d
swapPairs(__m256d v)
{
    return _mm256_permute_pd(v, 0x5);
}

inline __m256d
dupRe(__m256d v)
{
    return _mm256_movedup_pd(v);
}

inline __m256d
dupIm(__m256d v)
{
    return _mm256_permute_pd(v, 0xF);
}

/** spec::cmul per lane pair; mre/mim may differ per lane pair. */
inline __m256d
cmulV(__m256d a, __m256d mre, __m256d mim)
{
    return _mm256_fmaddsub_pd(
        a, mre, _mm256_mul_pd(swapPairs(a), mim));
}

/** spec::cfma per lane pair. */
inline __m256d
cfmaV(__m256d a, __m256d mre, __m256d mim, __m256d acc)
{
    return _mm256_fmadd_pd(
        a, mre,
        _mm256_addsub_pd(acc,
                         _mm256_mul_pd(swapPairs(a), mim)));
}

/** spec::conjMul per lane pair. */
inline __m256d
conjMulV(__m256d l, __m256d r)
{
    return _mm256_fmsubadd_pd(
        swapPairs(l), dupIm(r), _mm256_mul_pd(l, dupRe(r)));
}

inline __m256d
signMask256(bool s0, bool s1, bool s2, bool s3)
{
    const long long sb = static_cast<long long>(0x8000000000000000ull);
    return _mm256_castsi256_pd(_mm256_set_epi64x(
        s3 ? sb : 0, s2 ? sb : 0, s1 ? sb : 0, s0 ? sb : 0));
}

// --- apply1Q ----------------------------------------------------

void
apply1qAvx2(Amp *amps, int q, std::uint64_t k0, std::uint64_t k1,
            const Matrix2 &m)
{
    if (q == 0) {
        // Adjacent pairs: one (lo, hi) pair per register. Both
        // output halves come from the same cfma/cmul DAG, with the
        // matrix rows laid out per lane pair.
        const __m256d are = _mm256_set_pd(
            m.m10.real(), m.m10.real(), m.m00.real(), m.m00.real());
        const __m256d aim = _mm256_set_pd(
            m.m10.imag(), m.m10.imag(), m.m00.imag(), m.m00.imag());
        const __m256d bre = _mm256_set_pd(
            m.m11.real(), m.m11.real(), m.m01.real(), m.m01.real());
        const __m256d bim = _mm256_set_pd(
            m.m11.imag(), m.m11.imag(), m.m01.imag(), m.m01.imag());
        for (std::uint64_t k = k0; k < k1; ++k) {
            double *p = reinterpret_cast<double *>(amps + 2 * k);
            const __m256d v = _mm256_loadu_pd(p);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            _mm256_storeu_pd(
                p, cfmaV(a0, are, aim, cmulV(a1, bre, bim)));
        }
        return;
    }
    const __m256d m00re = _mm256_set1_pd(m.m00.real());
    const __m256d m00im = _mm256_set1_pd(m.m00.imag());
    const __m256d m01re = _mm256_set1_pd(m.m01.real());
    const __m256d m01im = _mm256_set1_pd(m.m01.imag());
    const __m256d m10re = _mm256_set1_pd(m.m10.real());
    const __m256d m10im = _mm256_set1_pd(m.m10.imag());
    const __m256d m11re = _mm256_set1_pd(m.m11.real());
    const __m256d m11im = _mm256_set1_pd(m.m11.imag());
    spec::forEachPairSegment(
        amps, q, k0, k1, [&](Amp *lo, Amp *hi, std::uint64_t len) {
            std::uint64_t j = 0;
            for (; j + 2 <= len; j += 2) {
                double *pl = reinterpret_cast<double *>(lo + j);
                double *ph = reinterpret_cast<double *>(hi + j);
                const __m256d vl = _mm256_loadu_pd(pl);
                const __m256d vh = _mm256_loadu_pd(ph);
                _mm256_storeu_pd(
                    pl, cfmaV(vl, m00re, m00im,
                              cmulV(vh, m01re, m01im)));
                _mm256_storeu_pd(
                    ph, cfmaV(vl, m10re, m10im,
                              cmulV(vh, m11re, m11im)));
            }
            for (; j < len; ++j)
                spec::pair1q(lo[j], hi[j], m);
        });
}

// --- fused diagonal sweep ---------------------------------------

/** Gates per precompute batch (bounds the stack-resident tables;
 * longer runs make several passes over the range, preserving gate
 * order per amplitude). */
constexpr std::size_t kDiagBatch = 12;

/**
 * One gate's four per-group register variants, indexed by the
 * group base's selector contribution h = ((base>>a)&1) |
 * ((base>>b)&1)<<1 (the base is 2-complex aligned, so selector
 * bits from positions 0 come from the lane index instead and are
 * folded into the variants).
 */
struct PreGate2
{
    bool negate;
    int a;
    int b;
    __m256d x[4]; //!< factor re-dup, or the sign mask when negate
    __m256d y[4]; //!< factor im-dup (unused when negate)
};

void
diagTablesAvx2(Amp *amps, std::uint64_t i0, std::uint64_t i1,
               const DiagTableGate *gates, std::size_t count)
{
    for (std::size_t g0 = 0; g0 < count || g0 == 0;
         g0 += kDiagBatch) {
        const std::size_t batch =
            std::min(kDiagBatch, count - g0);
        const DiagTableGate *gs = gates + g0;
        PreGate2 pre[kDiagBatch];
        for (std::size_t g = 0; g < batch; ++g) {
            const DiagTableGate &d = gs[g];
            PreGate2 &p = pre[g];
            p.negate = d.negate;
            p.a = d.a;
            p.b = d.b;
            for (int h = 0; h < 4; ++h) {
                // Lane j's selector low contribution (only bit
                // positions 0 can come from j; j < 2).
                int sel[2];
                for (int j = 0; j < 2; ++j)
                    sel[j] = h | ((j >> d.a) & 1) |
                        (((j >> d.b) & 1) << 1);
                if (d.negate) {
                    p.x[h] = signMask256(sel[0] == 3, sel[0] == 3,
                                         sel[1] == 3, sel[1] == 3);
                } else {
                    const Amp f0 = d.table[sel[0] & 3];
                    const Amp f1 = d.table[sel[1] & 3];
                    p.x[h] = _mm256_set_pd(f1.real(), f1.real(),
                                           f0.real(), f0.real());
                    p.y[h] = _mm256_set_pd(f1.imag(), f1.imag(),
                                           f0.imag(), f0.imag());
                }
            }
        }

        std::uint64_t i = i0;
        for (; i < i1 && (i & 1); ++i)
            amps[i] = spec::diagPoint(amps[i], i, gs, batch);
        for (; i + 2 <= i1; i += 2) {
            double *p = reinterpret_cast<double *>(amps + i);
            __m256d v = _mm256_loadu_pd(p);
            for (std::size_t g = 0; g < batch; ++g) {
                const PreGate2 &pg = pre[g];
                const int h =
                    static_cast<int>(((i >> pg.a) & 1ull) |
                                     (((i >> pg.b) & 1ull) << 1));
                v = pg.negate
                    ? _mm256_xor_pd(v, pg.x[h])
                    : cmulV(v, pg.x[h], pg.y[h]);
            }
            _mm256_storeu_pd(p, v);
        }
        for (; i < i1; ++i)
            amps[i] = spec::diagPoint(amps[i], i, gs, batch);
        if (count == 0)
            break;
    }
}

// --- two-qubit data movement ------------------------------------

void
cxQuadsAvx2(Amp *amps, int control, int target, std::uint64_t k0,
            std::uint64_t k1)
{
    const std::uint64_t tbit = 1ull << target;
    spec::forEachQuadRun(
        control, target, k0, k1, 1ull << control,
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            double *q = reinterpret_cast<double *>(amps + (i | tbit));
            std::uint64_t j = 0;
            for (; j + 2 <= len; j += 2) {
                const __m256d a = _mm256_loadu_pd(p + 2 * j);
                const __m256d b = _mm256_loadu_pd(q + 2 * j);
                _mm256_storeu_pd(p + 2 * j, b);
                _mm256_storeu_pd(q + 2 * j, a);
            }
            for (; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) | tbit]);
        });
}

void
czQuadsAvx2(Amp *amps, int a, int b, std::uint64_t k0,
            std::uint64_t k1)
{
    const __m256d neg = signMask256(true, true, true, true);
    spec::forEachQuadRun(
        a, b, k0, k1, (1ull << a) | (1ull << b),
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            std::uint64_t j = 0;
            for (; j + 2 <= len; j += 2)
                _mm256_storeu_pd(
                    p + 2 * j,
                    _mm256_xor_pd(_mm256_loadu_pd(p + 2 * j), neg));
            for (; j < len; ++j) {
                const Amp v = amps[i + j];
                amps[i + j] = Amp(-v.real(), -v.imag());
            }
        });
}

void
swapQuadsAvx2(Amp *amps, int a, int b, std::uint64_t k0,
              std::uint64_t k1)
{
    const std::uint64_t flip = (1ull << a) | (1ull << b);
    spec::forEachQuadRun(
        a, b, k0, k1, 1ull << a,
        [&](std::uint64_t i, std::uint64_t len) {
            double *p = reinterpret_cast<double *>(amps + i);
            double *q = reinterpret_cast<double *>(amps + (i ^ flip));
            std::uint64_t j = 0;
            for (; j + 2 <= len; j += 2) {
                const __m256d va = _mm256_loadu_pd(p + 2 * j);
                const __m256d vb = _mm256_loadu_pd(q + 2 * j);
                _mm256_storeu_pd(p + 2 * j, vb);
                _mm256_storeu_pd(q + 2 * j, va);
            }
            for (; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) ^ flip]);
        });
}

// --- reductions -------------------------------------------------

double
normChunkAvx2(const Amp *amps, std::uint64_t i0, std::uint64_t i1)
{
    // 8 absolute flat-double lanes: accA holds lanes 0..3, accB
    // lanes 4..7. Scalar head runs until the flat position is
    // 8-aligned, seeding the vector accumulators so every lane
    // sees one unbroken fma chain in ascending index order.
    alignas(32) double lane[spec::kNormLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lane[(2 * i) & 7] = std::fma(re, re, lane[(2 * i) & 7]);
        lane[(2 * i + 1) & 7] =
            std::fma(im, im, lane[(2 * i + 1) & 7]);
    }
    __m256d accA = _mm256_loadu_pd(lane);
    __m256d accB = _mm256_loadu_pd(lane + 4);
    const double *d = reinterpret_cast<const double *>(amps);
    for (; i + 4 <= i1; i += 4) {
        const __m256d vA = _mm256_loadu_pd(d + 2 * i);
        const __m256d vB = _mm256_loadu_pd(d + 2 * i + 4);
        accA = _mm256_fmadd_pd(vA, vA, accA);
        accB = _mm256_fmadd_pd(vB, vB, accB);
    }
    _mm256_storeu_pd(lane, accA);
    _mm256_storeu_pd(lane + 4, accB);
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
probChunkAvx2(const Amp *amps, double *out, std::uint64_t i0,
              std::uint64_t i1)
{
    const double *d = reinterpret_cast<const double *>(amps);
    std::uint64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        const __m256d v0 = _mm256_loadu_pd(d + 2 * i);
        const __m256d v1 = _mm256_loadu_pd(d + 2 * i + 4);
        // unpack keeps 128-bit halves: re = [r0 r2 r1 r3] — the
        // fma is elementwise, so compute then restore index order.
        const __m256d re = _mm256_unpacklo_pd(v0, v1);
        const __m256d im = _mm256_unpackhi_pd(v0, v1);
        const __m256d n =
            _mm256_fmadd_pd(re, re, _mm256_mul_pd(im, im));
        _mm256_storeu_pd(out + i, _mm256_permute4x64_pd(n, 0xD8));
    }
    for (; i < i1; ++i)
        out[i] = spec::normPoint(amps[i]);
}

Amp
innerChunkAvx2(const Amp *lhs, const Amp *rhs, std::uint64_t i0,
               std::uint64_t i1)
{
    // 4 absolute complex lanes: acc01 = lanes 0,1; acc23 = 2,3.
    alignas(32) Amp lane[spec::kCplxLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i)
        lane[i & 3] = lane[i & 3] + spec::conjMul(lhs[i], rhs[i]);
    double *lp = reinterpret_cast<double *>(lane);
    __m256d acc01 = _mm256_loadu_pd(lp);
    __m256d acc23 = _mm256_loadu_pd(lp + 4);
    const double *ld = reinterpret_cast<const double *>(lhs);
    const double *rd = reinterpret_cast<const double *>(rhs);
    for (; i + 4 <= i1; i += 4) {
        acc01 = _mm256_add_pd(
            acc01, conjMulV(_mm256_loadu_pd(ld + 2 * i),
                            _mm256_loadu_pd(rd + 2 * i)));
        acc23 = _mm256_add_pd(
            acc23, conjMulV(_mm256_loadu_pd(ld + 2 * i + 4),
                            _mm256_loadu_pd(rd + 2 * i + 4)));
    }
    _mm256_storeu_pd(lp, acc01);
    _mm256_storeu_pd(lp + 4, acc23);
    for (; i < i1; ++i)
        lane[i & 3] = lane[i & 3] + spec::conjMul(lhs[i], rhs[i]);
    return spec::foldCplx(lane);
}

Amp
expPauliChunkAvx2(const Amp *amps, std::uint64_t x,
                  std::uint64_t z, int quadrant, std::uint64_t i0,
                  std::uint64_t i1)
{
    const bool qodd = (quadrant & 1) != 0;
    // Per-lane phase sign masks, indexed by the 2-complex group
    // base's Z-parity s: lane j's total negation is s ^
    // parity(j & z), combined with the quadrant's component flips
    // (see spec::phasePoint — all sign-bit exact).
    __m256d phaseMask[2];
    for (int s = 0; s < 2; ++s) {
        bool f[4];
        for (int j = 0; j < 2; ++j) {
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
        phaseMask[s] = signMask256(f[0], f[1], f[2], f[3]);
    }
    const std::uint64_t pbase = x & ~1ull;
    const bool pswap = (x & 1ull) != 0;
    const std::uint64_t zhigh = z & ~1ull;

    alignas(32) Amp lane[spec::kCplxLanes] = {};
    std::uint64_t i = i0;
    for (; i < i1 && (i & 3); ++i) {
        const Amp c =
            spec::phasePoint(amps[i], quadrant, parity(i & z));
        lane[i & 3] = lane[i & 3] + spec::conjMul(amps[i ^ x], c);
    }
    double *lp = reinterpret_cast<double *>(lane);
    __m256d acc01 = _mm256_loadu_pd(lp);
    __m256d acc23 = _mm256_loadu_pd(lp + 4);
    const double *d = reinterpret_cast<const double *>(amps);
    for (; i + 4 <= i1; i += 4) {
        // Two 2-complex groups per iteration, one per accumulator.
        for (int g = 0; g < 2; ++g) {
            const std::uint64_t ig = i + 2 * g;
            const __m256d v = _mm256_loadu_pd(d + 2 * ig);
            const int s = parity(ig & zhigh);
            const __m256d c = _mm256_xor_pd(
                qodd ? swapPairs(v) : v, phaseMask[s]);
            __m256d bp = _mm256_loadu_pd(d + 2 * (ig ^ pbase));
            if (pswap)
                bp = _mm256_permute2f128_pd(bp, bp, 0x01);
            const __m256d contrib = conjMulV(bp, c);
            if (g == 0)
                acc01 = _mm256_add_pd(acc01, contrib);
            else
                acc23 = _mm256_add_pd(acc23, contrib);
        }
    }
    _mm256_storeu_pd(lp, acc01);
    _mm256_storeu_pd(lp + 4, acc23);
    for (; i < i1; ++i) {
        const Amp c =
            spec::phasePoint(amps[i], quadrant, parity(i & z));
        lane[i & 3] = lane[i & 3] + spec::conjMul(amps[i ^ x], c);
    }
    return spec::foldCplx(lane);
}

} // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = SimdTier::Avx2;
        t.apply1q = &apply1qAvx2;
        t.diagTables = &diagTablesAvx2;
        t.cxQuads = &cxQuadsAvx2;
        t.czQuads = &czQuadsAvx2;
        t.swapQuads = &swapQuadsAvx2;
        t.normChunk = &normChunkAvx2;
        t.probChunk = &probChunkAvx2;
        t.innerChunk = &innerChunkAvx2;
        t.expPauliChunk = &expPauliChunkAvx2;
        // No AVX2 body for the shot draws or the reconstruction:
        // this tier runs the scalar reference.
        t.aliasDraws = scalarTable().aliasDraws;
        t.ipfGroup = scalarTable().ipfGroup;
        return t;
    }();
    return table;
}

bool
avx2Compiled()
{
    return true;
}

} // namespace varsaw::kern::detail

#else // !(__AVX2__ && __FMA__)

namespace varsaw::kern::detail {

const KernelTable &
avx2Table()
{
    return scalarTable();
}

bool
avx2Compiled()
{
    return false;
}

} // namespace varsaw::kern::detail

#endif
