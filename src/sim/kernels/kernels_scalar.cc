/**
 * @file
 * Scalar reference tier: the bit-exactness ground truth.
 *
 * Every loop below IS the specification the vector tiers must
 * reproduce — plain loops over the spec DAGs of kernel_spec.hh,
 * with reduction lanes assigned by absolute index. Compiled with
 * `-ffp-contract=off` (CMakeLists) so the std::fma calls and plain
 * multiplies written here are exactly the operations performed.
 */

#include "sim/kernels/kernel_spec.hh"

#include <utility>

namespace varsaw::kern::detail {

namespace {

void
apply1qScalar(Amp *amps, int q, std::uint64_t k0,
              std::uint64_t k1, const Matrix2 &m)
{
    if (q == 0) {
        for (std::uint64_t i = 2 * k0; i < 2 * k1; i += 2)
            spec::pair1q(amps[i], amps[i + 1], m);
        return;
    }
    spec::forEachPairSegment(
        amps, q, k0, k1, [&](Amp *lo, Amp *hi, std::uint64_t len) {
            for (std::uint64_t j = 0; j < len; ++j)
                spec::pair1q(lo[j], hi[j], m);
        });
}

void
diagTablesScalar(Amp *amps, std::uint64_t i0, std::uint64_t i1,
                 const DiagTableGate *gates, std::size_t count)
{
    for (std::uint64_t i = i0; i < i1; ++i)
        amps[i] = spec::diagPoint(amps[i], i, gates, count);
}

void
cxQuadsScalar(Amp *amps, int control, int target,
              std::uint64_t k0, std::uint64_t k1)
{
    const std::uint64_t tbit = 1ull << target;
    spec::forEachQuadRun(
        control, target, k0, k1, 1ull << control,
        [&](std::uint64_t i, std::uint64_t len) {
            for (std::uint64_t j = 0; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) | tbit]);
        });
}

void
czQuadsScalar(Amp *amps, int a, int b, std::uint64_t k0,
              std::uint64_t k1)
{
    spec::forEachQuadRun(
        a, b, k0, k1, (1ull << a) | (1ull << b),
        [&](std::uint64_t i, std::uint64_t len) {
            for (std::uint64_t j = 0; j < len; ++j) {
                const Amp v = amps[i + j];
                amps[i + j] = Amp(-v.real(), -v.imag());
            }
        });
}

void
swapQuadsScalar(Amp *amps, int a, int b, std::uint64_t k0,
                std::uint64_t k1)
{
    const std::uint64_t flip = (1ull << a) | (1ull << b);
    spec::forEachQuadRun(
        a, b, k0, k1, 1ull << a,
        [&](std::uint64_t i, std::uint64_t len) {
            for (std::uint64_t j = 0; j < len; ++j)
                std::swap(amps[i + j], amps[(i + j) ^ flip]);
        });
}

double
normChunkScalar(const Amp *amps, std::uint64_t i0,
                std::uint64_t i1)
{
    double lane[spec::kNormLanes] = {};
    for (std::uint64_t i = i0; i < i1; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lane[(2 * i) & 7] = std::fma(re, re, lane[(2 * i) & 7]);
        lane[(2 * i + 1) & 7] =
            std::fma(im, im, lane[(2 * i + 1) & 7]);
    }
    return spec::foldNorm(lane);
}

void
probChunkScalar(const Amp *amps, double *out, std::uint64_t i0,
                std::uint64_t i1)
{
    for (std::uint64_t i = i0; i < i1; ++i)
        out[i] = spec::normPoint(amps[i]);
}

Amp
innerChunkScalar(const Amp *lhs, const Amp *rhs,
                 std::uint64_t i0, std::uint64_t i1)
{
    Amp lane[spec::kCplxLanes] = {};
    for (std::uint64_t i = i0; i < i1; ++i)
        lane[i & 3] = lane[i & 3] + spec::conjMul(lhs[i], rhs[i]);
    return spec::foldCplx(lane);
}

Amp
expPauliChunkScalar(const Amp *amps, std::uint64_t x,
                    std::uint64_t z, int quadrant,
                    std::uint64_t i0, std::uint64_t i1)
{
    Amp lane[spec::kCplxLanes] = {};
    for (std::uint64_t i = i0; i < i1; ++i) {
        const Amp c =
            spec::phasePoint(amps[i], quadrant, parity(i & z));
        lane[i & 3] = lane[i & 3] + spec::conjMul(amps[i ^ x], c);
    }
    return spec::foldCplx(lane);
}

void
aliasDrawsScalar(std::uint64_t state[4], std::uint64_t shots,
                 std::uint64_t k, const std::uint64_t *threshold,
                 const std::uint64_t *alias, std::uint64_t *tally)
{
    std::uint64_t s[4] = {state[0], state[1], state[2], state[3]};
    for (std::uint64_t i = 0; i < shots; ++i)
        spec::drawShot(s, k, threshold, alias, tally);
    for (int i = 0; i < 4; ++i)
        state[i] = s[i];
}

} // namespace

const KernelTable &
scalarTable()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = SimdTier::Scalar;
        t.apply1q = &apply1qScalar;
        t.diagTables = &diagTablesScalar;
        t.cxQuads = &cxQuadsScalar;
        t.czQuads = &czQuadsScalar;
        t.swapQuads = &swapQuadsScalar;
        t.normChunk = &normChunkScalar;
        t.probChunk = &probChunkScalar;
        t.innerChunk = &innerChunkScalar;
        t.expPauliChunk = &expPauliChunkScalar;
        t.aliasDraws = &aliasDrawsScalar;
        return t;
    }();
    return table;
}

} // namespace varsaw::kern::detail
