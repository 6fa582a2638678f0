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

#include <array>
#include <utility>
#include <vector>

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

// --- Bayesian reconstruction ---------------------------------------

/** Width parameter of the one kernel instantiation sized at run time. */
constexpr int kRuntimeWidth = -1;

/** The multiplier Pmf::normalize() applies for a total mass. */
double
normalizer(double total)
{
    return total <= 0.0 ? 1.0 : 1.0 / total;
}

/**
 * One window's update over @p count entries, in two streaming passes.
 *
 * On entry the entries still await the previous step's normalize by
 * @p total. Pass one applies it and accumulates the current marginal
 * M over this window; pass two scales each entry by L(s)/M(s) and
 * sums the new total, which the next step (or the final normalize)
 * divides out. Every product and every sum runs in entry order, as
 * in the normalize/marginal/scale/totalMass sequence it replaces, so
 * the results are bit-identical to it. Multiplying by 1 where
 * normalize() would return early leaves each value unchanged.
 *
 * @p K is the window width, so the gather unrolls and the scratch
 * (2^K marginals and ratios) sits on the stack; kRuntimeWidth sizes
 * the scratch from the window instead, on the heap.
 */
template <int K>
double
windowKernel(Pmf::Entry *entries, std::size_t count, double total,
             const IpfWindow &window)
{
    constexpr bool kFixed = K != kRuntimeWidth;
    const int width = kFixed ? K : window.width;
    const std::size_t n = std::size_t{1} << width;

    std::array<double, kFixed ? std::size_t{2} << K : 0> stack{};
    std::vector<double> wide;
    std::array<int, kFixed ? K : 0> fixed_positions{};
    double *marg = stack.data();
    const int *positions = window.positions;
    if constexpr (kFixed) {
        std::copy_n(window.positions, K, fixed_positions.begin());
        positions = fixed_positions.data();
    } else {
        wide.assign(2 * n, 0.0);
        marg = wide.data();
    }
    double *ratio = marg + n;

    const auto gather = [&](std::uint64_t outcome) {
        std::uint64_t out = 0;
        for (int i = 0; i < width; ++i)
            out |= ((outcome >> positions[i]) & 1ull) << i;
        return out;
    };

    const double inv = normalizer(total);
    for (std::size_t i = 0; i < count; ++i) {
        Pmf::Entry &e = entries[i];
        e.p *= inv;
        marg[gather(e.outcome)] += e.p;
    }

    // Outcomes at or beyond 2^width cannot come from this window.
    for (std::size_t i = 0; i < window.localCount; ++i)
        if (window.local[i].outcome < n)
            ratio[window.local[i].outcome] = window.local[i].p;
    // An outcome with no mass on this subset before the update is
    // left untouched (its joint entries are zero anyway).
    for (std::size_t s = 0; s < n; ++s)
        ratio[s] = marg[s] <= 0.0 ? 1.0 : ratio[s] / marg[s];

    double next_total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        Pmf::Entry &e = entries[i];
        e.p *= ratio[gather(e.outcome)];
        next_total += e.p;
    }
    return next_total;
}

/** windowKernel() at the window's width: on the stack up to width 5
 * (the paper's window sizes are 2-5), sized at run time beyond. */
double
updateWindow(Pmf::Entry *entries, std::size_t count, double total,
             const IpfWindow &window)
{
    switch (window.width) {
      case 0:
        return windowKernel<0>(entries, count, total, window);
      case 1:
        return windowKernel<1>(entries, count, total, window);
      case 2:
        return windowKernel<2>(entries, count, total, window);
      case 3:
        return windowKernel<3>(entries, count, total, window);
      case 4:
        return windowKernel<4>(entries, count, total, window);
      case 5:
        return windowKernel<5>(entries, count, total, window);
      default:
        return windowKernel<kRuntimeWidth>(entries, count, total,
                                           window);
    }
}

/** One basis: the initial total, every non-empty window of every
 * pass in order, the final normalize. */
void
ipfBasisScalar(const IpfBasis &basis, int passes)
{
    // The initial normalize's sum; each update divides out the total
    // it was handed and returns the next one.
    double total = 0.0;
    for (std::size_t i = 0; i < basis.count; ++i)
        total += basis.entries[i].p;
    for (int pass = 0; pass < passes; ++pass)
        for (std::size_t w = 0; w < basis.windowCount; ++w)
            if (basis.windows[w].localCount != 0)
                total = updateWindow(basis.entries, basis.count, total,
                                     basis.windows[w]);

    const double inv = normalizer(total);
    for (std::size_t i = 0; i < basis.count; ++i)
        basis.entries[i].p *= inv;
}

void
ipfGroupScalar(const IpfBasis *bases, std::size_t count, int passes)
{
    for (std::size_t b = 0; b < count; ++b)
        ipfBasisScalar(bases[b], passes);
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
        t.ipfGroup = &ipfGroupScalar;
        return t;
    }();
    return table;
}

} // namespace varsaw::kern::detail
