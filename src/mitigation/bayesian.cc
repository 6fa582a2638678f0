#include "mitigation/bayesian.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "util/logging.hh"

namespace varsaw {

namespace {

/** Width parameter of the one kernel instantiation sized at run time. */
constexpr int kRuntimeWidth = -1;

/** The multiplier Pmf::normalize() applies for a total mass. */
double
normalizer(double total)
{
    return total <= 0.0 ? 1.0 : 1.0 / total;
}

/**
 * One local update over @p entries, in two streaming passes.
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
windowKernel(std::vector<Pmf::Entry> &entries, double total,
             const LocalPmf &local)
{
    constexpr bool kFixed = K != kRuntimeWidth;
    const int width =
        kFixed ? K : static_cast<int>(local.positions.size());
    const std::size_t n = std::size_t{1} << width;

    std::array<double, kFixed ? std::size_t{2} << K : 0> stack{};
    std::vector<double> wide;
    std::array<int, kFixed ? K : 0> fixed_positions{};
    double *marg = stack.data();
    const int *positions = local.positions.data();
    if constexpr (kFixed) {
        std::copy_n(local.positions.begin(), K, fixed_positions.begin());
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
    for (Pmf::Entry &e : entries) {
        e.p *= inv;
        marg[gather(e.outcome)] += e.p;
    }

    // Outcomes at or beyond 2^width cannot come from this window.
    for (const Pmf::Entry &e : local.pmf.entries())
        if (e.outcome < n)
            ratio[e.outcome] = e.p;
    // An outcome with no mass on this subset before the update is
    // left untouched (its joint entries are zero anyway).
    for (std::size_t s = 0; s < n; ++s)
        ratio[s] = marg[s] <= 0.0 ? 1.0 : ratio[s] / marg[s];

    double next_total = 0.0;
    for (Pmf::Entry &e : entries) {
        e.p *= ratio[gather(e.outcome)];
        next_total += e.p;
    }
    return next_total;
}

/** windowKernel() at the local's width: on the stack up to width 5
 * (the paper's window sizes are 2-5), sized at run time beyond. */
double
updateWindow(std::vector<Pmf::Entry> &entries, double total,
             const LocalPmf &local)
{
    switch (local.positions.size()) {
      case 0:
        return windowKernel<0>(entries, total, local);
      case 1:
        return windowKernel<1>(entries, total, local);
      case 2:
        return windowKernel<2>(entries, total, local);
      case 3:
        return windowKernel<3>(entries, total, local);
      case 4:
        return windowKernel<4>(entries, total, local);
      case 5:
        return windowKernel<5>(entries, total, local);
      default:
        return windowKernel<kRuntimeWidth>(entries, total, local);
    }
}

} // namespace

Pmf
bayesianReconstruct(const Pmf &global,
                    const std::vector<LocalPmf> &locals, int passes)
{
    if (passes < 1)
        panic("bayesianReconstruct: passes must be >= 1");
    for (const auto &local : locals)
        if (local.positions.size() > 30)
            panic("bayesianReconstruct: local spans too many bits");

    std::vector<Pmf::Entry> entries = global.entries();

    // The initial normalize's sum; each update divides out the total
    // it was handed and returns the next one.
    double total = 0.0;
    for (const Pmf::Entry &e : entries)
        total += e.p;
    for (int pass = 0; pass < passes; ++pass)
        for (const auto &local : locals)
            if (local.pmf.supportSize() != 0)
                total = updateWindow(entries, total, local);

    const double inv = normalizer(total);
    for (Pmf::Entry &e : entries)
        e.p *= inv;
    return Pmf::fromSortedEntries(global.numBits(), std::move(entries));
}

} // namespace varsaw
