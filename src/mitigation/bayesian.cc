#include "mitigation/bayesian.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace varsaw {

Pmf
bayesianReconstruct(const Pmf &global,
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

    // Dense scratch over the widest local's outcomes: the current
    // marginal M(s), then the per-outcome factor L(s)/M(s).
    std::vector<double> marg(std::size_t{1} << width);
    std::vector<double> ratio(marg.size());

    for (int pass = 0; pass < passes; ++pass) {
        for (const auto &local : locals) {
            if (local.pmf.supportSize() == 0)
                continue;
            const std::vector<int> &positions = local.positions;
            const std::size_t n = std::size_t{1} << positions.size();

            // Current marginal of the evolving joint on this subset.
            std::fill_n(marg.begin(), n, 0.0);
            for (const Pmf::Entry &e : out.entries())
                marg[gatherBits(e.outcome, positions)] += e.p;

            std::fill_n(ratio.begin(), n, 0.0);
            for (const Pmf::Entry &e : local.pmf.entries())
                if (e.outcome < n)
                    ratio[e.outcome] = e.p;
            // An outcome with no mass on this subset before the
            // update is left untouched (its joint entries are zero
            // anyway).
            for (std::size_t s = 0; s < n; ++s)
                ratio[s] = marg[s] <= 0.0 ? 1.0 : ratio[s] / marg[s];

            // Scale each joint outcome by L(s)/M(s).
            out.scale([&](std::uint64_t outcome) {
                return ratio[gatherBits(outcome, positions)];
            });
            out.normalize();
        }
    }
    return out;
}

} // namespace varsaw
