#include "core/spatial.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/logging.hh"

namespace varsaw {

std::string
SpatialPlan::summary() const
{
    std::size_t bindings = 0;
    for (const auto &bw : basisWindows)
        bindings += bw.size();
    std::ostringstream out;
    out << "spatial plan: " << bases.bases.size() << " bases, "
        << executedSubsets.size() << " executed subsets (window "
        << windowSize << "), " << bindings << " window bindings";
    return out.str();
}

SpatialPlan
buildSpatialPlan(const Hamiltonian &hamiltonian, int window_size,
                 BasisMode basis_mode)
{
    SpatialPlan plan;
    plan.windowSize = window_size;

    const auto strings = hamiltonian.strings();
    plan.bases = reduceBases(strings, basis_mode);

    // VarSaw order of operations (Fig. 10): subset every raw term,
    // aggregate, then commutativity-reduce. Under Merge grouping the
    // bases are unions of terms, so their windows join the pool too
    // (in Cover mode they are raw terms already, deduped for free).
    auto pool = aggregateSubsets(strings, window_size);
    auto basis_windows = aggregateSubsets(plan.bases.bases,
                                          window_size);
    pool.insert(pool.end(), basis_windows.begin(),
                basis_windows.end());
    plan.executedSubsets = reduceSubsets(pool);

    SubsetCover cover(plan.executedSubsets);

    // Per executed subset: its support, and the indices into
    // plan.marginals of its marginals so far (a window's duplicates
    // can only be among its cover's few marginals).
    std::vector<std::vector<int>> cover_supports;
    cover_supports.reserve(plan.executedSubsets.size());
    for (const auto &subset : plan.executedSubsets)
        cover_supports.push_back(subset.support());
    std::vector<std::vector<std::size_t>> cover_marginals(
        plan.executedSubsets.size());

    plan.basisWindows.resize(plan.bases.bases.size());
    for (std::size_t b = 0; b < plan.bases.bases.size(); ++b) {
        const auto windows =
            windowSubsets(plan.bases.bases[b], window_size);
        auto &bindings = plan.basisWindows[b];
        bindings.reserve(windows.size());
        for (const auto &w : windows) {
            auto idx = cover.findCover(w);
            if (!idx) {
                // Bases are raw term strings, so every window is in
                // the aggregate pool; the reduction keeps a dominator
                // for everything it drops. No cover means a bug.
                panic("buildSpatialPlan: window " +
                      w.toSubsetString() + " has no covering subset");
            }
            SpatialPlan::WindowBinding binding;
            binding.window = w;
            binding.coverIndex = *idx;
            binding.globalPositions = w.support();

            const auto &cover_support = cover_supports[*idx];
            binding.marginalPositions.reserve(
                binding.globalPositions.size());
            for (int q : binding.globalPositions) {
                int pos = -1;
                for (std::size_t i = 0; i < cover_support.size(); ++i)
                    if (cover_support[i] == q) {
                        pos = static_cast<int>(i);
                        break;
                    }
                if (pos < 0)
                    panic("buildSpatialPlan: cover support does not "
                          "contain window qubit");
                binding.marginalPositions.push_back(pos);
            }

            auto &known = cover_marginals[*idx];
            const auto same = std::find_if(
                known.begin(), known.end(), [&](std::size_t m) {
                    return plan.marginals[m].positions ==
                        binding.marginalPositions;
                });
            if (same != known.end()) {
                binding.marginalIndex = *same;
            } else {
                binding.marginalIndex = plan.marginals.size();
                known.push_back(binding.marginalIndex);
                plan.marginals.push_back(
                    {*idx, binding.marginalPositions});
            }
            bindings.push_back(std::move(binding));
        }
    }
    return plan;
}

double
SubsetCounts::jigsawRatio() const
{
    return baselineBases == 0 ? 0.0
        : static_cast<double>(jigsawSubsets) /
          static_cast<double>(baselineBases);
}

double
SubsetCounts::varsawRatio() const
{
    return baselineBases == 0 ? 0.0
        : static_cast<double>(varsawSubsets) /
          static_cast<double>(baselineBases);
}

double
SubsetCounts::reductionRatio() const
{
    return varsawSubsets == 0 ? 0.0
        : static_cast<double>(jigsawSubsets) /
          static_cast<double>(varsawSubsets);
}

SubsetCounts
countSubsets(const Hamiltonian &hamiltonian, int window_size)
{
    const auto strings = hamiltonian.strings();
    const BasisReduction reduction = coverReduce(strings);

    SubsetCounts counts;
    counts.baselineBases = reduction.bases.size();
    counts.jigsawSubsets =
        jigsawSubsets(reduction.bases, window_size).size();
    counts.varsawSubsets =
        reduceSubsets(aggregateSubsets(strings, window_size)).size();
    return counts;
}

} // namespace varsaw
