#include "sim/sampling.hh"

#include <utility>
#include <vector>

#include "sim/kernels/kernels.hh"
#include "util/rng.hh"

namespace varsaw {

namespace {

/** @p prob × 2^64 as a threshold; prob ≥ 1 maps to all-ones. */
std::uint64_t
toThreshold(double prob)
{
    if (prob >= 1.0)
        return ~std::uint64_t{0};
    if (prob <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(prob * 0x1p64);
}

} // namespace

Pmf
sampleShots(const Pmf &pmf, Rng &rng, std::uint64_t shots)
{
    if (shots == 0)
        return Pmf(pmf.numBits());

    // Columns are the entries with p > 0, in outcome order.
    const std::vector<Pmf::Entry> &entries = pmf.entries();
    std::vector<std::size_t> source;
    source.reserve(entries.size());
    double total = 0.0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].p <= 0.0)
            continue;
        total += entries[i].p;
        source.push_back(i);
    }
    const std::size_t k = source.size();
    if (k == 0)
        return Pmf(pmf.numBits());

    // Vose's build (Walker 1977; Vose 1991): scale each column to
    // mean 1, then repeatedly pair the last small column with the
    // last large one. The worklists are stacks filled in column
    // order, and the arithmetic is plain + - * /, so the table is a
    // pure function of the entries. A column keeps its draw when the
    // coin is below its threshold and goes to its alias otherwise.
    std::vector<std::uint64_t> threshold(k, ~std::uint64_t{0});
    std::vector<std::uint64_t> alias(k);
    std::vector<double> scaled(k);
    std::vector<std::size_t> small, large;
    small.reserve(k);
    large.reserve(k);
    const double mean_to_one = static_cast<double>(k) / total;
    for (std::size_t c = 0; c < k; ++c) {
        alias[c] = c;
        scaled[c] = entries[source[c]].p * mean_to_one;
        (scaled[c] < 1.0 ? small : large).push_back(c);
    }
    while (!small.empty() && !large.empty()) {
        const std::size_t s = small.back();
        small.pop_back();
        const std::size_t l = large.back();
        large.pop_back();
        threshold[s] = toThreshold(scaled[s]);
        alias[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Columns left on either list (by rounding) keep the all-ones
    // threshold and their own index.

    // The kernel steps a copy of the generator's state; the state
    // it ends in is the one `shots` calls of next() would leave.
    std::vector<std::uint64_t> tally(k, 0);
    Rng::State state = rng.state();
    kern::activeKernels().aliasDraws(state.data(), shots, k,
                                     threshold.data(), alias.data(),
                                     tally.data());
    rng.setState(state);

    // Column order is outcome order, so the result is born sorted.
    std::size_t drawn = 0;
    for (const std::uint64_t count : tally)
        drawn += count != 0;
    std::vector<Pmf::Entry> out;
    out.reserve(drawn);
    const auto n = static_cast<double>(shots);
    for (std::size_t c = 0; c < k; ++c)
        if (tally[c] != 0)
            out.push_back({entries[source[c]].outcome,
                           static_cast<double>(tally[c]) / n});
    return Pmf::fromSortedEntries(pmf.numBits(), std::move(out));
}

} // namespace varsaw
