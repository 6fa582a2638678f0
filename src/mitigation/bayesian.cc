#include "mitigation/bayesian.hh"

#include <algorithm>
#include <utility>

#include "sim/kernels/kernels.hh"
#include "util/logging.hh"

namespace varsaw {

namespace {

void
checkPasses(int passes)
{
    if (passes < 1)
        panic("bayesianReconstruct: passes must be >= 1");
}

/**
 * Check @p locals against @p global and append their kernel windows
 * to @p windows. The windows point into @p locals.
 */
void
appendWindows(const Pmf &global, const std::vector<LocalPmf> &locals,
              std::vector<kern::IpfWindow> &windows)
{
    for (const auto &local : locals) {
        if (local.positions.size() > 30)
            panic("bayesianReconstruct: local spans too many bits");
        checkBitPositions(local.positions, global.numBits(),
                          "bayesianReconstruct");
        windows.push_back({local.positions.data(),
                           static_cast<int>(local.positions.size()),
                           local.pmf.entries().data(),
                           local.pmf.supportSize()});
    }
}

} // namespace

Pmf
bayesianReconstruct(const Pmf &global,
                    const std::vector<LocalPmf> &locals, int passes)
{
    checkPasses(passes);
    std::vector<kern::IpfWindow> windows;
    windows.reserve(locals.size());
    appendWindows(global, locals, windows);

    std::vector<Pmf::Entry> entries = global.entries();
    const kern::IpfBasis basis{entries.data(), entries.size(),
                               windows.data(), windows.size()};
    kern::activeKernels().ipfGroup(&basis, 1, passes);
    return Pmf::fromSortedEntries(global.numBits(), std::move(entries));
}

std::vector<Pmf>
bayesianReconstructAll(const std::vector<Pmf> &globals,
                       const std::vector<std::vector<LocalPmf>> &locals,
                       int passes)
{
    checkPasses(passes);
    if (locals.size() != globals.size())
        panic("bayesianReconstructAll: need one locals list per global");

    constexpr std::size_t kLanes = kern::kIpfLanes;
    const std::size_t bases = globals.size();
    std::size_t most_windows = 0;
    for (std::size_t first = 0; first < bases; first += kLanes) {
        std::size_t group_windows = 0;
        for (std::size_t b = first; b < std::min(first + kLanes, bases);
             ++b)
            group_windows += locals[b].size();
        most_windows = std::max(most_windows, group_windows);
    }

    const kern::KernelTable &kernels = kern::activeKernels();
    std::vector<Pmf> out;
    out.reserve(bases);
    std::vector<kern::IpfWindow> windows;
    windows.reserve(most_windows);
    std::vector<Pmf::Entry> entries[kLanes];
    kern::IpfBasis group[kLanes];
    for (std::size_t first = 0; first < bases; first += kLanes) {
        const std::size_t count = std::min(kLanes, bases - first);
        windows.clear();
        for (std::size_t l = 0; l < count; ++l)
            appendWindows(globals[first + l], locals[first + l],
                          windows);
        std::size_t next = 0;
        for (std::size_t l = 0; l < count; ++l) {
            entries[l] = globals[first + l].entries();
            const std::size_t own = locals[first + l].size();
            group[l] = {entries[l].data(), entries[l].size(),
                        windows.data() + next, own};
            next += own;
        }
        kernels.ipfGroup(group, count, passes);
        for (std::size_t l = 0; l < count; ++l)
            out.push_back(Pmf::fromSortedEntries(
                globals[first + l].numBits(), std::move(entries[l])));
    }
    return out;
}

} // namespace varsaw
