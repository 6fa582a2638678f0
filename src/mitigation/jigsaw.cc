#include "mitigation/jigsaw.hh"

#include "pauli/subsetting.hh"
#include "util/logging.hh"

#include <utility>

namespace varsaw {

Circuit
makeGlobalCircuit(const Circuit &prepared, const PauliString &basis)
{
    Circuit c(prepared.numQubits(),
              "global:" + basis.toString());
    c.append(prepared);
    c.appendBasisRotations(basis);
    c.measureAll();
    return c;
}

Circuit
makeSubsetCircuit(const Circuit &prepared, const PauliString &subset)
{
    if (subset.isIdentity())
        panic("makeSubsetCircuit: subset measures nothing");
    Circuit c(prepared.numQubits(),
              "subset:" + subset.toSubsetString());
    c.append(prepared);
    c.appendBasisRotations(subset);
    c.measureSupport(subset);
    return c;
}

Circuit
makeGlobalSuffix(const PauliString &basis)
{
    Circuit c(basis.numQubits(), "global:" + basis.toString());
    c.appendBasisRotations(basis);
    c.measureAll();
    return c;
}

Circuit
makeSubsetSuffix(const PauliString &subset)
{
    if (subset.isIdentity())
        panic("makeSubsetSuffix: subset measures nothing");
    Circuit c(subset.numQubits(),
              "subset:" + subset.toSubsetString());
    c.appendBasisRotations(subset);
    c.measureSupport(subset);
    return c;
}

JigsawCircuitSet
makeJigsawSuffixes(const PauliString &basis, int subset_size)
{
    JigsawCircuitSet set;
    set.windows = windowSubsets(basis, subset_size);
    set.subsetCircuits.reserve(set.windows.size());
    for (const auto &w : set.windows)
        set.subsetCircuits.push_back(makeSubsetSuffix(w));
    set.globalCircuit = makeGlobalSuffix(basis);
    return set;
}

Pmf
reconstructJigsaw(const JigsawCircuitSet &set,
                  const std::vector<Pmf> &subset_pmfs,
                  const Pmf &global_pmf, int reconstruction_passes)
{
    if (subset_pmfs.size() != set.windows.size())
        panic("reconstructJigsaw: subset PMF count != window count");
    std::vector<LocalPmf> locals;
    locals.reserve(set.windows.size());
    for (std::size_t w = 0; w < set.windows.size(); ++w) {
        LocalPmf local;
        local.positions = set.windows[w].support();
        local.pmf = subset_pmfs[w];
        locals.push_back(std::move(local));
    }
    return bayesianReconstruct(global_pmf, locals,
                               reconstruction_passes);
}

} // namespace varsaw
