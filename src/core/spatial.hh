/**
 * @file
 * VarSaw's spatial optimization: Commuting of Pauli String Subsets.
 *
 * JigSaw generates sliding-window subsets per basis circuit, after
 * commutation reduction — so the same window is regenerated and
 * re-executed for basis after basis. VarSaw flips the order
 * (Fig. 10): generate windows for *every raw Hamiltonian term*,
 * aggregate, then commutativity-reduce the aggregate (dedup +
 * dominance elimination). The surviving few subsets are executed
 * once per iteration and *shared* by every basis reconstruction,
 * answered through the covering relation.
 */

#ifndef VARSAW_CORE_SPATIAL_HH
#define VARSAW_CORE_SPATIAL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "pauli/commutation.hh"
#include "pauli/hamiltonian.hh"
#include "pauli/subsetting.hh"

namespace varsaw {

/**
 * Precomputed execution plan for one Hamiltonian: which subset
 * circuits to run each iteration, and how each basis's needed
 * windows map onto them.
 */
struct SpatialPlan
{
    /** Subset (window) size. */
    int windowSize = 2;

    /** Cover-reduced measurement bases of the Hamiltonian. */
    BasisReduction bases;

    /** The reduced subset set actually executed each iteration. */
    std::vector<PauliString> executedSubsets;

    /** How one needed window of a basis is answered. */
    struct WindowBinding
    {
        /** The needed window string (full width). */
        PauliString window;

        /** Index into executedSubsets of the covering subset. */
        std::size_t coverIndex = 0;

        /** Global qubit positions of the window's support. */
        std::vector<int> globalPositions;

        /**
         * Positions of those qubits within the covering subset's
         * compact outcome bits (for marginalization).
         */
        std::vector<int> marginalPositions;

        /** Index into marginals of (coverIndex, marginalPositions). */
        std::size_t marginalIndex = 0;
    };

    /** Window bindings per basis (aligned with bases.bases). */
    std::vector<std::vector<WindowBinding>> basisWindows;

    /** One marginal of an executed subset's outcome. */
    struct Marginal
    {
        /** Index into executedSubsets. */
        std::size_t coverIndex = 0;

        /** Bits of that subset's outcome, as in marginalPositions. */
        std::vector<int> positions;
    };

    /**
     * The distinct (coverIndex, marginalPositions) pairs of all
     * bindings, in first-use order. Many bases need the same window,
     * so each tick computes these once and shares them.
     */
    std::vector<Marginal> marginals;

    /** Human-readable plan summary. */
    std::string summary() const;
};

/**
 * Build the spatial plan: commutation-reduce the Hamiltonian,
 * aggregate windows over all raw terms (and, in Merge mode, over
 * the merged bases, so every basis window has a cover), reduce
 * them, and bind every basis window to its covering executed subset.
 *
 * Panics if a basis window has no cover — the dominance reduction
 * guarantees one exists, so absence is a library bug.
 */
SpatialPlan buildSpatialPlan(const Hamiltonian &hamiltonian,
                             int window_size,
                             BasisMode basis_mode = BasisMode::Cover);

/** Circuit counts behind Fig. 12, for one workload. */
struct SubsetCounts
{
    /** Baseline Pauli circuits (cover-reduced bases). */
    std::size_t baselineBases = 0;

    /** JigSaw subsets: per-basis windows, no cross-basis sharing. */
    std::size_t jigsawSubsets = 0;

    /** VarSaw subsets: the reduced aggregate. */
    std::size_t varsawSubsets = 0;

    /** jigsawSubsets / baselineBases (orange column, JigSaw). */
    double jigsawRatio() const;

    /** varsawSubsets / baselineBases (orange column, VarSaw). */
    double varsawRatio() const;

    /** jigsawSubsets / varsawSubsets (green line). */
    double reductionRatio() const;
};

/** Compute the Fig. 12 counts for a Hamiltonian. */
SubsetCounts countSubsets(const Hamiltonian &hamiltonian,
                          int window_size);

} // namespace varsaw

#endif // VARSAW_CORE_SPATIAL_HH
