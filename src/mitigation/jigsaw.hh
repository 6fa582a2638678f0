/**
 * @file
 * The JigSaw measurement-error-mitigation pipeline (MICRO'21),
 * reimplemented as the baseline VarSaw improves upon.
 *
 * For one prepared circuit and one measurement basis, JigSaw:
 *  1. builds "Circuits with Partial Measurement" (CPMs) — sliding-
 *     window subsets of the measured qubits,
 *  2. executes the CPMs (high-fidelity Local PMFs) and the original
 *     circuit (low-fidelity, fully-correlated Global PMF),
 *  3. fuses them with Bayesian reconstruction into the Output PMF.
 */

#ifndef VARSAW_MITIGATION_JIGSAW_HH
#define VARSAW_MITIGATION_JIGSAW_HH

#include <cstdint>
#include <vector>

#include "mitigation/bayesian.hh"
#include "pauli/pauli_string.hh"
#include "sim/circuit.hh"
#include "util/pmf.hh"

namespace varsaw {

/** Tunables of the JigSaw pipeline. */
struct JigsawConfig
{
    /** Subset (sliding window) size; the paper finds 2 optimal. */
    int subsetSize = 2;

    /** Shots per Global execution. */
    std::uint64_t globalShots = 4096;

    /** Shots per subset execution. */
    std::uint64_t subsetShots = 2048;

    /** Bayesian reconstruction sweeps over the locals. */
    int reconstructionPasses = 1;
};

/**
 * Build the Global circuit for a basis: prepared circuit + basis
 * rotations + measurement of every qubit.
 */
Circuit makeGlobalCircuit(const Circuit &prepared,
                          const PauliString &basis);

/**
 * Build a subset circuit (CPM): prepared circuit + basis rotations
 * on the subset's support only + measurement of the support.
 * (Rotations on unmeasured qubits cannot affect the measured
 * marginal, so they are omitted.)
 */
Circuit makeSubsetCircuit(const Circuit &prepared,
                          const PauliString &subset);

/**
 * Measurement suffix of a Global: basis rotations + measurement of
 * every qubit, with NO prepared circuit attached. Submitted via
 * Batch::addPrefixed() against a shared prep, this denotes exactly
 * the circuit makeGlobalCircuit() builds — without cloning the
 * ansatz per basis.
 */
Circuit makeGlobalSuffix(const PauliString &basis);

/**
 * Measurement suffix of a CPM: rotations on the subset's support +
 * measurement of the support, no prepared circuit attached.
 */
Circuit makeSubsetSuffix(const PauliString &subset);

/**
 * The circuits one JigSaw mitigation needs, separated from their
 * execution so a batch runtime can run them (alongside the circuit
 * sets of every other basis) in one batch.
 */
struct JigsawCircuitSet
{
    /** Sliding-window subsets of the basis. */
    std::vector<PauliString> windows;

    /** CPM measurement suffixes, aligned with windows. */
    std::vector<Circuit> subsetCircuits;

    /** The fully-measured Global's measurement suffix. */
    Circuit globalCircuit;
};

/**
 * The sliding windows of @p basis with their CPM and Global
 * measurement suffixes, to be submitted against a shared prep via
 * Batch::addPrefixed(). The reconstruction half (reconstructJigsaw)
 * only reads the windows.
 */
JigsawCircuitSet makeJigsawSuffixes(const PauliString &basis,
                                    int subset_size);

/**
 * Reconstruction half of the pipeline: fuse already-executed subset
 * PMFs (aligned with @p set.windows) and the Global PMF into the
 * Output PMF.
 */
Pmf reconstructJigsaw(const JigsawCircuitSet &set,
                      const std::vector<Pmf> &subset_pmfs,
                      const Pmf &global_pmf,
                      int reconstruction_passes);

} // namespace varsaw

#endif // VARSAW_MITIGATION_JIGSAW_HH
