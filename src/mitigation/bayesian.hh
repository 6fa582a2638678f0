/**
 * @file
 * Bayesian reconstruction (the fusion step of JigSaw / VarSaw).
 *
 * Given a low-fidelity Global PMF over all measured qubits and a set
 * of high-fidelity Local PMFs over small qubit subsets, rewrite the
 * Global so its marginals match the Locals while keeping its
 * cross-qubit correlation structure. This is one pass of iterative
 * proportional fitting, which is exactly the update the JigSaw paper
 * describes: the probability of a local outcome is distributed over
 * the matching global outcomes in proportion to their current
 * (prior) global probabilities.
 */

#ifndef VARSAW_MITIGATION_BAYESIAN_HH
#define VARSAW_MITIGATION_BAYESIAN_HH

#include <vector>

#include "util/pmf.hh"

namespace varsaw {

/** A high-fidelity marginal over a subset of the global bits. */
struct LocalPmf
{
    /** Global bit positions this marginal spans (bit i of the
     *  local PMF corresponds to global bit positions[i]). */
    std::vector<int> positions;

    /** The marginal distribution itself. */
    Pmf pmf;
};

/**
 * Bayesian reconstruction via iterative proportional fitting.
 *
 * For each local L over subset S (applied in order, @p passes times):
 *
 *     P'(x) = P(x) * L(x|S) / M(x|S)
 *
 * where M is the current marginal of P on S, followed by
 * renormalization. Outcomes outside the Global's support stay at
 * zero probability (the prior carries the correlation information;
 * without it there is nothing to scale). Panics unless every local
 * position is a distinct bit of the global (checkBitPositions) and
 * each local spans at most 30 bits.
 *
 * @param global Prior joint distribution (the Global run).
 * @param locals Subset marginals (the subset runs).
 * @param passes Number of sweeps over the locals (JigSaw uses 1).
 * @return The reconstructed, normalized Output-PMF.
 */
Pmf bayesianReconstruct(const Pmf &global,
                        const std::vector<LocalPmf> &locals,
                        int passes = 1);

/**
 * bayesianReconstruct(globals[b], locals[b], passes) for every
 * basis b, bit for bit, in one call. The bases go to the SIMD
 * kernel table (sim/kernels, `ipfGroup`) in groups of up to eight,
 * in basis order; the AVX-512 tier reconstructs a group's bases in
 * parallel vector lanes.
 *
 * @param globals Each basis's prior.
 * @param locals  Each basis's subset marginals (one list per
 *                global).
 * @param passes  Number of sweeps over each basis's locals.
 * @return The reconstructed PMFs, aligned with @p globals.
 */
std::vector<Pmf>
bayesianReconstructAll(const std::vector<Pmf> &globals,
                       const std::vector<std::vector<LocalPmf>> &locals,
                       int passes = 1);

} // namespace varsaw

#endif // VARSAW_MITIGATION_BAYESIAN_HH
