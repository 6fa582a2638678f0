/**
 * @file
 * Shot sampling: the empirical distribution of a finite number of
 * measurements drawn from a Pmf.
 *
 * The draw loop is a SIMD kernel (sim/kernels, KernelTable::
 * aliasDraws), which is why sampling lives in sim/ and not next to
 * Pmf in util/.
 */

#ifndef VARSAW_SIM_SAMPLING_HH
#define VARSAW_SIM_SAMPLING_HH

#include <cstdint>

#include "util/pmf.hh"

namespace varsaw {

class Rng;

/**
 * Draw @p shots outcomes from @p pmf and return their empirical
 * distribution: count / shots for every outcome drawn at least
 * once, over the same bits.
 *
 * Sampling contract v2 (the bits every determinism gate pins): a
 * Walker/Vose alias table over the entries with p > 0, in outcome
 * order; one xoshiro256** step of @p rng per shot, whose 128-bit
 * product with the column count gives the column (high word) and
 * the integer coin against the column's threshold (low word). The
 * draws run in the active kernel tier, and @p rng ends in the
 * state that @p shots calls of Rng::next() would leave.
 */
Pmf sampleShots(const Pmf &pmf, Rng &rng, std::uint64_t shots);

} // namespace varsaw

#endif // VARSAW_SIM_SAMPLING_HH
