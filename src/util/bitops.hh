/**
 * @file
 * Bit-string helpers shared across the library.
 *
 * Measurement outcomes are packed into 64-bit words with qubit q at
 * bit position q (qubit 0 is the least significant bit). These helpers
 * gather/scatter bits between the full-register indexing and the
 * compact indexing over a subset of measured qubits.
 */

#ifndef VARSAW_UTIL_BITOPS_HH
#define VARSAW_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace varsaw {

/** Number of set bits in x. */
inline int
popcount(std::uint64_t x)
{
    return std::popcount(x);
}

/** Parity (0/1) of the number of set bits in x. */
inline int
parity(std::uint64_t x)
{
    return std::popcount(x) & 1;
}

/**
 * +1 if parity of x is even, -1 if odd. Arithmetic, not a select:
 * without a hardware popcount the select compiles to a branch, and
 * parity over sampled outcomes is a coin flip to the predictor.
 */
inline int
paritySign(std::uint64_t x)
{
    return 1 - 2 * parity(x);
}

/**
 * Gather the bits of @p value at @p positions into a compact word.
 *
 * Bit positions[i] of @p value becomes bit i of the result, so a
 * 2-qubit subset over qubits {3, 5} maps outcome bit 3 to compact
 * bit 0 and outcome bit 5 to compact bit 1.
 */
inline std::uint64_t
gatherBits(std::uint64_t value, const std::vector<int> &positions)
{
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < positions.size(); ++i)
        out |= ((value >> positions[i]) & 1ull) << i;
    return out;
}

/**
 * Scatter compact word @p value back to the full register positions.
 *
 * Inverse of gatherBits over the same position list: bit i of
 * @p value becomes bit positions[i] of the result.
 */
inline std::uint64_t
scatterBits(std::uint64_t value, const std::vector<int> &positions)
{
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < positions.size(); ++i)
        out |= ((value >> i) & 1ull) << positions[i];
    return out;
}

/**
 * Insert a zero bit at position @p pos: bits at positions >= pos
 * shift up by one, bits below stay. The workhorse of pair-iteration
 * state-vector kernels: enumerating k over [0, 2^(n-1)) and
 * inserting a zero at the target qubit visits every amplitude pair
 * (i, i | 1<<pos) exactly once without scanning the skipped half.
 */
inline std::uint64_t
insertZeroBit(std::uint64_t value, int pos)
{
    const std::uint64_t low = value & ((1ull << pos) - 1ull);
    return ((value >> pos) << (pos + 1)) | low;
}

/**
 * Insert zero bits at two distinct positions (final coordinates).
 * Positions are sorted internally; insertion proceeds lowest-first
 * so both indices refer to the resulting word.
 */
inline std::uint64_t
insertTwoZeroBits(std::uint64_t value, int a, int b)
{
    const int lo = a < b ? a : b;
    const int hi = a < b ? b : a;
    return insertZeroBit(insertZeroBit(value, lo), hi);
}

/** Mask with bits at all listed positions set. */
inline std::uint64_t
positionsMask(const std::vector<int> &positions)
{
    std::uint64_t out = 0;
    for (int p : positions)
        out |= 1ull << p;
    return out;
}

/**
 * Render the low @p width bits of @p value as a bit string with
 * qubit 0 leftmost (matching the Pauli-string convention used in
 * the paper's figures).
 */
inline std::string
bitsToString(std::uint64_t value, int width)
{
    std::string s(width, '0');
    for (int q = 0; q < width; ++q)
        if ((value >> q) & 1ull)
            s[q] = '1';
    return s;
}

} // namespace varsaw

#endif // VARSAW_UTIL_BITOPS_HH
