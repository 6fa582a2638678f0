/**
 * @file
 * Explicit-SIMD statevector kernels with runtime ISA dispatch.
 *
 * Every hot per-amplitude loop of the Statevector, the shot draws
 * of sim/sampling.hh and the Bayesian reconstruction of
 * mitigation/bayesian.hh (ipfGroup, up to eight bases per call)
 * live behind the function-pointer table
 * below, with three implementations compiled into every binary as
 * separate translation units carrying their own arch flags
 * (CMakeLists): a scalar reference (explicit std::fma), an
 * AVX2+FMA tier, and an AVX-512 tier. One
 * table is resolved at startup from the cpuid probe
 * (util/cpu_features) — or forced by `VARSAW_SIMD=
 * {scalar,avx2,avx512,auto}` / the drivers' `--simd` flag — so the
 * same binary runs on any x86-64 machine and uses the widest vectors
 * the host actually has.
 *
 * THE DETERMINISM CONTRACT — the headline guarantee and the reason
 * the three tiers are written by hand rather than left to the
 * auto-vectorizer: **every tier is bit-identical to the scalar
 * reference.** This is what keeps results a pure function of
 * (backend seed, job content) across heterogeneous machines, so the
 * shared service's cross-process caches stay pure memoization no
 * matter which host computed an entry. It holds because:
 *
 *  - Each kernel's per-element arithmetic is a fixed rounding DAG
 *    (see the spec functions in kernel_spec.hh): where a vector
 *    tier uses a fused multiply-add the scalar reference calls
 *    std::fma, and `-ffp-contract=off` on every TU (CMakeLists)
 *    stops the compiler from fusing (or un-fusing) anything else.
 *  - Reductions keep the fixed-chunk pairwise merge of
 *    util/parallel and, inside a chunk, accumulate into a fixed
 *    number of lanes — 8 double lanes (norm) or 4 complex lanes
 *    (inner product, Pauli expectation), assigned by ABSOLUTE index
 *    (`i % lanes`) — folded in one documented order. The scalar
 *    reference maintains the same lanes, so SIMD lane-partials fold
 *    exactly like the reference's.
 *  - Data movement (CX/SWAP) and sign flips (CZ, Pauli phases) are
 *    exact in every tier by construction.
 *
 * Kernel functions operate on half-open ranges (pair, quad, or
 * amplitude index ranges) so the Statevector can keep driving them
 * through util/parallel's fixed chunk decomposition; the table is
 * fetched once per kernel call, so a concurrent tier switch never
 * mixes tiers inside one sweep.
 */

#ifndef VARSAW_SIM_KERNELS_KERNELS_HH
#define VARSAW_SIM_KERNELS_KERNELS_HH

#include <complex>
#include <cstddef>
#include <cstdint>

#include "sim/gate.hh"
#include "util/pmf.hh"

namespace varsaw::kern {

using Amp = std::complex<double>;

/** Dispatchable ISA tiers, widest last. */
enum class SimdTier
{
    Scalar = 0, //!< portable reference (std::fma, no intrinsics)
    Avx2 = 1,   //!< 256-bit AVX2 + FMA3
    Avx512 = 2, //!< 512-bit AVX-512 F + DQ
};

/** Printable tier name ("scalar" / "avx2" / "avx512"). */
const char *simdTierName(SimdTier tier);

/**
 * Parse a tier spelling ("scalar", "avx2", "avx512", "auto",
 * case-sensitive). "auto" sets @p is_auto and leaves @p out alone.
 * Returns false on any other string.
 */
bool parseSimdTier(const char *text, SimdTier *out, bool *is_auto);

/**
 * Widest tier this binary can run HERE: the cpuid probe intersected
 * with what the compiler could build (a toolchain without AVX-512
 * support yields a binary whose ceiling is AVX2).
 */
SimdTier maxSupportedSimdTier();

/**
 * One fused diagonal gate in branch-free table form: amplitude i is
 * multiplied by `table[((i >> a) & 1) | (((i >> b) & 1) << 1)]`
 * (a == b for one-qubit diagonals, so the selector is 0 or 3; the
 * parity pattern of RZZ is {f0, f1, f1, f0}). CZ sets @ref negate
 * instead: selector 3 negates the amplitude EXACTLY (sign-bit
 * flip), matching the standalone quad kernel bit-for-bit — a fused
 * CZ and an unfused one must stay interchangeable across the
 * engine's prep/suffix span boundaries.
 */
struct DiagTableGate
{
    int a = 0;
    int b = 0;
    Amp table[4] = {Amp(1, 0), Amp(1, 0), Amp(1, 0), Amp(1, 0)};
    bool negate = false;
};

/** Most bases one ipfGroup call takes: one per AVX-512 double lane. */
constexpr std::size_t kIpfLanes = 8;

/**
 * One window of a Bayesian reconstruction (mitigation/bayesian.hh):
 * a local marginal and the global bits it spans, as plain pointers
 * into the caller's LocalPmf.
 */
struct IpfWindow
{
    /** Bit i of a local outcome is global bit positions[i]. The
     * caller checks that they are distinct and below the global's
     * width (and 64). */
    const int *positions = nullptr;

    /** Number of positions, at most 30. */
    int width = 0;

    /** The local's outcome-sorted support. Outcomes at or beyond
     * 2^width are ignored; an empty local skips the window. */
    const Pmf::Entry *local = nullptr;
    std::size_t localCount = 0;
};

/** One basis of an ipfGroup call, reconstructed in place. */
struct IpfBasis
{
    /** The prior's outcome-sorted support on entry, the normalized
     * reconstruction on return; outcomes are never written. */
    Pmf::Entry *entries = nullptr;
    std::size_t count = 0;

    /** The windows of one pass, in the order they apply. */
    const IpfWindow *windows = nullptr;
    std::size_t windowCount = 0;
};

/**
 * The per-ISA kernel set. All functions are hot-loop bodies over
 * half-open ranges; the caller owns chunking and threading.
 */
struct KernelTable
{
    SimdTier tier = SimdTier::Scalar;

    /**
     * apply1Q over pair indices [k0, k1) of target qubit q: the
     * two-level unit-stride block walk (adjacent stride-2 pairs for
     * q == 0), each pair updated as
     *   lo' = m00*lo + m01*hi,  hi' = m10*lo + m11*hi
     * with the cfma/cmul rounding DAG of kernel_spec.hh.
     */
    void (*apply1q)(Amp *amps, int q, std::uint64_t k0,
                    std::uint64_t k1, const Matrix2 &m);

    /**
     * Fused diagonal sweep over amplitude indices [i0, i1): each
     * amplitude is multiplied by every gate's selected factor in
     * gate order (or sign-flipped for negate gates). Single
     * diagonal gates, the RZZ parity-table kernel, and whole fused
     * runs all route here.
     */
    void (*diagTables)(Amp *amps, std::uint64_t i0,
                       std::uint64_t i1, const DiagTableGate *gates,
                       std::size_t count);

    /** CX over quad indices [k0, k1): swap the target pair where
     * the control bit is set. Pure data movement — exact. */
    void (*cxQuads)(Amp *amps, int control, int target,
                    std::uint64_t k0, std::uint64_t k1);

    /** CZ over quad indices [k0, k1): negate amplitudes with both
     * bits set (exact sign flip). */
    void (*czQuads)(Amp *amps, int a, int b, std::uint64_t k0,
                    std::uint64_t k1);

    /** SWAP over quad indices [k0, k1). Pure data movement. */
    void (*swapQuads)(Amp *amps, int a, int b, std::uint64_t k0,
                      std::uint64_t k1);

    /**
     * Chunk partial of the squared norm over [i0, i1): 8 absolute-
     * indexed double lanes, folded ((0+1)+(2+3)) + ((4+5)+(6+7)).
     */
    double (*normChunk)(const Amp *amps, std::uint64_t i0,
                        std::uint64_t i1);

    /** out[i] = |amps[i]|^2 = fma(re, re, im*im) over [i0, i1). */
    void (*probChunk)(const Amp *amps, double *out,
                      std::uint64_t i0, std::uint64_t i1);

    /**
     * Chunk partial of <lhs|rhs> over [i0, i1): 4 absolute-indexed
     * complex lanes, folded (0+1) + (2+3).
     */
    Amp (*innerChunk)(const Amp *lhs, const Amp *rhs,
                      std::uint64_t i0, std::uint64_t i1);

    /**
     * Chunk partial of <psi|P|psi> over [i0, i1) for the Pauli
     * string with X-mask @p x, Z-mask @p z and phase i^quadrant:
     * per element, conj(amps[i^x]) * (i^quadrant * (-1)^
     * parity(i & z) * amps[i]), phase/sign applied as EXACT
     * swaps/sign flips, accumulated into the same 4 complex lanes
     * as innerChunk.
     */
    Amp (*expPauliChunk)(const Amp *amps, std::uint64_t x,
                         std::uint64_t z, int quadrant,
                         std::uint64_t i0, std::uint64_t i1);

    /**
     * The shot draws of sampling contract v2 (sim/sampling.hh):
     * advance the xoshiro256** state words @p state by exactly
     * @p shots steps and add one to tally[c] for each draw's final
     * column c of the k-column alias table (@p threshold,
     * @p alias). spec::drawShot is one shot. The result is a
     * histogram, so only the multiset of draws and the final state
     * are defined, not the order in which draws are binned. Integer
     * work only: exact in every tier.
     */
    void (*aliasDraws)(std::uint64_t state[4], std::uint64_t shots,
                       std::uint64_t k, const std::uint64_t *threshold,
                       const std::uint64_t *alias,
                       std::uint64_t *tally);

    /**
     * Bayesian reconstruction (iterative proportional fitting) of
     * @p count <= kIpfLanes independent bases, each in place:
     * @p passes sweeps over its windows, then the final normalize.
     * The scalar body is the two-pass window update of
     * mitigation/bayesian.hh, one basis after another. A basis
     * keeps its own products and sums, each in its entry order in
     * one accumulator, so every tier is bit-identical to it however
     * it places the bases: the AVX-512 tier runs a group's bases in
     * parallel lanes.
     */
    void (*ipfGroup)(const IpfBasis *bases, std::size_t count,
                     int passes);
};

/**
 * The currently installed table. Fetch ONCE per kernel call and use
 * the same reference for the whole sweep.
 */
const KernelTable &activeKernels();

/** Tier of the currently installed table. */
SimdTier activeSimdTier();

/**
 * Install the widest supported tier <= @p requested and return what
 * was actually installed (requests above the host's ceiling clamp;
 * results are bit-identical at every tier, so this never changes
 * any output). Thread-safe; in-flight kernel calls finish on the
 * table they fetched.
 */
SimdTier setSimdTier(SimdTier requested);

/**
 * Tier selected at startup: VARSAW_SIMD when set (clamped to the
 * host ceiling, with a warning when clamping), else the ceiling.
 */
SimdTier defaultSimdTier();

/** Per-tier tables, for direct tier-vs-tier testing. */
const KernelTable &kernelsFor(SimdTier tier);

namespace detail {

/** Per-TU table factories (see kernels_{scalar,avx2,avx512}.cc). */
const KernelTable &scalarTable();
const KernelTable &avx2Table();
const KernelTable &avx512Table();

/** Whether the vector TUs were built with real intrinsics. */
bool avx2Compiled();
bool avx512Compiled();

} // namespace detail

} // namespace varsaw::kern

#endif // VARSAW_SIM_KERNELS_KERNELS_HH
