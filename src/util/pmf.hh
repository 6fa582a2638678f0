/**
 * @file
 * Probability mass functions over measurement outcomes.
 *
 * Pmf is the central currency of the mitigation pipeline: circuit
 * execution produces a Pmf (the empirical distribution of its shots,
 * drawn by sim/sampling.hh),
 * JigSaw subsets produce marginal (local) Pmfs, and Bayesian
 * reconstruction rewrites a global Pmf to agree with the local ones.
 *
 * Outcomes are packed words: bit i corresponds to measured qubit
 * slot i. Storage is one flat vector of (outcome, p) entries kept
 * sorted by outcome, which matches both sampled histograms (support
 * bounded by shot count) and the small dense distributions produced
 * by exact simulation. Every sum, scan and draw walks the entries in
 * that order, so no result depends on a container's hashing or
 * insertion history.
 */

#ifndef VARSAW_UTIL_PMF_HH
#define VARSAW_UTIL_PMF_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace varsaw {

/** Probability mass function over packed bit-string outcomes. */
class Pmf
{
  public:
    /** One support point. */
    struct Entry
    {
        std::uint64_t outcome = 0;
        double p = 0.0;

        bool operator==(const Entry &) const = default;
    };

    Pmf() = default;

    /** Construct an all-zero PMF over @p num_bits measured bits. */
    explicit Pmf(int num_bits) : numBits_(num_bits) {}

    /**
     * Construct from a dense probability vector.
     *
     * @param num_bits Number of measured bits.
     * @param dense    Vector of length 2^num_bits; entries not above
     *                 @p prune are dropped from the support.
     */
    static Pmf fromDense(int num_bits, const std::vector<double> &dense,
                         double prune = 0.0);

    /**
     * Adopt @p entries as the support, without copying. Panics
     * unless the outcomes strictly ascend, so a kernel that rewrites
     * a copy of entries() can hand its result back without breaking
     * the sorted-support invariant.
     */
    static Pmf fromSortedEntries(int num_bits,
                                 std::vector<Entry> entries);

    /** Number of measured bits each outcome spans. */
    int numBits() const { return numBits_; }

    /** Probability of @p outcome (0 if outside the support). */
    double prob(std::uint64_t outcome) const;

    /** Set the probability of @p outcome (overwrites). */
    void set(std::uint64_t outcome, double p);

    /** Add @p p to the probability of @p outcome. */
    void accumulate(std::uint64_t outcome, double p);

    /** Number of outcomes in the support. */
    std::size_t supportSize() const { return entries_.size(); }

    /** The support, sorted by ascending outcome. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Sum of all stored probabilities. */
    double totalMass() const;

    /** Rescale so the total mass is 1 (no-op on an empty PMF). */
    void normalize();

    /** Expand into a dense vector of length 2^numBits. */
    std::vector<double> toDense() const;

    /**
     * Marginal distribution over a subset of this PMF's bits.
     *
     * @param positions Bit positions within this PMF; position
     *                  positions[i] becomes bit i of the marginal.
     *                  Panics unless checkBitPositions() accepts
     *                  them for numBits().
     */
    Pmf marginal(const std::vector<int> &positions) const;

    /**
     * Expectation of a tensor product of Z operators.
     *
     * @param mask Bits where a Z factor acts.
     * @return Sum over outcomes of p(x) * (-1)^popcount(x & mask).
     */
    double expectationParity(std::uint64_t mask) const;

    /** Most probable outcome (lowest on ties; 0 for an empty PMF). */
    std::uint64_t argmax() const;

    /** Total variation distance to another PMF on the same bits. */
    static double tvDistance(const Pmf &a, const Pmf &b);

    /**
     * Classical (Bhattacharyya-squared) fidelity between PMFs:
     * (sum_x sqrt(a(x) b(x)))^2. 1 means identical distributions.
     */
    static double fidelity(const Pmf &a, const Pmf &b);

    /** Hellinger distance: sqrt(1 - sqrt(fidelity)). */
    static double hellingerDistance(const Pmf &a, const Pmf &b);

    /** Exact equality: same width, same support, and probabilities
     *  equal under double ==. */
    bool operator==(const Pmf &) const = default;

  private:
    /** The entry for @p outcome, inserted at p = 0 if absent. */
    Entry &slot(std::uint64_t outcome);

    int numBits_ = 0;
    std::vector<Entry> entries_;
};

/**
 * Panic, naming @p who, unless every entry of @p positions is in
 * [0, num_bits), below 64, and appears once: the bit positions an
 * outcome may be shifted by when a marginal or a reconstruction
 * window gathers them. A shift by a negative count or by 64 or more
 * is undefined, and a vector shift returns 0 where a scalar one
 * need not, so such a position would also let SIMD tiers disagree.
 */
void checkBitPositions(const std::vector<int> &positions, int num_bits,
                       const char *who);

/** Print as `Pmf(<bits> bits){outcome: p, ...}` at round-trip
 *  precision (test diagnostics). */
std::ostream &operator<<(std::ostream &os, const Pmf &pmf);

} // namespace varsaw

#endif // VARSAW_UTIL_PMF_HH
