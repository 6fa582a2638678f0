/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (shot sampling, SPSA
 * perturbations, synthetic Hamiltonian construction, noise-model
 * presets) draw from this generator so that every experiment is
 * reproducible from a single seed.
 */

#ifndef VARSAW_UTIL_RNG_HH
#define VARSAW_UTIL_RNG_HH

#include <array>
#include <cstdint>

namespace varsaw {

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Small, fast, high-quality, and fully deterministic given a seed.
 * The state is seeded through splitmix64 so that nearby seeds give
 * uncorrelated streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** The four xoshiro256** state words. */
    using State = std::array<std::uint64_t, 4>;

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * The generator's state words. Shot sampling hands them to the
     * draw kernel (sim/kernels), which steps its own copy of the
     * generator, and writes the advanced state back with setState.
     */
    State state() const { return s_; }

    /** Replace the state words (the cached normal is kept). */
    void setState(const State &state) { s_ = state; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) for n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Rademacher variate: +1 or -1 with equal probability. */
    int rademacher();

    /**
     * Deterministic stream generator: an Rng seeded purely by
     * (base seed, stream id), independent of any generator state.
     * Parallel runtimes use this to give every job its own stream so
     * results do not depend on execution order or thread count.
     */
    static Rng forStream(std::uint64_t seed, std::uint64_t stream);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    State s_;
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

/**
 * Strong 64-bit mix of two words (splitmix64 finalizer over a
 * golden-ratio combination). Used to derive stream seeds and to
 * combine structural hashes; nearby inputs give uncorrelated
 * outputs.
 */
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

} // namespace varsaw

#endif // VARSAW_UTIL_RNG_HH
