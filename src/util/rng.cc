#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace varsaw {

namespace {

/** splitmix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    // All-zero state would be a fixed point; splitmix64 cannot emit
    // four zeros in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt called with n == 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

int
Rng::rademacher()
{
    return (next() & 1) ? 1 : -1;
}

Rng
Rng::forStream(std::uint64_t seed, std::uint64_t stream)
{
    return Rng(mix64(seed, stream));
}

std::uint64_t
mix64(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a + 0x9E3779B97F4A7C15ull * (b + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace varsaw
