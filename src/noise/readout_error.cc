#include "noise/readout_error.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace varsaw {

ReadoutError
ReadoutError::scaled(double factor) const
{
    ReadoutError e;
    e.p01 = std::min(0.5, p01 * factor);
    e.p10 = std::min(0.5, p10 * factor);
    return e;
}

void
applyReadoutConfusion(std::vector<double> &probs,
                      const std::vector<ReadoutError> &errors)
{
    const std::size_t dim = probs.size();
    if (dim != (1ull << errors.size()))
        panic("applyReadoutConfusion: dimension mismatch");

    for (std::size_t q = 0; q < errors.size(); ++q) {
        const double p01 = errors[q].p01;
        const double p10 = errors[q].p10;
        const std::size_t bit = 1ull << q;
        // Pairs (i, i | bit) with bit clear in i: blocks of 2·bit,
        // whose lower halves hold every such i once.
        for (std::size_t base = 0; base < dim; base += 2 * bit) {
            for (std::size_t i = base; i < base + bit; ++i) {
                const double v0 = probs[i];
                const double v1 = probs[i | bit];
                probs[i] = (1.0 - p01) * v0 + p10 * v1;
                probs[i | bit] = p01 * v0 + (1.0 - p10) * v1;
            }
        }
    }
}

bool
applyInverseReadoutConfusion(std::vector<double> &probs,
                             const std::vector<ReadoutError> &errors)
{
    const std::size_t dim = probs.size();
    if (dim != (1ull << errors.size()))
        panic("applyInverseReadoutConfusion: dimension mismatch");

    for (std::size_t q = 0; q < errors.size(); ++q) {
        const double p01 = errors[q].p01;
        const double p10 = errors[q].p10;
        const double det = 1.0 - p01 - p10;
        if (std::abs(det) < 1e-12)
            return false;
        // Inverse of [[1-p01, p10], [p01, 1-p10]] / det.
        const double inv00 = (1.0 - p10) / det;
        const double inv01 = -p10 / det;
        const double inv10 = -p01 / det;
        const double inv11 = (1.0 - p01) / det;
        const std::size_t bit = 1ull << q;
        for (std::size_t base = 0; base < dim; base += 2 * bit) {
            for (std::size_t i = base; i < base + bit; ++i) {
                const double v0 = probs[i];
                const double v1 = probs[i | bit];
                probs[i] = inv00 * v0 + inv01 * v1;
                probs[i | bit] = inv10 * v0 + inv11 * v1;
            }
        }
    }
    return true;
}

double
crosstalkFactor(int num_measured, double slope)
{
    if (num_measured <= 1)
        return 1.0;
    return 1.0 + slope * static_cast<double>(num_measured - 1);
}

} // namespace varsaw
