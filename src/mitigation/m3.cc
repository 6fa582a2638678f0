#include "mitigation/m3.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mitigation/mbm.hh"
#include "util/logging.hh"

namespace varsaw {

M3Mitigator::M3Mitigator(std::vector<ReadoutError> errors)
    : errors_(std::move(errors))
{
    if (errors_.empty())
        panic("M3Mitigator: need at least one qubit");
}

M3Mitigator
M3Mitigator::calibrate(Executor &executor, int num_qubits,
                       std::uint64_t shots)
{
    MbmCalibration cal =
        MbmCalibration::calibrate(executor, num_qubits, shots);
    return M3Mitigator(cal.errors());
}

double
M3Mitigator::transitionProbability(std::uint64_t s,
                                   std::uint64_t t) const
{
    double p = 1.0;
    for (std::size_t q = 0; q < errors_.size(); ++q) {
        const int sq = static_cast<int>((s >> q) & 1ull);
        const int tq = static_cast<int>((t >> q) & 1ull);
        const double p01 = errors_[q].p01;
        const double p10 = errors_[q].p10;
        if (tq == 0)
            p *= sq == 0 ? 1.0 - p01 : p01;
        else
            p *= sq == 1 ? 1.0 - p10 : p10;
        if (p == 0.0)
            return 0.0;
    }
    return p;
}

Pmf
M3Mitigator::apply(const Pmf &measured,
                   std::size_t direct_limit) const
{
    const std::size_t n = measured.supportSize();
    if (n == 0)
        return measured;

    std::vector<std::uint64_t> outcomes;
    std::vector<double> p;
    outcomes.reserve(n);
    p.reserve(n);
    for (const Pmf::Entry &e : measured.entries()) {
        outcomes.push_back(e.outcome);
        p.push_back(e.p);
    }

    // Restricted transition matrix A(s, t), column-normalized over
    // the subspace so probability leaking to unobserved outcomes is
    // reassigned proportionally (the M3 convention).
    std::vector<double> a(n * n);
    for (std::size_t col = 0; col < n; ++col) {
        double col_sum = 0.0;
        for (std::size_t row = 0; row < n; ++row) {
            a[row * n + col] =
                transitionProbability(outcomes[row], outcomes[col]);
            col_sum += a[row * n + col];
        }
        if (col_sum > 0.0)
            for (std::size_t row = 0; row < n; ++row)
                a[row * n + col] /= col_sum;
    }

    std::vector<double> x = p;
    if (n <= direct_limit) {
        // Gaussian elimination with partial pivoting on [A | p].
        std::vector<double> m = a;
        std::vector<double> rhs = p;
        std::vector<std::size_t> perm(n);
        for (std::size_t i = 0; i < n; ++i)
            perm[i] = i;
        bool singular = false;
        for (std::size_t col = 0; col < n && !singular; ++col) {
            std::size_t pivot = col;
            for (std::size_t row = col + 1; row < n; ++row)
                if (std::abs(m[row * n + col]) >
                    std::abs(m[pivot * n + col]))
                    pivot = row;
            if (std::abs(m[pivot * n + col]) < 1e-14) {
                singular = true;
                break;
            }
            if (pivot != col) {
                for (std::size_t k = 0; k < n; ++k)
                    std::swap(m[pivot * n + k], m[col * n + k]);
                std::swap(rhs[pivot], rhs[col]);
            }
            for (std::size_t row = col + 1; row < n; ++row) {
                const double factor =
                    m[row * n + col] / m[col * n + col];
                if (factor == 0.0)
                    continue;
                for (std::size_t k = col; k < n; ++k)
                    m[row * n + k] -= factor * m[col * n + k];
                rhs[row] -= factor * rhs[col];
            }
        }
        if (!singular) {
            for (std::size_t i = n; i-- > 0;) {
                double acc = rhs[i];
                for (std::size_t k = i + 1; k < n; ++k)
                    acc -= m[i * n + k] * x[k];
                x[i] = acc / m[i * n + i];
            }
        } else {
            warn("M3Mitigator: singular restricted matrix; "
                 "falling back to iteration");
        }
    }
    if (n > direct_limit) {
        // Richardson iteration x <- x + (p - A x); converges since
        // the column-normalized A is close to the identity for
        // realistic readout errors.
        x = p;
        std::vector<double> ax(n);
        for (int iter = 0; iter < 100; ++iter) {
            std::fill(ax.begin(), ax.end(), 0.0);
            for (std::size_t col = 0; col < n; ++col)
                for (std::size_t row = 0; row < n; ++row)
                    ax[row] += a[row * n + col] * x[col];
            double residual = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double r = p[i] - ax[i];
                x[i] += r;
                residual += std::abs(r);
            }
            if (residual < 1e-12)
                break;
        }
    }

    Pmf out(measured.numBits());
    for (std::size_t i = 0; i < n; ++i)
        if (x[i] > 0.0)
            out.set(outcomes[i], x[i]);
    out.normalize();
    return out;
}

} // namespace varsaw
