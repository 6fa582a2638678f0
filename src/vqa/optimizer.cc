#include "vqa/optimizer.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"

namespace varsaw {

Spsa::Spsa(Config config) : config_(config)
{
}

OptResult
Spsa::minimize(const Objective &f, std::vector<double> x0, int max_iter,
               const IterCallback &cb)
{
    const std::size_t dim = x0.size();
    if (dim == 0)
        panic("Spsa::minimize: empty parameter vector");

    Rng rng(config_.seed);
    OptResult result;
    result.bestParams = x0;
    result.bestValue = f(x0);
    result.trace.reserve(max_iter);

    std::vector<double> x = std::move(x0);
    std::vector<int> delta(dim);

    // Spall's a-calibration: probe |f(x+c d) - f(x-c d)| / (2c) a few
    // times and size a so the first step moves ~targetFirstStep.
    double a = config_.a;
    if (a <= 0.0) {
        double magnitude = 0.0;
        const int probes = std::max(1, config_.calibrationProbes);
        for (int p = 0; p < probes; ++p) {
            std::vector<double> xp = x, xm = x;
            for (std::size_t i = 0; i < dim; ++i) {
                const int d = rng.rademacher();
                xp[i] += config_.c * d;
                xm[i] -= config_.c * d;
            }
            magnitude +=
                std::abs(f(xp) - f(xm)) / (2.0 * config_.c);
        }
        magnitude /= probes;
        if (magnitude < 1e-10)
            magnitude = 1e-10;
        a = config_.targetFirstStep *
            std::pow(config_.bigA + 1.0, config_.alpha) / magnitude;
    }

    for (int k = 0; k < max_iter; ++k) {
        const double ck =
            config_.c / std::pow(k + 1.0, config_.gamma);
        const double ak =
            a / std::pow(k + 1.0 + config_.bigA, config_.alpha);

        for (auto &d : delta)
            d = rng.rademacher();

        std::vector<double> x_plus = x, x_minus = x;
        for (std::size_t i = 0; i < dim; ++i) {
            x_plus[i] += ck * delta[i];
            x_minus[i] -= ck * delta[i];
        }
        const double f_plus = f(x_plus);
        const double f_minus = f(x_minus);
        const double diff = (f_plus - f_minus) / (2.0 * ck);

        for (std::size_t i = 0; i < dim; ++i) {
            double update = ak * diff / static_cast<double>(delta[i]);
            // Trust region: a single shot-noise spike must not throw
            // the iterate across the landscape.
            update = std::clamp(update, -config_.maxStep,
                                config_.maxStep);
            x[i] -= update;
        }

        // Track the better of the two probes as this iteration's
        // observed value; evaluating f(x) separately would cost an
        // extra energy estimate (circuits) per iteration.
        const double observed = std::min(f_plus, f_minus);
        const auto &observed_at = f_plus <= f_minus ? x_plus : x_minus;
        result.trace.push_back(observed);
        if (observed < result.bestValue) {
            result.bestValue = observed;
            result.bestParams = observed_at;
        }
        result.iterations = k + 1;

        if (cb && !cb(k, x, observed))
            break;
    }
    return result;
}

ImplicitFiltering::ImplicitFiltering(Config config) : config_(config)
{
}

OptResult
ImplicitFiltering::minimize(const Objective &f, std::vector<double> x0,
                            int max_iter, const IterCallback &cb)
{
    const std::size_t dim = x0.size();
    if (dim == 0)
        panic("ImplicitFiltering::minimize: empty parameter vector");

    OptResult result;
    std::vector<double> x = std::move(x0);
    double fx = f(x);
    result.bestParams = x;
    result.bestValue = fx;
    result.trace.reserve(max_iter);

    double h = config_.initialStep;

    for (int k = 0; k < max_iter && h >= config_.minStep; ++k) {
        // Central-difference stencil gradient at radius h; remember
        // the best stencil point seen on the way.
        std::vector<double> grad(dim, 0.0);
        double best_stencil = fx;
        std::vector<double> best_point = x;
        for (std::size_t i = 0; i < dim; ++i) {
            std::vector<double> xp = x, xm = x;
            xp[i] += h;
            xm[i] -= h;
            const double fp = f(xp);
            const double fm = f(xm);
            grad[i] = (fp - fm) / (2.0 * h);
            if (fp < best_stencil) {
                best_stencil = fp;
                best_point = xp;
            }
            if (fm < best_stencil) {
                best_stencil = fm;
                best_point = xm;
            }
        }

        // Line step along the negative stencil gradient, backtracking
        // until improvement (or fall back to the best stencil point).
        double norm2 = 0.0;
        for (double g : grad)
            norm2 += g * g;
        bool moved = false;
        if (norm2 > 0.0) {
            double step = config_.gradientStep * h /
                std::sqrt(norm2);
            for (int bt = 0; bt < 3 && !moved; ++bt) {
                std::vector<double> cand = x;
                for (std::size_t i = 0; i < dim; ++i)
                    cand[i] -= step * grad[i];
                const double fc = f(cand);
                if (fc < fx) {
                    x = std::move(cand);
                    fx = fc;
                    moved = true;
                } else {
                    step *= 0.5;
                }
            }
        }
        if (!moved && best_stencil < fx) {
            x = best_point;
            fx = best_stencil;
            moved = true;
        }
        if (!moved)
            h *= config_.shrink; // stencil failure: refine the scale

        result.trace.push_back(fx);
        if (fx < result.bestValue) {
            result.bestValue = fx;
            result.bestParams = x;
        }
        result.iterations = k + 1;

        if (cb && !cb(k, x, fx))
            break;
    }
    return result;
}

} // namespace varsaw
