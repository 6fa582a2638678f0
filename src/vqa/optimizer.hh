/**
 * @file
 * Classical tuners for the hybrid VQA loop.
 *
 * The paper uses SPSA and ImFil (Section 5.1). Both are implemented
 * here from their published definitions:
 *
 *  - SPSA (Spall): two objective evaluations per iteration at
 *    simultaneous random +-c_k perturbations estimate the gradient
 *    regardless of dimension — the de-facto standard for noisy VQE.
 *  - Implicit Filtering (Kelley; the algorithm behind ImFil):
 *    coordinate-stencil gradient descent whose stencil radius
 *    shrinks when no stencil point improves, filtering noise at
 *    progressively finer scales.
 */

#ifndef VARSAW_VQA_OPTIMIZER_HH
#define VARSAW_VQA_OPTIMIZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace varsaw {

/** Objective function over a parameter vector (lower is better). */
using Objective = std::function<double(const std::vector<double> &)>;

/**
 * Per-iteration callback: (iteration, params, value). Return false
 * to stop the optimizer early (e.g. circuit budget exhausted).
 */
using IterCallback =
    std::function<bool(int, const std::vector<double> &, double)>;

/** Result of an optimization run. */
struct OptResult
{
    std::vector<double> bestParams;
    double bestValue = 0.0;
    int iterations = 0;
    /** Objective value observed at each iteration (not best-so-far). */
    std::vector<double> trace;
};

/** Abstract minimizer interface. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /**
     * Minimize @p f from @p x0 for at most @p max_iter iterations.
     *
     * @param cb Optional per-iteration callback; returning false
     *           stops the run (used for fixed circuit budgets).
     */
    virtual OptResult minimize(const Objective &f,
                               std::vector<double> x0, int max_iter,
                               const IterCallback &cb = {}) = 0;

    /** Human-readable optimizer name. */
    virtual std::string name() const = 0;
};

/** Simultaneous Perturbation Stochastic Approximation (Spall). */
class Spsa : public Optimizer
{
  public:
    /** SPSA gain-sequence hyperparameters. */
    struct Config
    {
        /**
         * Step-size numerator. <= 0 requests Spall's calibration:
         * a is chosen from a few probe gradient pairs at x0 so the
         * first update moves each parameter by ~targetFirstStep.
         */
        double a = 0.0;
        double c = 0.15;     //!< perturbation-size numerator
        double bigA = 10.0;  //!< step-size stability offset
        double alpha = 0.602; //!< step-size decay exponent
        double gamma = 0.101; //!< perturbation decay exponent
        /** Desired per-parameter first-step magnitude (radians). */
        double targetFirstStep = 0.25;
        /** Probe pairs used by the calibration. */
        int calibrationProbes = 4;
        /** Per-parameter per-iteration step clamp (radians). */
        double maxStep = 1.0;
        std::uint64_t seed = 7;
    };

    Spsa() : Spsa(Config()) {}
    explicit Spsa(Config config);

    OptResult minimize(const Objective &f, std::vector<double> x0,
                       int max_iter, const IterCallback &cb) override;

    std::string name() const override { return "spsa"; }

  private:
    Config config_;
};

/** Implicit Filtering (the ImFil algorithm). */
class ImplicitFiltering : public Optimizer
{
  public:
    /** Stencil-search hyperparameters. */
    struct Config
    {
        double initialStep = 0.4; //!< initial stencil radius
        double shrink = 0.5;      //!< radius multiplier on stall
        double minStep = 1e-3;    //!< terminate below this radius
        double gradientStep = 1.0; //!< line-step scale along -grad
    };

    ImplicitFiltering() : ImplicitFiltering(Config()) {}
    explicit ImplicitFiltering(Config config);

    OptResult minimize(const Objective &f, std::vector<double> x0,
                       int max_iter, const IterCallback &cb) override;

    std::string name() const override { return "imfil"; }

  private:
    Config config_;
};

} // namespace varsaw

#endif // VARSAW_VQA_OPTIMIZER_HH
