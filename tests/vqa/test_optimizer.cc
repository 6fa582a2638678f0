/**
 * @file
 * Tests for the classical tuners (SPSA, Implicit Filtering).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hh"
#include "vqa/optimizer.hh"

namespace varsaw {
namespace {

/** Convex quadratic with minimum value 0 at (1, -2, 0.5, ...). */
double
quadratic(const std::vector<double> &x)
{
    static const double target[] = {1.0, -2.0, 0.5, 3.0, -1.0};
    double total = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - target[i % 5];
        total += d * d;
    }
    return total;
}

TEST(Spsa, ConvergesOnSmoothQuadratic)
{
    Spsa spsa;
    OptResult res =
        spsa.minimize(quadratic, {0, 0, 0, 0}, 800, {});
    EXPECT_LT(res.bestValue, 0.05);
}

TEST(Spsa, ConvergesOnNoisyQuadratic)
{
    Rng rng(2);
    Objective noisy = [&](const std::vector<double> &x) {
        return quadratic(x) + rng.normal(0.0, 0.05);
    };
    Spsa spsa;
    OptResult res = spsa.minimize(noisy, {0, 0, 0}, 1000, {});
    // Best observed value includes noise; verify the parameters.
    EXPECT_LT(quadratic(res.bestParams), 0.5);
}

TEST(Spsa, DeterministicForFixedSeed)
{
    Spsa::Config config;
    config.seed = 99;
    Spsa a(config), b(config);
    OptResult ra = a.minimize(quadratic, {0, 0}, 50, {});
    OptResult rb = b.minimize(quadratic, {0, 0}, 50, {});
    EXPECT_EQ(ra.bestParams, rb.bestParams);
    EXPECT_EQ(ra.trace, rb.trace);
}

TEST(Spsa, CallbackReceivesEveryIteration)
{
    Spsa spsa;
    int calls = 0;
    spsa.minimize(quadratic, {0, 0}, 25,
                  [&](int iter, const std::vector<double> &, double) {
                      EXPECT_EQ(iter, calls);
                      ++calls;
                      return true;
                  });
    EXPECT_EQ(calls, 25);
}

TEST(Spsa, CallbackStopsEarly)
{
    Spsa spsa;
    OptResult res = spsa.minimize(
        quadratic, {0, 0}, 1000,
        [](int iter, const std::vector<double> &, double) {
            return iter < 9;
        });
    EXPECT_EQ(res.iterations, 10);
    EXPECT_EQ(res.trace.size(), 10u);
}

TEST(Spsa, TwoEvaluationsPerIterationWithFixedA)
{
    int evals = 0;
    Objective counting = [&](const std::vector<double> &x) {
        ++evals;
        return quadratic(x);
    };
    Spsa::Config config;
    config.a = 0.2; // disable calibration probes
    Spsa spsa(config);
    spsa.minimize(counting, {0, 0}, 20, {});
    // 1 initial evaluation + 2 per iteration.
    EXPECT_EQ(evals, 1 + 2 * 20);
}

TEST(Spsa, CalibrationAddsProbeEvaluations)
{
    int evals = 0;
    Objective counting = [&](const std::vector<double> &x) {
        ++evals;
        return quadratic(x);
    };
    Spsa::Config config;
    config.a = 0.0; // auto-calibrate
    config.calibrationProbes = 4;
    Spsa spsa(config);
    spsa.minimize(counting, {0, 0}, 20, {});
    // initial + 2 per probe + 2 per iteration.
    EXPECT_EQ(evals, 1 + 2 * 4 + 2 * 20);
}

TEST(Spsa, CalibratedFirstStepNearTarget)
{
    Spsa::Config config;
    config.a = 0.0;
    config.targetFirstStep = 0.3;
    Spsa spsa(config);
    std::vector<double> first_x;
    spsa.minimize(quadratic, {0, 0},
                  1,
                  [&](int, const std::vector<double> &x, double) {
                      first_x = x;
                      return true;
                  });
    ASSERT_EQ(first_x.size(), 2u);
    for (double xi : first_x)
        EXPECT_LT(std::abs(xi), 3 * 0.3 + 0.2); // same order as target
}

TEST(ImplicitFiltering, ConvergesOnQuadratic)
{
    ImplicitFiltering imfil;
    OptResult res = imfil.minimize(quadratic, {0, 0, 0}, 200, {});
    EXPECT_LT(res.bestValue, 1e-3);
}

TEST(ImplicitFiltering, StencilShrinksOnPlateau)
{
    // Constant objective: no stencil point ever improves, so the
    // run terminates when the radius hits the floor.
    Objective flat = [](const std::vector<double> &) { return 1.0; };
    ImplicitFiltering imfil;
    OptResult res = imfil.minimize(flat, {0, 0}, 10000, {});
    EXPECT_LT(res.iterations, 100);
    EXPECT_DOUBLE_EQ(res.bestValue, 1.0);
}

TEST(ImplicitFiltering, HandlesNoisyObjective)
{
    Rng rng(7);
    Objective noisy = [&](const std::vector<double> &x) {
        return quadratic(x) + rng.normal(0.0, 0.02);
    };
    ImplicitFiltering imfil;
    OptResult res = imfil.minimize(noisy, {0.5, -1.0}, 300, {});
    EXPECT_LT(quadratic(res.bestParams), 0.5);
}

TEST(ImplicitFiltering, CallbackStopsEarly)
{
    ImplicitFiltering imfil;
    OptResult res = imfil.minimize(
        quadratic, {0, 0}, 500,
        [](int iter, const std::vector<double> &, double) {
            return iter < 4;
        });
    EXPECT_EQ(res.iterations, 5);
}

TEST(Optimizer, Names)
{
    EXPECT_EQ(Spsa().name(), "spsa");
    EXPECT_EQ(ImplicitFiltering().name(), "imfil");
}

/** Property sweep: SPSA improves from random starts. */
class SpsaImprovement : public ::testing::TestWithParam<int>
{
};

TEST_P(SpsaImprovement, FinalBeatsInitial)
{
    Rng rng(400 + GetParam());
    std::vector<double> x0(4);
    for (auto &x : x0)
        x = rng.uniform(-3, 3);
    const double initial = quadratic(x0);
    Spsa::Config config;
    config.seed = 500 + GetParam();
    Spsa spsa(config);
    OptResult res = spsa.minimize(quadratic, x0, 300, {});
    EXPECT_LT(res.bestValue, initial);
}

INSTANTIATE_TEST_SUITE_P(RandomStarts, SpsaImprovement,
                         ::testing::Range(0, 8));

} // namespace
} // namespace varsaw
