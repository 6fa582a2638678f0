/**
 * @file
 * Tests for the spatial plan (Section 4.1) and the Fig. 12 subset
 * counting.
 */

#include <gtest/gtest.h>

#include "chem/molecules.hh"
#include "core/spatial.hh"

namespace varsaw {
namespace {

Hamiltonian
fig6Hamiltonian()
{
    Hamiltonian h(4, "fig6");
    for (const char *text : {"ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ",
                             "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX"})
        h.addTerm(text, 1.0);
    return h;
}

TEST(SpatialPlan, Fig6EndToEndCounts)
{
    const auto plan = buildSpatialPlan(fig6Hamiltonian(), 2);
    EXPECT_EQ(plan.bases.bases.size(), 7u);     // Eq. 2
    EXPECT_EQ(plan.executedSubsets.size(), 9u); // Eq. 4
}

TEST(SpatialPlan, EveryBindingActuallyCovers)
{
    const auto plan = buildSpatialPlan(fig6Hamiltonian(), 2);
    for (const auto &bw : plan.basisWindows)
        for (const auto &binding : bw) {
            const auto &cover =
                plan.executedSubsets[binding.coverIndex];
            EXPECT_TRUE(binding.window.coveredBy(cover))
                << binding.window.toSubsetString() << " vs "
                << cover.toSubsetString();
        }
}

TEST(SpatialPlan, MarginalPositionsConsistent)
{
    const auto plan = buildSpatialPlan(fig6Hamiltonian(), 2);
    for (const auto &bw : plan.basisWindows)
        for (const auto &binding : bw) {
            const auto cover_support =
                plan.executedSubsets[binding.coverIndex].support();
            ASSERT_EQ(binding.globalPositions.size(),
                      binding.marginalPositions.size());
            for (std::size_t i = 0;
                 i < binding.globalPositions.size(); ++i) {
                EXPECT_EQ(cover_support[binding.marginalPositions[i]],
                          binding.globalPositions[i]);
            }
        }
}

TEST(SpatialPlan, WindowCountPerBasisMatchesSubsetting)
{
    const auto h = fig6Hamiltonian();
    const auto plan = buildSpatialPlan(h, 2);
    for (std::size_t b = 0; b < plan.bases.bases.size(); ++b)
        EXPECT_EQ(plan.basisWindows[b].size(),
                  windowSubsets(plan.bases.bases[b], 2).size());
}

/** plan.marginals is duplicate-free and every binding's
 * marginalIndex names its own (coverIndex, marginalPositions). */
void
expectSharedMarginals(const SpatialPlan &plan)
{
    for (std::size_t i = 0; i < plan.marginals.size(); ++i)
        for (std::size_t j = i + 1; j < plan.marginals.size(); ++j)
            EXPECT_FALSE(plan.marginals[i].coverIndex ==
                             plan.marginals[j].coverIndex &&
                         plan.marginals[i].positions ==
                             plan.marginals[j].positions)
                << i << " duplicates " << j;
    for (const auto &bw : plan.basisWindows)
        for (const auto &binding : bw) {
            ASSERT_LT(binding.marginalIndex, plan.marginals.size());
            const auto &m = plan.marginals[binding.marginalIndex];
            EXPECT_EQ(m.coverIndex, binding.coverIndex);
            EXPECT_EQ(m.positions, binding.marginalPositions);
        }
}

std::size_t
bindingCount(const SpatialPlan &plan)
{
    std::size_t n = 0;
    for (const auto &bw : plan.basisWindows)
        n += bw.size();
    return n;
}

TEST(SpatialPlan, SharedMarginalsAreDistinctAndResolve)
{
    const auto fig6 = buildSpatialPlan(fig6Hamiltonian(), 2);
    expectSharedMarginals(fig6);

    const auto h6 = buildSpatialPlan(molecule("H6-10"), 2);
    expectSharedMarginals(h6);
    EXPECT_EQ(h6.marginals.size(), 103u);
    EXPECT_EQ(bindingCount(h6), 5848u);

    const auto ch4 = buildSpatialPlan(molecule("CH4-6"), 2);
    expectSharedMarginals(ch4);
    EXPECT_EQ(ch4.marginals.size(), 54u);
    EXPECT_EQ(bindingCount(ch4), 284u);
}

TEST(SpatialPlan, SummaryRenders)
{
    const auto plan = buildSpatialPlan(fig6Hamiltonian(), 2);
    EXPECT_NE(plan.summary().find("9 executed subsets"),
              std::string::npos);
}

TEST(SubsetCounts, Fig6Ratios)
{
    const auto counts = countSubsets(fig6Hamiltonian(), 2);
    EXPECT_EQ(counts.baselineBases, 7u);
    EXPECT_EQ(counts.jigsawSubsets, 21u);
    EXPECT_EQ(counts.varsawSubsets, 9u);
    EXPECT_NEAR(counts.jigsawRatio(), 3.0, 1e-12);
    EXPECT_NEAR(counts.reductionRatio(), 21.0 / 9.0, 1e-12);
}

TEST(SubsetCounts, VarsawNeverWorseThanJigsaw)
{
    for (const char *name : {"H2-4", "H2O-6", "CH4-6", "LiH-8"}) {
        Hamiltonian h = molecule(name);
        const auto counts = countSubsets(h, 2);
        EXPECT_LE(counts.varsawSubsets, counts.jigsawSubsets) << name;
        EXPECT_GE(counts.reductionRatio(), 1.0) << name;
    }
}

TEST(SubsetCounts, VarsawBoundedByNineWindowsPerPosition)
{
    // Unique non-dominated 2-windows: at most 9 full X/Z/Y pairs
    // per adjacent position (plus possibly undominated singles).
    for (const char *name : {"H2O-6", "CH4-8", "H6-10"}) {
        Hamiltonian h = molecule(name);
        const auto counts = countSubsets(h, 2);
        EXPECT_LE(counts.varsawSubsets,
                  static_cast<std::size_t>(
                      10 * (h.numQubits() - 1)))
            << name;
    }
}

TEST(SubsetCounts, ReductionGrowsWithProblemSize)
{
    // The paper's key scalability claim (Fig. 12): the
    // VarSaw-vs-JigSaw reduction ratio grows with the molecule.
    const auto small = countSubsets(molecule("H2-4"), 2);
    const auto medium = countSubsets(molecule("CH4-8"), 2);
    const auto large = countSubsets(molecule("H6-10"), 2);
    EXPECT_GT(medium.reductionRatio(), small.reductionRatio());
    EXPECT_GT(large.reductionRatio(), medium.reductionRatio());
}

TEST(SpatialPlan, LargerWindowsAlsoPlan)
{
    const auto plan3 = buildSpatialPlan(fig6Hamiltonian(), 3);
    EXPECT_GT(plan3.executedSubsets.size(), 0u);
    for (const auto &s : plan3.executedSubsets)
        EXPECT_LE(s.weight(), 3);
}

} // namespace
} // namespace varsaw
