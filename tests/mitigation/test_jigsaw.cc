/**
 * @file
 * Tests for the JigSaw pipeline's circuits: Globals, CPMs and the
 * suffix sets JigsawEstimator submits. Cost accounting and
 * mitigation quality on a noisy device (the mechanism behind
 * Table 1) are checked on JigsawEstimator itself, in
 * tests/vqa/test_estimator.cc.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mitigation/executor.hh"
#include "mitigation/jigsaw.hh"

namespace varsaw {
namespace {

Circuit
ghzPrep(int n)
{
    Circuit c(n, "ghz");
    c.h(0);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    return c;
}

TEST(JigsawCircuits, GlobalMeasuresEverything)
{
    Circuit g = makeGlobalCircuit(ghzPrep(3),
                                  PauliString::parse("ZZZ"));
    EXPECT_EQ(g.numMeasured(), 3);
    // Z basis: no extra rotations beyond the 3 prep gates.
    EXPECT_EQ(g.ops().size(), 3u);
}

TEST(JigsawCircuits, GlobalAddsBasisRotations)
{
    Circuit g = makeGlobalCircuit(ghzPrep(3),
                                  PauliString::parse("XZY"));
    // prep(3) + H on q0 + (Sdg, H) on q2.
    EXPECT_EQ(g.ops().size(), 6u);
}

TEST(JigsawCircuits, SubsetMeasuresOnlySupport)
{
    Circuit s = makeSubsetCircuit(ghzPrep(4),
                                  PauliString::parse("-ZZ-"));
    EXPECT_EQ(s.measuredQubits(), (std::vector<int>{1, 2}));
}

TEST(JigsawCircuits, SubsetRotationsOnlyOnSupport)
{
    Circuit s = makeSubsetCircuit(ghzPrep(4),
                                  PauliString::parse("-XX-"));
    // prep has 4 gates; two H rotations added for the two X's.
    EXPECT_EQ(s.ops().size(), 6u);
}

TEST(JigsawCircuits, SuffixesMeasureTheirWindows)
{
    // reconstructJigsaw places subset PMF w at windows[w].support(),
    // so each CPM suffix must read exactly those qubits, in order.
    const JigsawCircuitSet set =
        makeJigsawSuffixes(PauliString::parse("ZXZY"), 2);
    ASSERT_EQ(set.subsetCircuits.size(), set.windows.size());
    for (std::size_t w = 0; w < set.windows.size(); ++w)
        EXPECT_EQ(set.subsetCircuits[w].measuredQubits(),
                  set.windows[w].support());
    EXPECT_EQ(set.globalCircuit.numMeasured(), 4);

    // Over a GHZ prep, the "--ZZ" window reads qubits 2 and 3,
    // which are perfectly correlated.
    IdealExecutor exec;
    const CircuitJob job{makeSubsetSuffix(PauliString::parse("--ZZ")),
                         {}, 0,
                         std::make_shared<const Circuit>(ghzPrep(4))};
    EXPECT_EQ(job.measuredQubits(), (std::vector<int>{2, 3}));
    const Pmf pmf = exec.tryExecuteJob(job.view(), 0).value();
    EXPECT_NEAR(pmf.prob(0b00), 0.5, 1e-12);
    EXPECT_NEAR(pmf.prob(0b11), 0.5, 1e-12);
}

} // namespace
} // namespace varsaw
