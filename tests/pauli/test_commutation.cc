/**
 * @file
 * Commutation tests, pinned to the paper's worked examples:
 * Fig. 6 (10 terms -> 7 bases) and Fig. 7 (covering-family sizes
 * over the 27 X/Z/I 3-qubit strings).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pauli/commutation.hh"

namespace varsaw {
namespace {

/** The 10-term Hamiltonian of Fig. 6, Eq. 1. */
std::vector<PauliString>
fig6Hamiltonian()
{
    std::vector<PauliString> strings;
    for (const char *text : {"ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ",
                             "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX"})
        strings.push_back(PauliString::parse(text));
    return strings;
}

TEST(CoverReduce, Fig6TenTermsToSevenBases)
{
    const auto reduction = coverReduce(fig6Hamiltonian());
    EXPECT_EQ(reduction.bases.size(), 7u);

    // Eq. 2 lists exactly these seven circuits.
    std::vector<std::string> got;
    for (const auto &b : reduction.bases)
        got.push_back(b.toString());
    std::sort(got.begin(), got.end());
    std::vector<std::string> expected = {"IXZZ", "XIZZ", "XXIX",
                                         "XZIZ", "ZIZX", "ZXXZ",
                                         "ZZIZ"};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
}

TEST(CoverReduce, Fig6EveryTermAssignedToCoveringBasis)
{
    const auto strings = fig6Hamiltonian();
    const auto reduction = coverReduce(strings);
    ASSERT_EQ(reduction.termToBasis.size(), strings.size());
    for (std::size_t t = 0; t < strings.size(); ++t) {
        const auto &basis = reduction.bases[reduction.termToBasis[t]];
        EXPECT_TRUE(strings[t].coveredBy(basis))
            << strings[t].toString() << " not covered by "
            << basis.toString();
    }
}

TEST(CoverReduce, BasisTermsPartitionInput)
{
    const auto strings = fig6Hamiltonian();
    const auto reduction = coverReduce(strings);
    std::size_t assigned = 0;
    for (const auto &terms : reduction.basisTerms)
        assigned += terms.size();
    EXPECT_EQ(assigned, strings.size());
}

TEST(CoverReduce, DuplicatesCollapse)
{
    std::vector<PauliString> strings = {
        PauliString::parse("ZZ"), PauliString::parse("ZZ"),
        PauliString::parse("ZZ")};
    const auto reduction = coverReduce(strings);
    EXPECT_EQ(reduction.bases.size(), 1u);
    EXPECT_EQ(reduction.basisTerms[0].size(), 3u);
}

TEST(CoverReduce, IncomparableStringsStaySeparate)
{
    std::vector<PauliString> strings = {
        PauliString::parse("XX"), PauliString::parse("ZZ"),
        PauliString::parse("XZ"), PauliString::parse("ZX")};
    const auto reduction = coverReduce(strings);
    EXPECT_EQ(reduction.bases.size(), 4u);
}

TEST(GroupQubitWise, MergesCompatibleStrings)
{
    // XZIZ and XIZZ conflict nowhere, so greedy merging joins them
    // into XZZZ (the stronger reduction the paper scopes out).
    std::vector<PauliString> strings = {
        PauliString::parse("XZIZ"), PauliString::parse("XIZZ")};
    const auto grouped = groupQubitWise(strings);
    EXPECT_EQ(grouped.bases.size(), 1u);
    EXPECT_EQ(grouped.bases[0].toString(), "XZZZ");
}

TEST(GroupQubitWise, AtLeastAsStrongAsCoverReduce)
{
    const auto strings = fig6Hamiltonian();
    const auto covered = coverReduce(strings);
    const auto grouped = groupQubitWise(strings);
    EXPECT_LE(grouped.bases.size(), covered.bases.size());
    // Every term must be covered by its merged basis.
    for (std::size_t t = 0; t < strings.size(); ++t)
        EXPECT_TRUE(strings[t].coveredBy(
            grouped.bases[grouped.termToBasis[t]]));
}

TEST(CommutationFamily, Fig7FamilySizes)
{
    // The 27 3-qubit strings over {X, Z, I}.
    const auto family = enumerateStrings(
        3, {PauliOp::I, PauliOp::X, PauliOp::Z});
    ASSERT_EQ(family.size(), 27u);

    // Fig. 7's arrow counts: III -> 26, IIZ -> 8, IZZ -> 2, ZZZ -> 0.
    EXPECT_EQ(countCoveringParents(PauliString::parse("III"), family),
              26);
    EXPECT_EQ(countCoveringParents(PauliString::parse("IIZ"), family),
              8);
    EXPECT_EQ(countCoveringParents(PauliString::parse("IZZ"), family),
              2);
    EXPECT_EQ(countCoveringParents(PauliString::parse("ZZZ"), family),
              0);
}

TEST(CommutationFamily, FullWeightStringsHaveNoParents)
{
    const auto family = enumerateStrings(
        2, {PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z});
    ASSERT_EQ(family.size(), 16u);
    for (const auto &p : family)
        if (p.weight() == 2) {
            EXPECT_EQ(countCoveringParents(p, family), 0);
        }
}

TEST(CommutationFamily, ParentCountFormula)
{
    // Over the full I/X/Y/Z alphabet, a string of weight w over n
    // qubits has 4^(n-w) - 1 covering parents: free positions take
    // any operator, fixed ones must match.
    const auto family = enumerateStrings(
        3, {PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z});
    for (const auto &p : family) {
        const int free = 3 - p.weight();
        int expected = 1;
        for (int i = 0; i < free; ++i)
            expected *= 4;
        EXPECT_EQ(countCoveringParents(p, family), expected - 1)
            << p.toString();
    }
}

TEST(EnumerateStrings, CountsMatchAlphabetPower)
{
    EXPECT_EQ(enumerateStrings(2, {PauliOp::I, PauliOp::Z}).size(), 4u);
    EXPECT_EQ(enumerateStrings(
                  4, {PauliOp::I, PauliOp::X, PauliOp::Z}).size(),
              81u);
}

} // namespace
} // namespace varsaw
