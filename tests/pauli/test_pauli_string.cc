/**
 * @file
 * Unit and property tests for bit-packed Pauli strings.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "pauli/pauli_string.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

TEST(PauliOp, EncodingRoundTrip)
{
    for (PauliOp op : {PauliOp::I, PauliOp::X, PauliOp::Z, PauliOp::Y})
        EXPECT_EQ(pauliFromBits(xBit(op), zBit(op)), op);
}

TEST(PauliOp, CharRoundTrip)
{
    EXPECT_EQ(pauliFromChar('X'), PauliOp::X);
    EXPECT_EQ(pauliFromChar('y'), PauliOp::Y);
    EXPECT_EQ(pauliFromChar('Z'), PauliOp::Z);
    EXPECT_EQ(pauliFromChar('I'), PauliOp::I);
    EXPECT_EQ(pauliFromChar('-'), PauliOp::I);
    EXPECT_EQ(pauliChar(PauliOp::Y), 'Y');
}

TEST(PauliString, ParseAndPrint)
{
    PauliString p = PauliString::parse("ZXIY");
    EXPECT_EQ(p.numQubits(), 4);
    EXPECT_EQ(p.op(0), PauliOp::Z);
    EXPECT_EQ(p.op(1), PauliOp::X);
    EXPECT_EQ(p.op(2), PauliOp::I);
    EXPECT_EQ(p.op(3), PauliOp::Y);
    EXPECT_EQ(p.toString(), "ZXIY");
    EXPECT_EQ(p.toSubsetString(), "ZX-Y");
}

TEST(PauliString, ParseDashNotation)
{
    PauliString p = PauliString::parse("ZX--");
    EXPECT_EQ(p, PauliString::parse("ZXII"));
}

TEST(PauliString, WeightAndSupport)
{
    PauliString p = PauliString::parse("IZXI");
    EXPECT_EQ(p.weight(), 2);
    EXPECT_EQ(p.support(), (std::vector<int>{1, 2}));
    EXPECT_FALSE(p.isIdentity());
    EXPECT_TRUE(PauliString::parse("IIII").isIdentity());
}

TEST(PauliString, SetOpOverwrites)
{
    PauliString p(3);
    p.setOp(1, PauliOp::Y);
    EXPECT_EQ(p.toString(), "IYI");
    p.setOp(1, PauliOp::Z);
    EXPECT_EQ(p.toString(), "IZI");
    p.setOp(1, PauliOp::I);
    EXPECT_TRUE(p.isIdentity());
}

TEST(PauliString, QwcCompatibility)
{
    const auto a = PauliString::parse("ZIZ");
    EXPECT_TRUE(a.qwcCompatible(PauliString::parse("ZZI")));
    EXPECT_TRUE(a.qwcCompatible(PauliString::parse("III")));
    EXPECT_TRUE(a.qwcCompatible(PauliString::parse("ZZZ")));
    EXPECT_FALSE(a.qwcCompatible(PauliString::parse("XII")));
    EXPECT_FALSE(a.qwcCompatible(PauliString::parse("IIY")));
}

TEST(PauliString, CoveringExamplesFromPaper)
{
    // Fig. 6: 'ZZII' is covered by 'ZZIZ'; 'IIZX' by 'ZIZX';
    // 'ZXIZ' by 'ZXXZ'; 'XIZZ' is NOT covered by 'XZIZ'.
    EXPECT_TRUE(PauliString::parse("ZZII")
                    .coveredBy(PauliString::parse("ZZIZ")));
    EXPECT_TRUE(PauliString::parse("IIZX")
                    .coveredBy(PauliString::parse("ZIZX")));
    EXPECT_TRUE(PauliString::parse("ZXIZ")
                    .coveredBy(PauliString::parse("ZXXZ")));
    EXPECT_FALSE(PauliString::parse("XIZZ")
                     .coveredBy(PauliString::parse("XZIZ")));
    // Fig. 6 subsets: '-Z--' commutes with (is covered by) 'ZZ--'.
    EXPECT_TRUE(PauliString::parse("-Z--")
                    .coveredBy(PauliString::parse("ZZ--")));
}

TEST(PauliString, CoveringIsReflexiveAndAntisymmetric)
{
    const auto a = PauliString::parse("ZXI");
    const auto b = PauliString::parse("ZXX");
    EXPECT_TRUE(a.coveredBy(a));
    EXPECT_TRUE(a.coveredBy(b));
    EXPECT_FALSE(b.coveredBy(a));
}

TEST(PauliString, CoveringImpliesQwc)
{
    Rng rng(55);
    for (int trial = 0; trial < 500; ++trial) {
        PauliString a(5), b(5);
        for (int q = 0; q < 5; ++q) {
            a.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
            b.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        }
        if (a.coveredBy(b)) {
            EXPECT_TRUE(a.qwcCompatible(b));
        }
    }
}

TEST(PauliString, MergePreservesBoth)
{
    const auto a = PauliString::parse("ZI-");
    const auto b = PauliString::parse("-IX");
    const auto merged = a.mergedWith(b);
    EXPECT_EQ(merged.toString(), "ZIX");
    EXPECT_TRUE(a.coveredBy(merged));
    EXPECT_TRUE(b.coveredBy(merged));
}

TEST(PauliString, RestrictToWindow)
{
    const auto p = PauliString::parse("ZXYZ");
    EXPECT_EQ(p.restrictedTo(0, 2).toString(), "ZXII");
    EXPECT_EQ(p.restrictedTo(1, 2).toString(), "IXYI");
    EXPECT_EQ(p.restrictedTo(2, 2).toString(), "IIYZ");
    EXPECT_EQ(p.restrictedTo(0, 4), p);
}

TEST(PauliString, RestrictToPositions)
{
    const auto p = PauliString::parse("ZXYZ");
    EXPECT_EQ(p.restrictedTo(std::vector<int>{0, 3}).toString(),
              "ZIIZ");
}

TEST(PauliString, TrueCommutation)
{
    // X and Z on the same qubit anti-commute.
    EXPECT_FALSE(PauliString::parse("X").commutesWith(
        PauliString::parse("Z")));
    // XX and ZZ commute (two anti-commuting positions).
    EXPECT_TRUE(PauliString::parse("XX").commutesWith(
        PauliString::parse("ZZ")));
    // Everything commutes with identity.
    EXPECT_TRUE(PauliString::parse("XYZ").commutesWith(
        PauliString::parse("III")));
}

TEST(PauliString, QwcImpliesTrueCommutation)
{
    Rng rng(77);
    for (int trial = 0; trial < 500; ++trial) {
        PauliString a(6), b(6);
        for (int q = 0; q < 6; ++q) {
            a.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
            b.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        }
        if (a.qwcCompatible(b)) {
            EXPECT_TRUE(a.commutesWith(b));
        }
    }
}

TEST(PauliString, HashDistinguishesStrings)
{
    std::unordered_set<PauliString, PauliStringHash> set;
    set.insert(PauliString::parse("ZZ--"));
    set.insert(PauliString::parse("ZZ--"));
    set.insert(PauliString::parse("-ZZ-"));
    set.insert(PauliString::parse("--ZZ"));
    EXPECT_EQ(set.size(), 3u);
}

TEST(PauliString, OrderingIsStrictWeak)
{
    const auto a = PauliString::parse("XI");
    const auto b = PauliString::parse("IZ");
    EXPECT_NE(a < b, b < a);
    EXPECT_FALSE(a < a);
}

TEST(PauliString, FromMasksMatchesParse)
{
    // "XZY" -> x bits at {0, 2}, z bits at {1, 2}.
    const auto p = PauliString::fromMasks(3, 0b101, 0b110);
    EXPECT_EQ(p, PauliString::parse("XZY"));
}

} // namespace
} // namespace varsaw
