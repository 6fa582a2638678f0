/**
 * @file
 * Unit tests for simulated device models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "noise/device_model.hh"

namespace varsaw {
namespace {

TEST(DeviceModel, MumbaiPreset)
{
    const DeviceModel d = DeviceModel::mumbai();
    EXPECT_EQ(d.numQubits(), 27);
    // Readout errors within the published 1-7%-ish band.
    for (const auto &e : d.readout()) {
        EXPECT_GT(e.meanError(), 0.004);
        EXPECT_LT(e.meanError(), 0.08);
        EXPECT_GT(e.p10, e.p01); // excited-state decay asymmetry
    }
    EXPECT_GT(d.crosstalkSlope(), 0.0);
    EXPECT_GT(d.gate2Error(), d.gate1Error());
}

TEST(DeviceModel, PresetsAreDeterministic)
{
    const DeviceModel a = DeviceModel::mumbai();
    const DeviceModel b = DeviceModel::mumbai();
    for (int q = 0; q < a.numQubits(); ++q) {
        EXPECT_DOUBLE_EQ(a.readout()[q].p01, b.readout()[q].p01);
        EXPECT_DOUBLE_EQ(a.readout()[q].p10, b.readout()[q].p10);
    }
}

TEST(DeviceModel, LagosCleanerThanJakarta)
{
    const DeviceModel lagos = DeviceModel::lagos();
    const DeviceModel jakarta = DeviceModel::jakarta();
    EXPECT_EQ(lagos.numQubits(), 7);
    EXPECT_EQ(jakarta.numQubits(), 7);
    double lagos_mean = 0.0, jakarta_mean = 0.0;
    for (int q = 0; q < 7; ++q) {
        lagos_mean += lagos.readout()[q].meanError();
        jakarta_mean += jakarta.readout()[q].meanError();
    }
    EXPECT_LT(lagos_mean, jakarta_mean);
}

TEST(DeviceModel, BestQubitsSortedByError)
{
    const DeviceModel d = DeviceModel::mumbai();
    const auto best = d.bestQubits(5);
    ASSERT_EQ(best.size(), 5u);
    for (std::size_t i = 1; i < best.size(); ++i)
        EXPECT_LE(d.readout()[best[i - 1]].meanError(),
                  d.readout()[best[i]].meanError());
    // The best qubit beats every other qubit.
    for (int q = 0; q < d.numQubits(); ++q)
        EXPECT_LE(d.readout()[best[0]].meanError(),
                  d.readout()[q].meanError());
}

TEST(DeviceModel, BestQubitsRankingFollowsEveryFactory)
{
    // The ranking is computed once per constructed model; every
    // copy-and-modify factory must rebuild it from its own errors.
    auto reference = [](const DeviceModel &d) {
        std::vector<int> order(d.numQubits());
        for (int q = 0; q < d.numQubits(); ++q)
            order[q] = q;
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return d.readout()[a].meanError() <
                d.readout()[b].meanError();
        });
        return order;
    };
    const DeviceModel mumbai = DeviceModel::mumbai();
    for (const DeviceModel &d :
         {mumbai, mumbai.scaled(1.7), mumbai.drifted(11, 0.5),
          mumbai.withoutCrosstalk(), mumbai.withoutGateNoise(),
          mumbai.withoutReadoutError(), DeviceModel::jakarta()}) {
        const std::vector<int> order = reference(d);
        EXPECT_EQ(d.bestQubits(d.numQubits()), order) << d.name();
        EXPECT_EQ(d.bestQubits(3),
                  std::vector<int>(order.begin(), order.begin() + 3))
            << d.name();
        EXPECT_TRUE(d.bestQubits(0).empty());
    }
    // Drift reorders qubits, so a stale ranking would show here.
    EXPECT_NE(reference(mumbai), reference(mumbai.drifted(11, 0.5)));
}

TEST(DeviceModelDeathTest, BestQubitsRejectsCountsOutsideTheDevice)
{
    const DeviceModel d = DeviceModel::lagos();
    EXPECT_DEATH(d.bestQubits(d.numQubits() + 1), "bestQubits");
    EXPECT_DEATH(d.bestQubits(-1), "bestQubits");
}

TEST(DeviceModel, EffectiveReadoutBestMappingBeatsDefault)
{
    const DeviceModel d = DeviceModel::mumbai();
    const auto best = d.effectiveReadout(2, true);
    const auto dflt = d.effectiveReadout(2, false);
    double best_mean = 0.0, dflt_mean = 0.0;
    for (int i = 0; i < 2; ++i) {
        best_mean += best[i].meanError();
        dflt_mean += dflt[i].meanError();
    }
    EXPECT_LE(best_mean, dflt_mean);
}

TEST(DeviceModel, EffectiveReadoutCrosstalkGrowsWithWidth)
{
    const DeviceModel d = DeviceModel::mumbai();
    // Same physical qubit (default order, slot 0), more neighbors.
    const auto narrow = d.effectiveReadout(2, false);
    const auto wide = d.effectiveReadout(20, false);
    EXPECT_GT(wide[0].meanError(), narrow[0].meanError());
}

TEST(DeviceModel, ScaledMultipliesErrors)
{
    const DeviceModel d = DeviceModel::uniform(3, 0.02, 0.04, 0.05,
                                               1e-4, 1e-3);
    const DeviceModel s = d.scaled(2.0);
    EXPECT_NEAR(s.readout()[0].p01, 0.04, 1e-12);
    EXPECT_NEAR(s.readout()[0].p10, 0.08, 1e-12);
    EXPECT_NEAR(s.gate2Error(), 2e-3, 1e-15);
}

TEST(DeviceModel, WithoutGateNoise)
{
    const DeviceModel d =
        DeviceModel::mumbai().withoutGateNoise();
    EXPECT_EQ(d.gate1Error(), 0.0);
    EXPECT_EQ(d.gate2Error(), 0.0);
    // Readout untouched.
    EXPECT_GT(d.readout()[0].meanError(), 0.0);
}

TEST(DeviceModel, WithoutCrosstalk)
{
    const DeviceModel d = DeviceModel::mumbai().withoutCrosstalk();
    EXPECT_EQ(d.crosstalkSlope(), 0.0);
    const auto narrow = d.effectiveReadout(2, false);
    const auto wide = d.effectiveReadout(20, false);
    EXPECT_DOUBLE_EQ(wide[0].meanError(), narrow[0].meanError());
}

TEST(DeviceModel, WithoutReadoutErrorKeepsGateNoise)
{
    const DeviceModel d =
        DeviceModel::mumbai().withoutReadoutError();
    for (const auto &e : d.readout())
        EXPECT_EQ(e.meanError(), 0.0);
    EXPECT_EQ(d.crosstalkSlope(), 0.0);
    EXPECT_GT(d.gate2Error(), 0.0);
}

TEST(DeviceModel, IdealHasNoErrors)
{
    const DeviceModel d = DeviceModel::ideal(5);
    for (const auto &e : d.readout())
        EXPECT_EQ(e.meanError(), 0.0);
    EXPECT_EQ(d.gate2Error(), 0.0);
}

TEST(DeviceModel, DriftPerturbsPerQubit)
{
    const DeviceModel base = DeviceModel::mumbai();
    const DeviceModel drifted = base.drifted(7, 0.3);
    EXPECT_EQ(drifted.numQubits(), base.numQubits());
    int changed = 0;
    for (int q = 0; q < base.numQubits(); ++q) {
        EXPECT_GT(drifted.readout()[q].meanError(), 0.0);
        if (std::abs(drifted.readout()[q].meanError() -
                     base.readout()[q].meanError()) > 1e-6)
            ++changed;
    }
    EXPECT_GT(changed, base.numQubits() / 2);
    // Gate errors untouched by readout drift.
    EXPECT_DOUBLE_EQ(drifted.gate2Error(), base.gate2Error());
}

TEST(DeviceModel, DriftDeterministicPerSeed)
{
    const DeviceModel base = DeviceModel::lagos();
    const DeviceModel a = base.drifted(3, 0.2);
    const DeviceModel b = base.drifted(3, 0.2);
    const DeviceModel c = base.drifted(4, 0.2);
    for (int q = 0; q < base.numQubits(); ++q)
        EXPECT_DOUBLE_EQ(a.readout()[q].p01, b.readout()[q].p01);
    bool differs = false;
    for (int q = 0; q < base.numQubits(); ++q)
        if (a.readout()[q].p01 != c.readout()[q].p01)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(DeviceModel, SummaryMentionsName)
{
    EXPECT_NE(DeviceModel::mumbai().summary().find("mumbai"),
              std::string::npos);
}

} // namespace
} // namespace varsaw
