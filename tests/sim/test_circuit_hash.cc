/**
 * @file
 * Unit tests for structural circuit/job hashing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/circuit_hash.hh"
#include "sim/job.hh"

namespace varsaw {
namespace {

Circuit
sampleCircuit()
{
    Circuit c(3);
    c.h(0).cx(0, 1).ry(2, 0.8).rzParam(1, 0).measureAll();
    return c;
}

TEST(CircuitHash, DeterministicAcrossRebuilds)
{
    EXPECT_EQ(circuitStructuralHash(sampleCircuit()),
              circuitStructuralHash(sampleCircuit()));
}

TEST(CircuitHash, LabelIsIgnored)
{
    Circuit a = sampleCircuit();
    Circuit b = sampleCircuit();
    b.setLabel("different-label");
    EXPECT_EQ(circuitStructuralHash(a), circuitStructuralHash(b));
}

TEST(CircuitHash, GateSequenceMatters)
{
    Circuit a = sampleCircuit();
    Circuit b(3);
    b.h(0).cx(1, 0).ry(2, 0.8).rzParam(1, 0).measureAll(); // cx flip
    EXPECT_NE(circuitStructuralHash(a), circuitStructuralHash(b));
}

TEST(CircuitHash, BoundAngleMatters)
{
    Circuit a(2), b(2);
    a.ry(0, 0.5).measureAll();
    b.ry(0, 0.5000001).measureAll();
    EXPECT_NE(circuitStructuralHash(a), circuitStructuralHash(b));
}

TEST(CircuitHash, MeasurementSpecMatters)
{
    Circuit a(2), b(2), c(2);
    a.h(0).measure(0);
    b.h(0).measure(1);
    c.h(0).measureAll();
    EXPECT_NE(circuitStructuralHash(a), circuitStructuralHash(b));
    EXPECT_NE(circuitStructuralHash(a), circuitStructuralHash(c));
}

TEST(ParameterHash, DistinctValuesDiffer)
{
    EXPECT_NE(parameterHash({0.1, 0.2}), parameterHash({0.2, 0.1}));
    EXPECT_NE(parameterHash({0.1}), parameterHash({0.1, 0.0}));
    EXPECT_NE(parameterHash({}), parameterHash({0.0}));
}

TEST(ParameterHash, SubQuantumPerturbationCollides)
{
    // The grid is 2^-32 per slot: differences below floating-point
    // noise map to the same key on purpose.
    EXPECT_EQ(parameterHash({0.5}), parameterHash({0.5 + 1e-11}));
}

TEST(JobKey, DistinctShotsDistinctKeys)
{
    CircuitJob a{sampleCircuit(), {0.3}, 1024, nullptr};
    CircuitJob b{sampleCircuit(), {0.3}, 2048, nullptr};
    CircuitJob c{sampleCircuit(), {0.4}, 1024, nullptr};
    EXPECT_TRUE(makeJobKey(a.view()) == makeJobKey(a.view()));
    EXPECT_FALSE(makeJobKey(a.view()) == makeJobKey(b.view()));
    EXPECT_FALSE(makeJobKey(a.view()) == makeJobKey(c.view()));
}

/**
 * identifyJobs and prepKeyFor must agree, job for job, with the
 * from-scratch reference functions (makeJobKey, prepKeyOf).
 */
void
expectReferenceIdentities(const std::vector<CircuitJob> &jobs)
{
    const std::vector<JobIdentity> ids = identifyJobs(jobs);
    ASSERT_EQ(ids.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CircuitJob &job = jobs[i];
        EXPECT_TRUE(ids[i].key == makeJobKey(job.view()))
            << "job " << i;
        EXPECT_EQ(ids[i].prep.has_value(), job.prep != nullptr)
            << "job " << i;
        EXPECT_TRUE(prepKeyFor(job, ids[i]) ==
                    prepKeyOf(job.prep.get(), job.circuit, job.params))
            << "job " << i;
    }
}

/** A 3-qubit parameterized prep over @p num_params slots. */
std::shared_ptr<const Circuit>
paramPrep(int num_params, double angle)
{
    Circuit prep(3);
    prep.ry(0, angle).cx(0, 1).cx(1, 2);
    for (int k = 0; k < num_params; ++k)
        prep.rzParam(k % 3, k);
    return std::make_shared<const Circuit>(std::move(prep));
}

/** Measurement suffix: basis rotations on @p q, then measure it. */
Circuit
basisSuffix(int q, bool y_basis)
{
    Circuit suffix(3);
    if (y_basis)
        suffix.sdg(q);
    suffix.h(q).measure(q);
    return suffix;
}

TEST(JobIdentity, PlainJobsMatchReference)
{
    Circuit a = sampleCircuit();
    Circuit b(3);
    b.ry(0, 0.4).cx(0, 2).rzParam(2, 0).h(2).s(1).measureAll();
    expectReferenceIdentities({{a, {0.3}, 1024, nullptr},
                               {b, {0.3}, 1024, nullptr},
                               {a, {0.3}, 2048, nullptr},
                               {b, {0.7}, 1024, nullptr}});
}

TEST(JobIdentity, AlternatingPrepsMatchReference)
{
    const auto a = paramPrep(2, 0.1);
    const auto b = paramPrep(2, 0.9);
    const std::vector<double> params{0.25, -0.5};
    expectReferenceIdentities({{basisSuffix(0, false), params, 64, a},
                               {basisSuffix(1, true), params, 64, b},
                               {basisSuffix(2, false), params, 64, a},
                               {basisSuffix(0, true), params, 64, b}});
}

TEST(JobIdentity, SuffixWithMoreParamsThanPrep)
{
    // The flattened parameter count is folded before the prep ops,
    // so one prep under two counts must hash as two distinct heads.
    const auto prep = paramPrep(1, 0.3);
    Circuit wide = basisSuffix(1, false);
    wide.rzParam(0, 3);
    ASSERT_GT(wide.numParams(), prep->numParams());
    const std::vector<double> params{0.1, 0.2, 0.3, 0.4};
    const std::vector<CircuitJob> jobs{
        {basisSuffix(0, false), params, 64, prep},
        {wide, params, 64, prep},
        {basisSuffix(2, true), params, 64, prep}};
    expectReferenceIdentities(jobs);
}

TEST(JobIdentity, PrepEndingInBasisChangeGates)
{
    // Trailing H/S/Sdg of the prep belong to the suffix in both
    // shapes: the prep key covers only the ops before them.
    Circuit prep(3);
    prep.ry(0, 0.2).rzParam(1, 0).cx(0, 1).h(2).s(0).sdg(1);
    const auto shared = std::make_shared<const Circuit>(prep);
    const std::vector<double> params{0.6};
    expectReferenceIdentities({{basisSuffix(0, false), params, 32, shared},
                               {basisSuffix(2, true), params, 32, shared}});
    const auto ids = identifyJobs({{basisSuffix(0, false), params, 32,
                                    shared}});
    ASSERT_TRUE(ids[0].prep.has_value());
    EXPECT_EQ(ids[0].prep->structure, circuitPrefixHash(prep, 3));
}

TEST(JobIdentity, ParameterBitsDecideReuse)
{
    const auto prep = paramPrep(2, 0.5);
    const double nan_a = std::bit_cast<double>(0x7FF8000000000001ull);
    const double nan_b = std::bit_cast<double>(0x7FF8000000000002ull);
    ASSERT_NE(parameterHash({nan_a, 1.0}), parameterHash({nan_b, 1.0}));
    const Circuit suffix = basisSuffix(0, false);
    expectReferenceIdentities({{suffix, {0.0, 1.0}, 64, prep},
                               {suffix, {-0.0, 1.0}, 64, prep},
                               {suffix, {0.0, 1.0}, 64, prep},
                               {suffix, {nan_a, 1.0}, 64, prep},
                               {suffix, {nan_b, 1.0}, 64, prep},
                               {suffix, {nan_a, 1.0}, 64, prep},
                               {suffix, {nan_a}, 64, prep}});
}

} // namespace
} // namespace varsaw
