/**
 * @file
 * Tests for the prefix-shared simulation engine: the prep/suffix
 * split, prepared-state caching (exactly one prep per key, under
 * any worker count), and bit-identity with the legacy full-circuit
 * path for both job shapes with the cache on and off.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mitigation/executor.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "runtime/batch_executor.hh"
#include "sim/circuit_hash.hh"
#include "sim/sim_engine.hh"
#include "sim/state_cache.hh"
#include "vqa/ansatz.hh"

#include "../worker_service.hh"

namespace varsaw {
namespace {

Circuit
su2Ansatz(int qubits)
{
    return EfficientSU2(AnsatzConfig{qubits, 2, Entanglement::Linear})
        .circuit();
}

std::vector<double>
testParams(int qubits)
{
    return EfficientSU2(
               AnsatzConfig{qubits, 2, Entanglement::Linear})
        .initialParameters(5);
}

TEST(PrefixSplit, GlobalCircuitSplitsAtBasisRotations)
{
    const Circuit ansatz = su2Ansatz(4);
    const Circuit global =
        makeGlobalCircuit(ansatz, PauliString::parse("XYZX"));
    const PrefixSplit split = splitPrepSuffix(global);
    // The prefix is exactly the ansatz; the suffix holds the
    // basis-change gates (H for X, Sdg+H for Y, nothing for Z).
    EXPECT_EQ(split.prefixOps, ansatz.ops().size());
    EXPECT_EQ(global.ops().size() - split.prefixOps, 4u);
}

TEST(PrefixSplit, AllZBasisHasEmptySuffix)
{
    const Circuit ansatz = su2Ansatz(4);
    const Circuit global =
        makeGlobalCircuit(ansatz, PauliString::parse("ZZZZ"));
    const PrefixSplit split = splitPrepSuffix(global);
    EXPECT_EQ(split.prefixOps, global.ops().size());
}

TEST(PrefixSplit, SamePrefixKeyAcrossBases)
{
    const Circuit ansatz = su2Ansatz(4);
    const auto params = testParams(4);
    const Circuit a =
        makeGlobalCircuit(ansatz, PauliString::parse("XYZX"));
    const Circuit b =
        makeGlobalCircuit(ansatz, PauliString::parse("YXXZ"));
    EXPECT_EQ(prepKeyOf(nullptr, a, params).combined(),
              prepKeyOf(nullptr, b, params).combined());

    // The explicit (prep, suffix) shape shares the same key.
    const Circuit suffix = makeGlobalSuffix(PauliString::parse("XYZX"));
    EXPECT_EQ(prepKeyOf(&ansatz, suffix, params).combined(),
              prepKeyOf(nullptr, a, params).combined());

    // Different parameters are a different prepared state.
    auto other = params;
    other[0] += 0.25;
    EXPECT_NE(prepKeyOf(nullptr, a, params).combined(),
              prepKeyOf(nullptr, a, other).combined());
}

TEST(SimEngine, MarginalMatchesFullRunBothShapesAndCacheModes)
{
    const int qubits = 5;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    const std::vector<PauliString> bases = {
        PauliString::parse("XYZXY"), PauliString::parse("ZZZZZ"),
        PauliString::parse("YYXXZ"), PauliString::parse("XZIZX")};

    for (bool cache_on : {false, true}) {
        SimEngine engine(SimEngineConfig{cache_on, 32});
        for (const auto &basis : bases) {
            const Circuit full = makeGlobalCircuit(ansatz, basis);
            Statevector reference(qubits);
            reference.run(full, params);
            const auto expected = reference.marginalProbabilities(
                full.measuredQubits());

            const auto plain =
                engine.measuredMarginal(nullptr, full, params);
            const Circuit suffix = makeGlobalSuffix(basis);
            const auto prefixed =
                engine.measuredMarginal(&ansatz, suffix, params);

            ASSERT_EQ(plain.size(), expected.size());
            ASSERT_EQ(prefixed.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(plain[i], expected[i]);
                EXPECT_EQ(prefixed[i], expected[i]);
            }
        }
    }
}

TEST(SimEngine, SubsetSuffixMatchesSubsetCircuit)
{
    const int qubits = 5;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    const PauliString subset = PauliString::parse("IXYII");

    SimEngine engine;
    const Circuit full = makeSubsetCircuit(ansatz, subset);
    Statevector reference(qubits);
    reference.run(full, params);
    const auto expected =
        reference.marginalProbabilities(full.measuredQubits());

    const auto got = engine.measuredMarginal(
        &ansatz, makeSubsetSuffix(subset), params);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(got[i], expected[i]);
}

TEST(SimEngine, OnePrepSimulationPerKey)
{
    const int qubits = 4;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);

    SimEngine engine;
    const std::vector<PauliString> bases = {
        PauliString::parse("XXXX"), PauliString::parse("YYYY"),
        PauliString::parse("ZZZZ"), PauliString::parse("XYZX")};
    for (const auto &basis : bases)
        engine.measuredMarginal(&ansatz, makeGlobalSuffix(basis),
                                params);

    const SimEngineStats stats = engine.stats();
    EXPECT_EQ(stats.prepSimulations, 1u);
    EXPECT_EQ(stats.suffixApplications, bases.size());
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.cache.hits, bases.size() - 1);

    // A second parameter point is a new key: exactly one more prep.
    auto other = params;
    other[1] -= 0.5;
    for (const auto &basis : bases)
        engine.measuredMarginal(&ansatz, makeGlobalSuffix(basis),
                                other);
    EXPECT_EQ(engine.stats().prepSimulations, 2u);
}

TEST(SimEngine, MultiBasisBatchPreparesOncePerThreadCount)
{
    // The acceptance property: with the cache enabled, one
    // multi-basis objective evaluation costs exactly one full
    // state-prep simulation per unique (prefix, params) key — on
    // the serial private runtime and at every service worker count,
    // including under the prefix-aware scheduler's grouping.
    const int qubits = 6;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    auto prep = std::make_shared<const Circuit>(ansatz);
    const std::vector<PauliString> bases = {
        PauliString::parse("XYZXYZ"), PauliString::parse("ZZZZZZ"),
        PauliString::parse("YYXXZZ"), PauliString::parse("XXYYXX"),
        PauliString::parse("ZXZXZX"), PauliString::parse("YZYZYZ")};

    for (int workers : {kSerial, 1, 4, 8}) {
        NoisyExecutor exec(DeviceModel::uniform(qubits, 0.02, 0.05),
                           GateNoiseMode::AnalyticDepolarizing, 11);
        const auto service = workerService(exec, workers);
        RuntimeConfig config;
        config.service = service.get();
        const auto runtime = makeSubmitter(exec, config);

        Batch batch;
        for (const auto &basis : bases)
            batch.addPrefixed(prep, makeGlobalSuffix(basis), params,
                              1024);
        runtime->run(batch);

        const SimEngineStats stats = exec.simEngine().stats();
        EXPECT_EQ(stats.prepSimulations, 1u)
            << "workers=" << workers;
        EXPECT_EQ(stats.suffixApplications, bases.size())
            << "workers=" << workers;
    }
}

TEST(SimEngine, CacheDisabledRunsFullSimulations)
{
    const int qubits = 4;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);

    SimEngine engine(SimEngineConfig{false, 32});
    for (int i = 0; i < 3; ++i)
        engine.measuredMarginal(
            &ansatz, makeGlobalSuffix(PauliString::parse("XYZX")),
            params);
    const SimEngineStats stats = engine.stats();
    EXPECT_EQ(stats.prepSimulations, 0u);
    EXPECT_EQ(stats.fullSimulations, 3u);
}

TEST(JobKey, PrefixedJobKeyMatchesFlattenedCircuit)
{
    const int qubits = 4;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    const PauliString basis = PauliString::parse("XYZX");

    CircuitJob prefixed{makeGlobalSuffix(basis), params, 2048,
                        std::make_shared<const Circuit>(ansatz)};
    CircuitJob plain{makeGlobalCircuit(ansatz, basis), params, 2048,
                     nullptr};

    EXPECT_EQ(jobCircuitHash(prefixed.view()),
              circuitStructuralHash(plain.circuit));
    const JobKey a = makeJobKey(prefixed.view());
    const JobKey b = makeJobKey(plain.view());
    EXPECT_TRUE(a == b);

    // flattened() reconstructs the plain circuit exactly.
    EXPECT_EQ(circuitStructuralHash(prefixed.flattened()),
              circuitStructuralHash(plain.circuit));
}

TEST(ExecutorJob, PrefixedAndPlainJobsBitIdentical)
{
    // Same stream + same denoted circuit => bit-identical sampled
    // PMFs, whichever shape the job arrives in and whether or not
    // prepared states are shared.
    const int qubits = 5;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    const PauliString basis = PauliString::parse("XYZXY");
    auto prep = std::make_shared<const Circuit>(ansatz);

    for (bool cache_on : {true, false}) {
        NoisyExecutor exec(DeviceModel::uniform(qubits, 0.02, 0.05),
                           GateNoiseMode::AnalyticDepolarizing, 7);
        exec.simEngine().setCacheEnabled(cache_on);

        const CircuitJob plain{makeGlobalCircuit(ansatz, basis),
                               params, 4096, nullptr};
        const CircuitJob prefixed{makeGlobalSuffix(basis), params,
                                  4096, prep};
        EXPECT_EQ(exec.tryExecuteJob(plain.view(), 3).value(),
                  exec.tryExecuteJob(prefixed.view(), 3).value());
    }
}

TEST(ExecutorJob, TrajectoryModeHandlesPrefixedJobs)
{
    const int qubits = 4;
    const Circuit ansatz = su2Ansatz(qubits);
    const auto params = testParams(qubits);
    const PauliString basis = PauliString::parse("XYZX");
    auto prep = std::make_shared<const Circuit>(ansatz);

    NoisyExecutor exec(DeviceModel::uniform(qubits, 0.02, 0.05),
                       GateNoiseMode::PauliTrajectories, 13, 16);
    const CircuitJob plain{makeGlobalCircuit(ansatz, basis), params,
                           0, nullptr};
    const CircuitJob prefixed{makeGlobalSuffix(basis), params, 0,
                              prep};
    EXPECT_EQ(exec.tryExecuteJob(plain.view(), 9).value(),
              exec.tryExecuteJob(prefixed.view(), 9).value());
}

TEST(SimEngine, PrepWithTrailingBasisGatesSharesKeyAndMatches)
{
    // An ansatz that itself ends with H: the trailing gate belongs
    // to the suffix in both job shapes, so the plain and prefixed
    // forms share one prep key and still agree with a full run.
    Circuit ansatz(3);
    ansatz.ryParam(0, 0).cx(0, 1).cx(1, 2).h(2);
    const std::vector<double> params{0.37};
    const PauliString basis = PauliString::parse("XYZ");

    const Circuit full = makeGlobalCircuit(ansatz, basis);
    EXPECT_EQ(prepKeyOf(&ansatz, makeGlobalSuffix(basis), params)
                  .combined(),
              prepKeyOf(nullptr, full, params).combined());

    Statevector reference(3);
    reference.run(full, params);
    const auto expected =
        reference.marginalProbabilities(full.measuredQubits());

    SimEngine engine;
    const auto plain = engine.measuredMarginal(nullptr, full, params);
    const auto prefixed = engine.measuredMarginal(
        &ansatz, makeGlobalSuffix(basis), params);
    // One prep simulation serves both shapes.
    EXPECT_EQ(engine.stats().prepSimulations, 1u);
    ASSERT_EQ(plain.size(), expected.size());
    ASSERT_EQ(prefixed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(plain[i], expected[i]);
        EXPECT_EQ(prefixed[i], expected[i]);
    }
}

TEST(SimEngine, CarriedPrepKeyDecidesTheCacheEntry)
{
    // A view that carries its prep key is not rehashed: the engine
    // files the prepared state under the carried key, and a view
    // without one derives the same key and hits that entry.
    const Circuit ansatz = su2Ansatz(4);
    const auto params = testParams(4);
    const Circuit x_suffix =
        makeGlobalSuffix(PauliString::parse("XXZZ"));
    const Circuit y_suffix =
        makeGlobalSuffix(PauliString::parse("YZZY"));
    const PrepKey key = prepKeyOf(&ansatz, x_suffix, params);

    SimEngine engine;
    const auto carried =
        engine.measuredMarginal(&ansatz, x_suffix, params, key);
    EXPECT_EQ(engine.stats().prepSimulations, 1u);
    EXPECT_EQ(engine.measuredMarginal(&ansatz, x_suffix, params),
              carried);
    engine.measuredMarginal(&ansatz, y_suffix, params);
    EXPECT_EQ(engine.stats().prepSimulations, 1u);

    // Only the carried key is consulted: an unrelated one is a miss.
    const PrepKey other{key.structure + 1, key.params};
    EXPECT_EQ(
        engine.measuredMarginal(&ansatz, x_suffix, params, other),
        carried);
    EXPECT_EQ(engine.stats().prepSimulations, 2u);
}

} // namespace
} // namespace varsaw
