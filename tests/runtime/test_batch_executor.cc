/**
 * @file
 * Tests for the batched execution runtime: the serial private
 * BatchExecutor against one-session ExecutionServices with 2, 4 and
 * 8 workers (bit identity, futures plumbing, cost accounting), and
 * estimator integration.
 */

#include <gtest/gtest.h>

#include "chem/spin_models.hh"
#include "core/selective.hh"
#include "core/varsaw.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "runtime/batch_executor.hh"
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"
#include "vqa/zne_estimator.hh"

#include "../worker_service.hh"

namespace varsaw {
namespace {

/**
 * A fixed-seed TFIM workload shaped like one VarSaw tick: every
 * basis's Global plus the shared subset circuits, with shots.
 */
Batch
tfimWorkload(const Hamiltonian &h, const Circuit &ansatz,
             const std::vector<double> &params)
{
    Batch batch;
    BasisReduction reduction = coverReduce(h.strings());
    for (const auto &basis : reduction.bases)
        batch.add(makeGlobalCircuit(ansatz, basis), params, 4096);
    for (const auto &basis : reduction.bases) {
        for (const auto &w : windowSubsets(basis, 2))
            batch.add(makeSubsetCircuit(ansatz, w), params, 2048);
    }
    return batch;
}

TEST(BatchExecutor, ParallelBitIdenticalToSerialOnTfim)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(17);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);
    const Batch batch = tfimWorkload(h, ansatz.circuit(), params);
    ASSERT_GT(batch.size(), 4u);

    NoisyExecutor serial_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 7);
    BatchExecutor serial(serial_exec,
                         RuntimeConfig{.cacheMaxEntries = 64});
    const auto serial_results = serial.run(batch);

    for (int workers : kWorkerCounts) {
        NoisyExecutor parallel_exec(
            device, GateNoiseMode::AnalyticDepolarizing, 7);
        const auto service = workerService(parallel_exec, workers);
        const auto parallel = makeSubmitter(
            parallel_exec, RuntimeConfig{.service = service.get()});
        const auto parallel_results = parallel->run(batch);

        ASSERT_EQ(serial_results.size(), parallel_results.size());
        for (std::size_t i = 0; i < serial_results.size(); ++i)
            EXPECT_EQ(serial_results[i], parallel_results[i])
                << workers;
    }
}

TEST(BatchExecutor, TrajectoryNoiseAlsoDeterministic)
{
    // The trajectory sampler consumes far more RNG than plain shot
    // sampling; it must be equally order-independent.
    const Hamiltonian h = tfim(3, 1.0, 0.5);
    EfficientSU2 ansatz(AnsatzConfig{3, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(3);
    const DeviceModel device =
        DeviceModel::uniform(3, 0.01, 0.02, 0.0, 1e-3, 1e-2);
    const Batch batch = tfimWorkload(h, ansatz.circuit(), params);

    NoisyExecutor a(device, GateNoiseMode::PauliTrajectories, 9, 8);
    BatchExecutor serial(a, RuntimeConfig{.cacheMaxEntries = 64});
    const auto ra = serial.run(batch);

    for (int workers : kWorkerCounts) {
        NoisyExecutor b(device, GateNoiseMode::PauliTrajectories, 9,
                        8);
        const auto service = workerService(b, workers);
        const auto parallel =
            makeSubmitter(b, RuntimeConfig{.service = service.get()});
        const auto rb = parallel->run(batch);
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t i = 0; i < ra.size(); ++i)
            EXPECT_EQ(ra[i], rb[i]) << workers;
    }
}

TEST(BatchExecutor, FuturesAlignWithJobIndices)
{
    IdealExecutor exec(1);
    const auto service = workerService(exec, 2);
    const auto runtime =
        makeSubmitter(exec, RuntimeConfig{.service = service.get()});

    // Distinguishable jobs: job i prepares |1> on qubit i of 3.
    Batch batch;
    for (int q = 0; q < 3; ++q) {
        Circuit c(3);
        c.x(q).measureAll();
        batch.add(c, {}, 0);
    }
    auto futures = runtime->submit(batch);
    ASSERT_EQ(futures.size(), 3u);
    for (int q = 0; q < 3; ++q) {
        Pmf pmf = futures[static_cast<std::size_t>(q)].get();
        EXPECT_DOUBLE_EQ(pmf.prob(1ull << q), 1.0);
    }
}

TEST(BatchExecutor, CountsCircuitsAndShotsExactly)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    for (int i = 0; i < 64; ++i)
        batch.add(c, {}, 100 + static_cast<std::uint64_t>(i));

    for (int workers : {kSerial, 4}) {
        IdealExecutor exec(1);
        const auto service = workerService(exec, workers);
        const auto runtime = makeSubmitter(
            exec, RuntimeConfig{.service = service.get()});
        runtime->run(batch);

        EXPECT_EQ(exec.circuitsExecuted(), 64u) << workers;
        EXPECT_EQ(exec.shotsExecuted(), batch.totalShots()) << workers;
        EXPECT_EQ(runtime->jobsSubmitted(), 64u) << workers;
    }
}

TEST(BatchExecutor, EmptyBatchIsANoop)
{
    IdealExecutor exec(1);
    BatchExecutor runtime(exec);
    EXPECT_TRUE(runtime.run(Batch{}).empty());
    EXPECT_EQ(exec.circuitsExecuted(), 0u);
}

TEST(BatchExecutor, CacheDedupesIdenticalJobsWithinABatch)
{
    IdealExecutor exec(1);
    RuntimeConfig config;
    config.cacheResults = true;
    BatchExecutor runtime(exec, config);

    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    for (int i = 0; i < 10; ++i)
        batch.add(c, {}, 256);
    const auto results = runtime.run(batch);

    EXPECT_EQ(exec.circuitsExecuted(), 1u);
    EXPECT_EQ(runtime.cacheStats().hits, 9u);
    EXPECT_EQ(runtime.cacheStats().shotsSaved, 9u * 256u);
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[0], results[i]);
}

TEST(BatchExecutor, CachedDuplicatesDeterministicUnderThreads)
{
    // With the cache on, only the first submission of a key ever
    // executes — duplicates wait on its future — so results AND
    // cost counters are identical between the serial runtime and a
    // service's workers even when duplicates hit a cold cache.
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    Batch batch;
    for (int i = 0; i < 32; ++i)
        batch.add(c, {}, 512);

    IdealExecutor serial_exec(3);
    BatchExecutor serial(serial_exec,
                         RuntimeConfig{.cacheResults = true});
    const auto serial_results = serial.run(batch);
    EXPECT_EQ(serial_exec.circuitsExecuted(), 1u);

    for (int workers : kWorkerCounts) {
        IdealExecutor parallel_exec(3);
        const auto service = workerService(parallel_exec, workers);
        const auto parallel = makeSubmitter(
            parallel_exec, RuntimeConfig{.cacheResults = true,
                                         .service = service.get()});
        const auto parallel_results = parallel->run(batch);

        for (std::size_t i = 0; i < parallel_results.size(); ++i)
            EXPECT_EQ(serial_results[0], parallel_results[i])
                << workers;
        EXPECT_EQ(parallel_exec.circuitsExecuted(), 1u) << workers;
        EXPECT_EQ(parallel->cacheStats().hits, 31u) << workers;
    }
}

TEST(PrefixScheduler, GroupsCompareFullKeysNotDigests)
{
    // mix64(a, b) finalizes a + phi * (b + 1), so {s, p} and
    // {s + phi, p - 1} have identical combined() digests while
    // being different prep identities. The scheduler groups by full
    // PrepKey: the colliding pair must land in two groups (they may
    // share a hash bucket, never a group), while equal keys
    // serialize into one group in submission order.
    constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ull;
    const PrepKey a{123, 456};
    const PrepKey collides_with_a{123 + kPhi, 455};
    const PrepKey b{777, 888};
    ASSERT_EQ(a.combined(), collides_with_a.combined());
    ASSERT_FALSE(a == collides_with_a);

    const auto groups =
        groupByPrepKey({a, b, collides_with_a, a, b, a});
    ASSERT_EQ(groups.size(), 3u);
    // First-appearance order of groups, submission order within.
    EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 3, 5})); // a
    EXPECT_EQ(groups[1], (std::vector<std::size_t>{1, 4}));    // b
    EXPECT_EQ(groups[2], (std::vector<std::size_t>{2})); // collider
}

TEST(PrefixScheduler, MultiPrepBatchDeterministicAcrossPlacement)
{
    // Several distinct preps (distinct group keys) in one batch:
    // results must be bit-identical however the prefix-aware
    // scheduler places them on a service's workers — one chunk per
    // prep at 2 workers, split groups at 4 and 8 — and each prep
    // must still be simulated exactly once.
    const int qubits = 4;
    const std::vector<PauliString> bases = {
        PauliString::parse("XYZX"), PauliString::parse("ZZXX"),
        PauliString::parse("YXYZ")};
    std::vector<std::shared_ptr<const Circuit>> preps;
    std::vector<std::vector<double>> prep_params;
    for (int depth : {1, 2, 3}) {
        EfficientSU2 ansatz(
            AnsatzConfig{qubits, depth, Entanglement::Linear});
        preps.push_back(
            std::make_shared<const Circuit>(ansatz.circuit()));
        prep_params.push_back(ansatz.initialParameters(7));
    }

    auto run = [&](int workers, std::uint64_t *prep_sims) {
        IdealExecutor exec(23);
        const auto service = workerService(exec, workers);
        const auto runtime = makeSubmitter(
            exec, RuntimeConfig{.service = service.get()});
        Batch batch;
        for (std::size_t p = 0; p < preps.size(); ++p)
            for (const auto &basis : bases)
                batch.addPrefixed(preps[p], makeGlobalSuffix(basis),
                                  prep_params[p], 512);
        const auto results = runtime->run(batch);
        if (prep_sims)
            *prep_sims =
                exec.simEngine().stats().prepSimulations;
        return results;
    };

    std::uint64_t serial_preps = 0;
    const auto reference = run(kSerial, &serial_preps);
    EXPECT_EQ(serial_preps, preps.size());
    for (int workers : kWorkerCounts) {
        std::uint64_t prep_sims = 0;
        const auto got = run(workers, &prep_sims);
        EXPECT_EQ(prep_sims, preps.size()) << workers;
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(reference[i], got[i]);
    }
}

TEST(VarsawEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(21);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    auto energy = [&](int workers) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 13);
        const auto service = workerService(exec, workers);
        VarsawConfig config;
        config.subsetShots = 1024;
        config.globalShots = 2048;
        config.runtime.service = service.get();
        VarsawEstimator est(h, ansatz.circuit(), exec, config);
        return est.estimate(params);
    };
    const double serial = energy(kSerial);
    for (int workers : kWorkerCounts)
        EXPECT_EQ(serial, energy(workers)) << workers;
}

TEST(JigsawEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(29);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    auto energy = [&](int workers) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 13);
        const auto service = workerService(exec, workers);
        JigsawConfig config;
        config.subsetShots = 512;
        config.globalShots = 1024;
        JigsawEstimator est(h, ansatz.circuit(), exec, config,
                            BasisMode::Cover,
                            RuntimeConfig{.service = service.get()});
        return est.estimate(params);
    };
    const double serial = energy(kSerial);
    for (int workers : kWorkerCounts)
        EXPECT_EQ(serial, energy(workers)) << workers;
}

TEST(BaselineEstimator, EnergyIdenticalAcrossThreadCounts)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(21);

    auto energy = [&](int workers) {
        IdealExecutor exec(99);
        const auto service = workerService(exec, workers);
        BaselineEstimator est(h, ansatz.circuit(), exec, 4096,
                              BasisMode::Cover,
                              ShotAllocation::Uniform,
                              RuntimeConfig{.service = service.get()});
        return est.estimate(params);
    };
    const double serial = energy(kSerial);
    for (int workers : kWorkerCounts)
        EXPECT_EQ(serial, energy(workers)) << workers;
}

/**
 * A backplane whose sessions record every submitted batch, then run
 * it on a serial private runtime: how the identity test sees the
 * exact batches each estimator admits.
 */
class RecordingBackplane : public ExecutionBackplane
{
  public:
    std::unique_ptr<JobSubmitter>
    openSession(Executor &backend, const RuntimeConfig &config) override
    {
        return std::make_unique<Recorder>(backend, config, batches_);
    }

    const std::vector<Batch> &batches() const { return batches_; }

  private:
    class Recorder : public JobSubmitter
    {
      public:
        Recorder(Executor &backend, const RuntimeConfig &config,
                 std::vector<Batch> &out)
            : inner_(backend, config), out_(out)
        {
        }

        std::vector<std::future<Pmf>> submit(const Batch &batch) override
        {
            out_.push_back(batch);
            return inner_.submit(batch);
        }

        Executor &backend() override { return inner_.backend(); }
        const Executor &backend() const override
        {
            return inner_.backend();
        }
        CacheStats cacheStats() const override
        {
            return inner_.cacheStats();
        }
        std::uint64_t jobsSubmitted() const override
        {
            return inner_.jobsSubmitted();
        }

      private:
        BatchExecutor inner_;
        std::vector<Batch> &out_;
    };

    std::vector<Batch> batches_;
};

TEST(JobIdentity, AdmissionKeysMatchReferenceOnEstimatorBatches)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(5);
    const auto other = ansatz.initialParameters(6);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing, 3);
    RecordingBackplane recorder;
    const RuntimeConfig runtime{.service = &recorder};

    VarsawConfig varsaw_config;
    varsaw_config.subsetShots = 256;
    varsaw_config.globalShots = 512;
    varsaw_config.runtime = runtime;
    JigsawConfig jigsaw_config;
    jigsaw_config.subsetShots = 256;
    jigsaw_config.globalShots = 512;

    std::vector<std::unique_ptr<EnergyEstimator>> estimators;
    estimators.push_back(std::make_unique<VarsawEstimator>(
        h, ansatz.circuit(), exec, varsaw_config));
    estimators.push_back(std::make_unique<JigsawEstimator>(
        h, ansatz.circuit(), exec, jigsaw_config, BasisMode::Cover,
        runtime));
    estimators.push_back(std::make_unique<BaselineEstimator>(
        h, ansatz.circuit(), exec, 512, BasisMode::Cover,
        ShotAllocation::Uniform, runtime));
    estimators.push_back(std::make_unique<SelectiveVarsawEstimator>(
        h, ansatz.circuit(), exec, varsaw_config, 0.6, 128));
    estimators.push_back(std::make_unique<ZneEstimator>(
        h, ansatz.circuit(), exec, 256, std::vector<int>{1, 3},
        runtime));
    // Several ticks per estimator: VarSaw alternates Global and
    // subset-only ticks, and a new parameter point changes every key.
    for (auto &est : estimators) {
        est->estimate(params);
        est->estimate(params);
        est->estimate(other);
    }

    std::size_t prefixed = 0, plain = 0;
    for (const Batch &batch : recorder.batches()) {
        const std::vector<JobIdentity> ids = identifyJobs(batch.jobs());
        ASSERT_EQ(ids.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const CircuitJob &job = batch.jobs()[i];
            EXPECT_TRUE(ids[i].key == makeJobKey(job.view()));
            EXPECT_TRUE(prepKeyFor(job, ids[i]) ==
                        prepKeyOf(job.prep.get(), job.circuit,
                                  job.params));
            ++(job.prep ? prefixed : plain);
        }
    }
    EXPECT_GT(prefixed, 0u);
    EXPECT_GT(plain, 0u); // ZNE folds whole circuits
}

} // namespace
} // namespace varsaw
