/**
 * @file
 * Tests for the shared execution service: cross-estimator dedupe,
 * bit-identity to the private-runtime path across thread counts /
 * session counts / cache settings / submission interleavings, fair
 * FIFO admission, per-session statistics, kernel-assist lending,
 * blocking run() callers that run their own queue, and graceful
 * shutdown under concurrent submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chem/spin_models.hh"
#include "core/selective.hh"
#include "core/varsaw.hh"
#include "noise/device_model.hh"
#include "service/execution_service.hh"
#include "service/scheduler.hh"
#include "sim/circuit.hh"
#include "sim/statevector.hh"
#include "telemetry/introspect.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "util/parallel.hh"

#if defined(__unix__) || defined(__APPLE__)
#define VARSAW_TEST_UNIX_SOCKETS 1
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif
#include "vqa/ansatz.hh"
#include "vqa/estimator.hh"
#include "vqa/zne_estimator.hh"

namespace varsaw {
namespace {

/** A prefix-sharing workload: per-basis Globals over one ansatz. */
Batch
basisWorkload(const std::shared_ptr<const Circuit> &prep,
              const std::vector<PauliString> &bases,
              const std::vector<double> &params, std::uint64_t shots)
{
    Batch batch;
    for (const auto &basis : bases)
        batch.addPrefixed(prep, makeGlobalSuffix(basis), params,
                          shots);
    return batch;
}

std::vector<PauliString>
tfimBases(int qubits)
{
    const Hamiltonian h = tfim(qubits, 1.0, 0.7);
    return coverReduce(h.strings()).bases;
}

/** How long a test waits for a thread it expects to make progress
 * before it fails instead of hanging. */
constexpr auto kProgressTimeout = std::chrono::seconds(60);

/**
 * An ideal backend that records the thread every job ran on and can
 * hold jobs back: a job whose shot count has a gate parks inside the
 * backend until that gate opens. Results are IdealExecutor's.
 */
class GatedExecutor : public IdealExecutor
{
  public:
    using IdealExecutor::IdealExecutor;

    /** Park every job of @p shots shots until open(@p shots). Call
     * before any job runs. */
    void gate(std::uint64_t shots)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        gates_[shots] = false;
    }

    void open(std::uint64_t shots)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        gates_[shots] = true;
        cv_.notify_all();
    }

    void openAll()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &gate : gates_)
            gate.second = true;
        cv_.notify_all();
    }

    /** Wait until a job of @p shots shots is parked; false on
     * timeout. */
    bool waitParked(std::uint64_t shots)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, kProgressTimeout, [&] {
            return parked_.count(shots) != 0;
        });
    }

    /** (shots, thread) of every job run so far, in start order. */
    std::vector<std::pair<std::uint64_t, std::thread::id>> runs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return runs_;
    }

  protected:
    Pmf executeImpl(const JobView &job, Rng &rng) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            runs_.emplace_back(job.shots, std::this_thread::get_id());
            const auto gate = gates_.find(job.shots);
            if (gate != gates_.end()) {
                parked_.insert(job.shots);
                cv_.notify_all();
                cv_.wait(lock, [&] { return gate->second; });
            }
        }
        return IdealExecutor::executeImpl(job, rng);
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, bool> gates_; //!< shots -> open
    std::set<std::uint64_t> parked_;
    std::vector<std::pair<std::uint64_t, std::thread::id>> runs_;
};

/** Opens every gate at scope exit, so a failed assertion releases
 * parked jobs before the service (declared earlier) joins them. */
struct OpenGatesAtExit
{
    GatedExecutor &exec;
    ~OpenGatesAtExit() { exec.openAll(); }
};

/** A one-job batch of a Bell circuit at @p shots shots (distinct
 * shot counts make distinct jobs). */
Batch
bellJob(std::uint64_t shots)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    batch.add(c, {}, shots);
    return batch;
}

TEST(ExecutionService, CrossSessionDedupeExecutesOnce)
{
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto params = ansatz.initialParameters(11);
    const auto bases = tfimBases(4);

    IdealExecutor exec(3);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(exec, sc);
    auto a = service.createSession("estimator-a");
    auto b = service.createSession("estimator-b");

    const Batch batch = basisWorkload(prep, bases, params, 512);
    const auto ra = a->run(batch);
    const std::uint64_t executed_after_a = exec.circuitsExecuted();
    const auto rb = b->run(batch); // identical batch, other tenant
    // Session B re-executed NOTHING: every job was answered from
    // session A's primaries.
    EXPECT_EQ(exec.circuitsExecuted(), executed_after_a);
    EXPECT_EQ(b->stats().cacheHits, batch.size());
    EXPECT_EQ(b->stats().crossSessionHits, batch.size());
    EXPECT_EQ(a->stats().crossSessionHits, 0u);
    EXPECT_EQ(service.stats().crossSessionHits, batch.size());

    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i], rb[i]);
}

TEST(ExecutionService, BitIdenticalToPrivateRuntimes)
{
    // The core determinism contract: a shared-service run of two
    // overlapping estimator workloads is bit-identical to the same
    // workloads on private per-estimator runtimes — across service
    // thread counts, cache on/off, and session count.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto params = ansatz.initialParameters(17);
    const auto bases = tfimBases(4);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);

    // Two overlapping batches (B is a subset of A plus a repeat).
    const Batch batch_a = basisWorkload(prep, bases, params, 1024);
    Batch batch_b = basisWorkload(prep, bases, params, 1024);
    batch_b.addPrefixed(prep, makeGlobalSuffix(bases.front()),
                        params, 2048);

    // Private reference: serial per-estimator runtimes.
    std::vector<Pmf> ref_a, ref_b;
    {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 7);
        RuntimeConfig rc;
        rc.cacheResults = true;
        BatchExecutor ra(exec, rc), rb(exec, rc);
        ref_a = ra.run(batch_a);
        ref_b = rb.run(batch_b);
    }

    for (int threads : {1, 4, 8}) {
        for (bool cache_on : {true, false}) {
            NoisyExecutor exec(
                device, GateNoiseMode::AnalyticDepolarizing, 7);
            ServiceConfig sc;
            sc.threads = threads;
            sc.cacheResults = cache_on;
            ExecutionService service(exec, sc);
            auto sa = service.createSession();
            auto sb = service.createSession();
            const auto got_a = sa->run(batch_a);
            const auto got_b = sb->run(batch_b);
            ASSERT_EQ(got_a.size(), ref_a.size());
            ASSERT_EQ(got_b.size(), ref_b.size());
            for (std::size_t i = 0; i < ref_a.size(); ++i)
                EXPECT_EQ(ref_a[i], got_a[i]);
            for (std::size_t i = 0; i < ref_b.size(); ++i)
                EXPECT_EQ(ref_b[i], got_b[i]);
        }
    }
}

TEST(ExecutionService, ConcurrentInterleavedSubmissionsDeterministic)
{
    // Two client threads hammer the service with overlapping
    // batches concurrently. Whatever interleaving the ledger sees,
    // every result must equal the serial private-runtime reference.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto bases = tfimBases(4);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    std::vector<std::vector<double>> points;
    for (int t = 0; t < 4; ++t) {
        auto params = ansatz.initialParameters(
            100 + static_cast<std::uint64_t>(t));
        points.push_back(params);
    }

    // Serial reference.
    std::vector<std::vector<Pmf>> reference;
    {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 5);
        RuntimeConfig rc;
        rc.cacheResults = true;
        BatchExecutor runtime(exec, rc);
        for (const auto &params : points)
            reference.push_back(runtime.run(
                basisWorkload(prep, bases, params, 768)));
    }

    for (int repeat = 0; repeat < 3; ++repeat) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 5);
        ServiceConfig sc;
        sc.threads = 4;
        ExecutionService service(exec, sc);

        std::vector<std::vector<Pmf>> got_a(points.size());
        std::vector<std::vector<Pmf>> got_b(points.size());
        auto client = [&](std::vector<std::vector<Pmf>> *out) {
            auto session = service.createSession();
            for (std::size_t p = 0; p < points.size(); ++p)
                (*out)[p] = session->run(
                    basisWorkload(prep, bases, points[p], 768));
        };
        std::thread ta(client, &got_a);
        std::thread tb(client, &got_b);
        ta.join();
        tb.join();

        for (std::size_t p = 0; p < points.size(); ++p) {
            ASSERT_EQ(got_a[p].size(), reference[p].size());
            for (std::size_t i = 0; i < reference[p].size(); ++i) {
                EXPECT_EQ(reference[p][i], got_a[p][i]);
                EXPECT_EQ(reference[p][i], got_b[p][i]);
            }
        }
    }
}

TEST(ExecutionService, EstimatorsShareServiceViaRuntimeConfig)
{
    // The rewiring path estimators actually use: RuntimeConfig::
    // service routes two estimators with overlapping Hamiltonians
    // onto sessions of one service. Energies equal the
    // private-runtime energies bit for bit, and the overlapping
    // basis circuits (the Z-type bases both Hamiltonians compile to
    // the same fully-measured Global) dedupe across the estimators.
    const Hamiltonian h_full = tfim(4, 1.0, 0.7);
    Hamiltonian h_zz(4, "tfim-zz");
    for (const auto &term : h_full.terms())
        if ((term.string.supportMask() & 0xF) != 0 &&
            term.string.toString().find('X') == std::string::npos)
            h_zz.addTerm(term.string, term.coefficient);
    ASSERT_GT(h_zz.numTerms(), 0u);

    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(21);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);

    auto energies = [&](ExecutionService *service, Executor &exec,
                        std::uint64_t *executed) {
        RuntimeConfig rc;
        rc.cacheResults = true;
        rc.service = service;
        BaselineEstimator full(h_full, ansatz.circuit(), exec, 1024,
                               BasisMode::Cover,
                               ShotAllocation::Uniform, rc);
        BaselineEstimator zz(h_zz, ansatz.circuit(), exec, 1024,
                             BasisMode::Cover,
                             ShotAllocation::Uniform, rc);
        const double ef = full.estimate(params);
        const double ez = zz.estimate(params);
        if (executed)
            *executed = exec.circuitsExecuted();
        return std::pair<double, double>{ef, ez};
    };

    NoisyExecutor private_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 9);
    std::uint64_t private_executed = 0;
    const auto private_energies =
        energies(nullptr, private_exec, &private_executed);

    NoisyExecutor shared_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 9);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(shared_exec, sc);
    std::uint64_t shared_executed = 0;
    const auto shared_energies =
        energies(&service, shared_exec, &shared_executed);

    EXPECT_EQ(private_energies.first, shared_energies.first);
    EXPECT_EQ(private_energies.second, shared_energies.second);
    // The Z-basis Global is identical work in both estimators:
    // cross-estimator dedupe must fire and save executions relative
    // to the private path.
    EXPECT_GT(service.stats().crossSessionHits, 0u);
    EXPECT_LT(shared_executed, private_executed);
}

TEST(ExecutionService, ZneEstimatorRunsThroughTheService)
{
    const Hamiltonian h = tfim(3, 1.0, 0.5);
    EfficientSU2 ansatz(AnsatzConfig{3, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(43);
    const DeviceModel device = DeviceModel::uniform(3, 0.02, 0.05);

    auto energy = [&](ExecutionService *service, Executor &exec) {
        RuntimeConfig rc;
        rc.cacheResults = true;
        rc.service = service;
        ZneEstimator zne(h, ansatz.circuit(), exec, 2048, {1, 3, 5},
                         rc);
        return zne.estimate(params);
    };

    NoisyExecutor private_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 27);
    const double private_energy = energy(nullptr, private_exec);

    NoisyExecutor shared_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 27);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(shared_exec, sc);
    const double shared_energy = energy(&service, shared_exec);

    EXPECT_EQ(private_energy, shared_energy);
}

TEST(ExecutionService, SelectiveHeavyLightHalvesShareOneService)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    const auto params = ansatz.initialParameters(31);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    auto energy = [&](ExecutionService *service, Executor &exec) {
        VarsawConfig config;
        config.subsetShots = 512;
        config.globalShots = 1024;
        config.runtime.cacheResults = true;
        config.runtime.service = service;
        SelectiveVarsawEstimator est(h, ansatz.circuit(), exec,
                                     config, 0.6, 512);
        return est.estimate(params);
    };

    NoisyExecutor private_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 13);
    const double private_energy = energy(nullptr, private_exec);

    NoisyExecutor shared_exec(
        device, GateNoiseMode::AnalyticDepolarizing, 13);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(shared_exec, sc);
    const double shared_energy = energy(&service, shared_exec);

    EXPECT_EQ(private_energy, shared_energy);
    // Both halves opened sessions on the one service.
    EXPECT_EQ(service.stats().sessionsOpened, 2u);
}

TEST(ExecutionService, PerSessionStatsAndFifoFairness)
{
    IdealExecutor exec(1);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto a = service.createSession("a");
    auto b = service.createSession("b");

    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    for (int i = 0; i < 8; ++i)
        batch.add(c, {}, 128);

    const auto ra = a->run(batch);
    const auto rb = b->run(batch);
    for (std::size_t i = 1; i < ra.size(); ++i)
        EXPECT_EQ(ra[0], ra[i]);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(ra[0], rb[i]);

    // A executed the single primary; its 7 in-batch duplicates are
    // same-session hits. B's 8 are all cross-session hits.
    EXPECT_EQ(a->stats().jobsSubmitted, 8u);
    EXPECT_EQ(a->stats().cacheMisses, 1u);
    EXPECT_EQ(a->stats().cacheHits, 7u);
    EXPECT_EQ(a->stats().crossSessionHits, 0u);
    EXPECT_EQ(b->stats().cacheHits, 8u);
    EXPECT_EQ(b->stats().crossSessionHits, 8u);
    EXPECT_EQ(b->stats().shotsSaved, 8u * 128u);
    EXPECT_EQ(exec.circuitsExecuted(), 1u);

    // JobSubmitter view of the same numbers.
    EXPECT_EQ(a->cacheStats().hits, 7u);
    EXPECT_EQ(b->cacheStats().hitRate(), 1.0);
    EXPECT_EQ(a->jobsSubmitted(), 8u);
}

TEST(ServiceScheduler, RoundRobinAcrossQueues)
{
    // One worker, two queues loaded while the worker is blocked on
    // a gate task: admission must then alternate a, b, a, b, ...
    ServiceScheduler scheduler(1);
    const auto qa = scheduler.openQueue();
    const auto qb = scheduler.openQueue();

    std::promise<void> gate;
    std::shared_future<void> gate_future =
        gate.get_future().share();
    std::mutex order_mutex;
    std::vector<int> order;
    ASSERT_EQ(scheduler.enqueue(
                  qa, [gate_future] { gate_future.wait(); }),
              ServiceScheduler::Admission::Accepted);
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(scheduler.enqueue(qa,
                                    [&] {
                                        std::lock_guard<std::mutex>
                                            lock(order_mutex);
                                        order.push_back(0);
                                    }),
                  ServiceScheduler::Admission::Accepted);
        ASSERT_EQ(scheduler.enqueue(qb,
                                    [&] {
                                        std::lock_guard<std::mutex>
                                            lock(order_mutex);
                                        order.push_back(1);
                                    }),
                  ServiceScheduler::Admission::Accepted);
    }
    gate.set_value();
    scheduler.drain();
    // After the gate task (queue a), service alternates b, a, b...
    ASSERT_EQ(order.size(), 6u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1]) << "position " << i;
    scheduler.closeQueue(qa);
    scheduler.closeQueue(qb);
}

TEST(ServiceScheduler, IdleWorkersLendThemselvesToKernels)
{
    // A service worker executing an engaged statevector sweep must
    // receive help from its idle peers through the kernel-assist
    // hook (the unified-scheduler half of the old two-pool split).
    const int saved = kernelThreads();
    // Wide admission cap: helpers left over in the standalone
    // kernel pool from earlier tests cannot crowd the scheduler's
    // workers out of the assist slots.
    setKernelThreads(kMaxKernelThreads);
    {
        ServiceScheduler scheduler(4);
        const auto q = scheduler.openQueue();
        std::uint64_t assists = 0;
        for (int attempt = 0; attempt < 50 && assists == 0;
             ++attempt) {
            ASSERT_EQ(
                scheduler.enqueue(
                    q,
                    [] {
                        // 2^20 amplitudes: every gate sweep is an
                        // engaged kernel loop of 16 chunks.
                        Statevector sv(20);
                        Circuit c(20);
                        for (int q2 = 0; q2 < 20; ++q2)
                            c.h(q2);
                        sv.run(c, {});
                    }),
                ServiceScheduler::Admission::Accepted);
            scheduler.drain();
            assists = scheduler.kernelAssists();
        }
        EXPECT_GT(assists, 0u);
    }
    setKernelThreads(saved);
}

TEST(ExecutionService, ShutdownDrainsAndLaterSubmitsRunInline)
{
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto params = ansatz.initialParameters(41);
    const auto bases = tfimBases(4);
    const Batch batch = basisWorkload(prep, bases, params, 256);

    IdealExecutor serial_exec(19);
    RuntimeConfig rc;
    rc.cacheResults = true;
    BatchExecutor serial(serial_exec, rc);
    const auto reference = serial.run(batch);

    IdealExecutor exec(19);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(exec, sc);
    auto session = service.createSession();

    auto futures = session->submit(batch);
    service.shutdown(); // drains: all admitted futures resolve
    for (std::size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(reference[i], futures[i].get());
    EXPECT_TRUE(service.closed());

    // Submissions after shutdown run inline with identical results.
    const auto after = session->run(batch);
    for (std::size_t i = 0; i < after.size(); ++i)
        EXPECT_EQ(reference[i], after[i]);
}

TEST(ExecutionService, ShutdownWhileConcurrentlySubmittingIsClean)
{
    // Clients submit while another thread shuts the service down.
    // Every future must resolve to the serial reference value
    // whether its job was admitted, drained, or executed inline —
    // and nothing may leak or race (ASan/TSan-sensitive path).
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto bases = tfimBases(4);

    std::vector<std::vector<double>> points;
    for (int t = 0; t < 6; ++t)
        points.push_back(ansatz.initialParameters(
            200 + static_cast<std::uint64_t>(t)));

    std::vector<std::vector<Pmf>> reference;
    {
        IdealExecutor exec(23);
        RuntimeConfig rc;
        rc.cacheResults = true;
        BatchExecutor runtime(exec, rc);
        for (const auto &params : points)
            reference.push_back(runtime.run(
                basisWorkload(prep, bases, params, 256)));
    }

    for (int repeat = 0; repeat < 4; ++repeat) {
        IdealExecutor exec(23);
        ServiceConfig sc;
        sc.threads = 2;
        ExecutionService service(exec, sc);

        std::atomic<int> done_clients{0};
        auto client = [&](int offset) {
            auto session = service.createSession();
            for (std::size_t p = 0; p < points.size(); ++p) {
                const std::size_t idx =
                    (p + static_cast<std::size_t>(offset)) %
                    points.size();
                const auto got = session->run(basisWorkload(
                    prep, bases, points[idx], 256));
                for (std::size_t i = 0; i < got.size(); ++i)
                    EXPECT_EQ(reference[idx][i], got[i]);
            }
            done_clients.fetch_add(1);
        };
        std::thread ta(client, 0);
        std::thread tb(client, 3);
        // Shut down mid-flight: admitted work drains, later
        // submissions fall back to inline execution.
        service.shutdown();
        ta.join();
        tb.join();
        EXPECT_EQ(done_clients.load(), 2);
    }
}

TEST(ServiceScheduler, RunQueuedRunsOnlyTheNamedQueue)
{
    // A lent caller runs the queue it names on its own thread and
    // leaves every other queue to the workers.
    ServiceScheduler scheduler(1);
    const auto q_gate = scheduler.openQueue();
    const auto qa = scheduler.openQueue();
    const auto qb = scheduler.openQueue();

    // Park the single worker on a gate task, and wait until it has
    // popped it, so nothing else can take qa's or qb's tasks.
    std::promise<void> gate;
    std::shared_future<void> gate_future = gate.get_future().share();
    std::atomic<bool> started{false};
    ASSERT_EQ(scheduler.enqueue(q_gate,
                                [&started, gate_future] {
                                    started.store(
                                        true, std::memory_order_release);
                                    gate_future.wait();
                                }),
              ServiceScheduler::Admission::Accepted);
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();

    std::mutex ran_mutex;
    std::vector<std::pair<char, std::thread::id>> ran;
    const auto record = [&ran, &ran_mutex](char queue) {
        return [&ran, &ran_mutex, queue] {
            std::lock_guard<std::mutex> lock(ran_mutex);
            ran.emplace_back(queue, std::this_thread::get_id());
        };
    };
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(scheduler.enqueue(qa, record('a')),
                  ServiceScheduler::Admission::Accepted);
        ASSERT_EQ(scheduler.enqueue(qb, record('b')),
                  ServiceScheduler::Admission::Accepted);
    }

    EXPECT_EQ(scheduler.runQueued(qa), 3u);
    EXPECT_EQ(scheduler.queueDepth(qa), 0u);
    EXPECT_EQ(scheduler.queueDepth(qb), 3u);
    {
        std::lock_guard<std::mutex> lock(ran_mutex);
        ASSERT_EQ(ran.size(), 3u);
        for (const auto &[queue, thread] : ran) {
            EXPECT_EQ(queue, 'a');
            EXPECT_EQ(thread, std::this_thread::get_id());
        }
    }
    EXPECT_EQ(scheduler.callerChunks(), 3u);
    EXPECT_EQ(scheduler.chunksExecuted(), 3u);

    gate.set_value();
    scheduler.drain();
    // The gate task and qb's three ran on the worker.
    EXPECT_EQ(scheduler.chunksExecuted(), 7u);
    EXPECT_EQ(scheduler.callerChunks(), 3u);
    EXPECT_EQ(scheduler.runQueued(qb), 0u);
    scheduler.closeQueue(q_gate);
    scheduler.closeQueue(qa);
    scheduler.closeQueue(qb);
}

TEST(ExecutionService, BlockingRunExecutesOnTheCallingThread)
{
    // A blocking run() lends its thread to its own queue. With the
    // only worker parked on session A's job, session B's run() still
    // completes, every one of B's jobs runs on B's thread, and B
    // never runs A's chunk queued behind the parked one.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const Batch batch = basisWorkload(prep, tfimBases(4),
                                      ansatz.initialParameters(71),
                                      512);
    std::vector<Pmf> reference;
    {
        IdealExecutor exec(37);
        RuntimeConfig rc;
        rc.cacheResults = true;
        BatchExecutor runtime(exec, rc);
        reference = runtime.run(batch);
    }

    constexpr std::uint64_t kParkShots = 101;
    constexpr std::uint64_t kQueuedShots = 102;
    GatedExecutor exec(37);
    exec.gate(kParkShots);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(exec, sc);
    auto a = service.createSession("a");
    auto b = service.createSession("b");
    std::future<std::pair<std::vector<Pmf>, std::thread::id>> b_run;
    OpenGatesAtExit open_gates{exec};

    auto parked = a->submit(bellJob(kParkShots));
    ASSERT_TRUE(exec.waitParked(kParkShots))
        << "the worker never started session A's job";
    auto behind = a->submit(bellJob(kQueuedShots));

    b_run = std::async(std::launch::async, [&] {
        return std::make_pair(b->run(batch),
                              std::this_thread::get_id());
    });
    ASSERT_EQ(b_run.wait_for(kProgressTimeout),
              std::future_status::ready)
        << "session B's run() waited for the parked worker instead "
           "of running its own chunks";
    const auto [got, b_thread] = b_run.get();
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(reference[i], got[i]);
    EXPECT_GT(service.stats().callerChunks, 0u);
    EXPECT_EQ(behind.front().wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "session A's queued chunk ran while the worker was parked";

    exec.open(kParkShots);
    parked.front().get();
    behind.front().get();
    for (const auto &[shots, thread] : exec.runs()) {
        if (shots == kParkShots || shots == kQueuedShots)
            EXPECT_NE(thread, b_thread)
                << "session B's caller ran session A's job";
        else
            EXPECT_EQ(thread, b_thread);
    }
}

TEST(ExecutionService, SubmitNeverRunsOnTheCallingThread)
{
    // submit() only admits and enqueues: workers run every job, and
    // no chunk counts as caller-run.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto bases = tfimBases(4);

    GatedExecutor exec(43); // nothing gated: it only records threads
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto session = service.createSession();
    for (std::uint64_t round = 0; round < 4; ++round) {
        auto futures = session->submit(basisWorkload(
            prep, bases, ansatz.initialParameters(80 + round), 256));
        for (auto &future : futures)
            future.get();
    }
    service.drain();

    const auto runs = exec.runs();
    ASSERT_FALSE(runs.empty());
    for (const auto &[shots, thread] : runs)
        EXPECT_NE(thread, std::this_thread::get_id());
    EXPECT_GT(service.stats().chunksExecuted, 0u);
    EXPECT_EQ(service.stats().callerChunks, 0u);
}

TEST(ExecutionService, DrainAndShutdownWaitForCallerRunChunks)
{
    // A chunk a blocking run() executes on its own thread counts as
    // running: drain() and shutdown() return only after it is done,
    // so no task runs once shutdown() has returned.
    constexpr std::uint64_t kParkShots = 201;
    constexpr std::uint64_t kCallerShots = 202;
    std::vector<Pmf> reference;
    {
        IdealExecutor exec(41);
        BatchExecutor runtime(exec, RuntimeConfig{});
        reference = runtime.run(bellJob(kCallerShots));
    }

    GatedExecutor exec(41);
    exec.gate(kParkShots);
    exec.gate(kCallerShots);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(exec, sc);
    auto a = service.createSession("a");
    auto b = service.createSession("b");
    std::future<std::vector<Pmf>> b_run;
    OpenGatesAtExit open_gates{exec};

    // Park the worker on A's job, so B's caller must run B's chunk.
    auto parked = a->submit(bellJob(kParkShots));
    ASSERT_TRUE(exec.waitParked(kParkShots))
        << "the worker never started session A's job";
    b_run = std::async(std::launch::async,
                       [&] { return b->run(bellJob(kCallerShots)); });
    ASSERT_TRUE(exec.waitParked(kCallerShots))
        << "session B's caller never ran its own chunk";
    // Free the worker: the only task in flight is now the one B's
    // caller is running.
    exec.open(kParkShots);
    parked.front().get();

    std::atomic<bool> drained{false};
    std::atomic<bool> stopped{false};
    std::thread drainer([&] {
        service.drain();
        drained.store(true);
    });
    std::thread stopper([&] {
        service.shutdown();
        stopped.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const bool drained_early = drained.load();
    const bool stopped_early = stopped.load();
    exec.open(kCallerShots);
    drainer.join();
    stopper.join();
    EXPECT_FALSE(drained_early)
        << "drain() returned while a caller-run chunk was running";
    EXPECT_FALSE(stopped_early)
        << "shutdown() returned while a caller-run chunk was running";

    const auto got = b_run.get();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], reference[0]);
    EXPECT_EQ(service.stats().callerChunks, 1u);
    const auto runs = exec.runs();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_NE(runs[0].second, runs[1].second);
}

TEST(ExecutionService, RejectsForeignBackends)
{
    IdealExecutor mine(1), other(2);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(mine, sc);
    RuntimeConfig rc;
    EXPECT_DEATH(
        { auto s = service.openSession(other, rc); }, "backend");
}

TEST(ExecutionService, ClearSharedCachesFencesDedupeNotResults)
{
    EfficientSU2 ansatz(AnsatzConfig{4, 1, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto params = ansatz.initialParameters(51);
    const Batch batch =
        basisWorkload(prep, tfimBases(4), params, 256);

    IdealExecutor exec(29);
    ServiceConfig sc;
    sc.threads = 1;
    ExecutionService service(exec, sc);
    auto session = service.createSession();

    const auto first = session->run(batch);
    const std::uint64_t executed = exec.circuitsExecuted();
    ASSERT_GT(executed, 0u);

    // Fenced: the repeat re-executes everything (each phase pays
    // its own way) yet reproduces every result bit for bit.
    service.clearSharedCaches();
    const auto second = session->run(batch);
    EXPECT_EQ(exec.circuitsExecuted(), 2 * executed);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], second[i]);

    // Unfenced: the next repeat is answered entirely from cache.
    const auto third = session->run(batch);
    EXPECT_EQ(exec.circuitsExecuted(), 2 * executed);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], third[i]);
}

TEST(Executor, ExecutorsCanShareOneSimEngine)
{
    // setSimEngine() installs one engine — hence one StateCache —
    // into several executors. Prepared states are pure functions of
    // (prefix ops, params), independent of any backend's noise or
    // seed, so sharing skips preparations without being able to
    // change a result.
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    auto prep = std::make_shared<const Circuit>(ansatz.circuit());
    const auto params = ansatz.initialParameters(61);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);
    const Batch batch =
        basisWorkload(prep, tfimBases(4), params, 512);

    NoisyExecutor a(device, GateNoiseMode::AnalyticDepolarizing, 5);
    NoisyExecutor b_shared(device,
                           GateNoiseMode::AnalyticDepolarizing, 6);
    NoisyExecutor b_private(device,
                            GateNoiseMode::AnalyticDepolarizing, 6);
    b_shared.setSimEngine(a.sharedSimEngine());
    ASSERT_EQ(&b_shared.simEngine(), &a.simEngine());

    RuntimeConfig rc;
    BatchExecutor ra(a, rc), rbs(b_shared, rc), rbp(b_private, rc);
    ra.run(batch);
    const std::uint64_t preps_after_a =
        a.simEngine().stats().prepSimulations;
    ASSERT_GT(preps_after_a, 0u);

    const auto res_shared = rbs.run(batch);
    // b's jobs found a's prepared state: no new preparation ran.
    EXPECT_EQ(a.simEngine().stats().prepSimulations, preps_after_a);

    // And sharing changed nothing: identical to an executor with
    // its own engine and the same seed.
    const auto res_private = rbp.run(batch);
    ASSERT_EQ(res_private.size(), res_shared.size());
    for (std::size_t i = 0; i < res_private.size(); ++i)
        EXPECT_EQ(res_private[i], res_shared[i]);
}

TEST(BatchExecutor, HotResultsSurviveTheCacheBoundary)
{
    // End-to-end view of the same property: a runtime whose cap is
    // smaller than the tick's key count still answers the repeated
    // hot submissions from cache instead of bulk-clearing — and
    // with content-derived streams the results are bit-identical
    // to an uncapped run.
    IdealExecutor exec(7);
    RuntimeConfig config;
    config.cacheResults = true;
    config.cacheMaxEntries = 4;
    BatchExecutor runtime(exec, config);

    Circuit hot(2);
    hot.h(0).cx(0, 1).measureAll();
    auto coldCircuit = [](double theta) {
        Circuit c(2);
        c.ry(0, theta).measureAll();
        return c;
    };
    auto oneJob = [](const Circuit &circuit) {
        Batch batch;
        batch.add(circuit, {}, 256);
        return batch;
    };

    const Pmf first = runtime.run(oneJob(hot)).front();
    std::uint64_t executed = exec.circuitsExecuted();
    for (int i = 0; i < 12; ++i) {
        // Interleave: hot key re-claimed, then a cold one-shot key.
        const Pmf again = runtime.run(oneJob(hot)).front();
        EXPECT_EQ(first, again);
        runtime.run(oneJob(coldCircuit(0.1 * (i + 1))));
    }
    // The hot key never re-executed: 12 cold executions only.
    EXPECT_EQ(exec.circuitsExecuted(), executed + 12);
    EXPECT_GE(runtime.cacheStats().hits, 12u);
}

TEST(ServiceScheduler, QueueGaugesTrackAndTypedShedDoesNotLeak)
{
    // The admission-visibility gauges: service.queue_depth counts
    // exactly the waiting chunks, a Full (shed) admission moves
    // nothing, and a drained scheduler reads 0. The labeled queue
    // also feeds the per-session queue_wait series.
    const bool metricsWas = telemetry::metricsEnabled();
    const bool profilerWas = telemetry::profilerEnabled();
    telemetry::setMetricsEnabled(true);
    telemetry::setProfilerEnabled(true);
    auto &reg = telemetry::MetricsRegistry::instance();
    auto &depth = reg.gauge("service.queue_depth");
    depth.reset();
    auto &wait = reg.histogram(
        "profile.phase.queue_wait_ns{session=gauge_test}");
    wait.reset();

    {
        ServiceScheduler scheduler(1, 2);
        const auto q = scheduler.openQueue("gauge_test");

        // Park the single worker on a gate task; wait until it is
        // RUNNING (off the queue) so the depth cap below is exact.
        std::promise<void> gate;
        std::shared_future<void> gate_future =
            gate.get_future().share();
        std::atomic<bool> started{false};
        ASSERT_EQ(scheduler.enqueue(q,
                                    [&started, gate_future] {
                                        started.store(
                                            true,
                                            std::memory_order_release);
                                        gate_future.wait();
                                    }),
                  ServiceScheduler::Admission::Accepted);
        while (!started.load(std::memory_order_acquire))
            std::this_thread::yield();

        ASSERT_EQ(scheduler.enqueue(q, [] {}),
                  ServiceScheduler::Admission::Accepted);
        ASSERT_EQ(scheduler.enqueue(q, [] {}),
                  ServiceScheduler::Admission::Accepted);
        EXPECT_EQ(scheduler.queueDepth(q), 2u);
        EXPECT_EQ(depth.value(), 2);

        // At the cap: a typed shed — and the gauge must not move,
        // in either direction.
        EXPECT_EQ(scheduler.enqueue(q, [] {}),
                  ServiceScheduler::Admission::Full);
        EXPECT_EQ(depth.value(), 2);

        gate.set_value();
        scheduler.drain();
        EXPECT_EQ(scheduler.queueDepth(q), 0u);
        EXPECT_EQ(depth.value(), 0);
        // All three admitted chunks landed in the labeled series.
        EXPECT_EQ(wait.count(), 3u);
        scheduler.closeQueue(q);
    }

    telemetry::setProfilerEnabled(profilerWas);
    telemetry::setMetricsEnabled(metricsWas);
}

TEST(ExecutionService, SloAccountingPerLatencyClass)
{
    // Latency-class accounting: every batch lands in its class's
    // service.latency_ns histogram; a batch over its class target
    // bumps service.slo_burn. Pure observation — the results above
    // already pin that nothing reads these back.
    const bool metricsWas = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    auto &reg = telemetry::MetricsRegistry::instance();
    auto &ilat = reg.histogram(telemetry::labeled(
        "service.latency_ns", {{"class", "interactive"}}));
    auto &iburn = reg.counter(telemetry::labeled(
        "service.slo_burn", {{"class", "interactive"}}));
    auto &blat = reg.histogram(telemetry::labeled(
        "service.latency_ns", {{"class", "bulk"}}));
    auto &bburn = reg.counter(telemetry::labeled(
        "service.slo_burn", {{"class", "bulk"}}));
    ilat.reset();
    iburn.reset();
    blat.reset();
    bburn.reset();

    IdealExecutor exec(5);
    ServiceConfig sc;
    sc.threads = 2;
    sc.interactiveSloNs = 1; // any real batch busts a 1 ns target
    sc.bulkSloNs = 0;        // 0 = burn counting disabled
    ExecutionService service(exec, sc);
    auto fast =
        service.createSession("fast", LatencyClass::Interactive);
    EXPECT_EQ(fast->latencyClass(), LatencyClass::Interactive);
    auto slow = service.createSession("slow");
    EXPECT_EQ(slow->latencyClass(), LatencyClass::Bulk);

    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    Batch batch;
    for (int i = 0; i < 4; ++i)
        batch.add(c, {}, 64);

    fast->run(batch);
    service.drain(); // completion is recorded by the last chunk
    EXPECT_EQ(ilat.count(), 1u);
    EXPECT_EQ(iburn.value(), 1u);
    EXPECT_EQ(blat.count(), 0u);

    slow->run(batch);
    service.drain();
    EXPECT_EQ(blat.count(), 1u);
    EXPECT_EQ(bburn.value(), 0u); // over a disabled target: no burn
    EXPECT_EQ(ilat.count(), 1u);  // and no class cross-talk

    telemetry::setMetricsEnabled(metricsWas);
}

TEST(LatencyClass, NamesAreStable)
{
    EXPECT_STREQ(latencyClassName(LatencyClass::Interactive),
                 "interactive");
    EXPECT_STREQ(latencyClassName(LatencyClass::Bulk), "bulk");
}

#if defined(VARSAW_TEST_UNIX_SOCKETS)

/** Netcat-equivalent introspection client: one command, read all. */
std::string
introspectQuery(const std::string &path, const std::string &command)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string line = command + "\n";
    (void)send(fd, line.data(), line.size(), 0);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

TEST(ExecutionService, IntrospectionEndpointServesLiveSessions)
{
    // End-to-end wiring: VARSAW_INTROSPECT-style path slot ->
    // service starts the endpoint -> a socket client (what
    // varsaw-top runs) sees the live session registry.
    const std::string path = "/tmp/varsaw_test_svc_intro.sock";
    const std::string savedPath = telemetry::introspectPath();
    telemetry::setIntrospectPath(path);
    {
        IdealExecutor exec(3);
        ServiceConfig sc;
        sc.threads = 1;
        ExecutionService service(exec, sc);
        auto session = service.createSession(
            "live_a", LatencyClass::Interactive);
        Circuit c(2);
        c.h(0).measureAll();
        Batch batch;
        batch.add(c, {}, 32);
        session->run(batch);

        const std::string sessions =
            introspectQuery(path, "sessions");
        EXPECT_NE(sessions.find("\"session\": \"live_a\""),
                  std::string::npos)
            << sessions;
        EXPECT_NE(sessions.find("\"class\": \"interactive\""),
                  std::string::npos);
        EXPECT_NE(sessions.find("\"jobs_submitted\": 1"),
                  std::string::npos);

        const std::string top = introspectQuery(path, "top");
        EXPECT_NE(top.find("live_a"), std::string::npos) << top;
    }
    // The endpoint dies with the service: the socket is unlinked
    // and a fresh connect fails.
    EXPECT_TRUE(introspectQuery(path, "top").empty());
    telemetry::setIntrospectPath(savedPath);
}

#endif // VARSAW_TEST_UNIX_SOCKETS

} // namespace
} // namespace varsaw
