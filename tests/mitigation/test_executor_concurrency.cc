/**
 * @file
 * Thread-safety regression tests for Executor: many threads
 * hammering one executor must account cost exactly and sample
 * deterministically per stream.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mitigation/executor.hh"
#include "noise/device_model.hh"

namespace varsaw {
namespace {

Circuit
bellCircuit()
{
    Circuit c(2, "bell");
    c.h(0).cx(0, 1).measureAll();
    return c;
}

TEST(ExecutorConcurrency, CountersExactUnderContention)
{
    IdealExecutor exec(42);
    const Circuit circuit = bellCircuit();
    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 200;
    constexpr std::uint64_t kShots = 32;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCallsPerThread; ++i) {
                const std::uint64_t stream = static_cast<std::uint64_t>(
                    t * kCallsPerThread + i);
                exec.executeJob(circuit, {}, kShots, stream);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(exec.circuitsExecuted(),
              static_cast<std::uint64_t>(kThreads * kCallsPerThread));
    EXPECT_EQ(exec.shotsExecuted(),
              static_cast<std::uint64_t>(kThreads * kCallsPerThread) *
                  kShots);
}

TEST(ExecutorConcurrency, SameStreamSameResultAcrossThreads)
{
    NoisyExecutor exec(DeviceModel::uniform(2, 0.02, 0.05),
                       GateNoiseMode::AnalyticDepolarizing, 7);
    const Circuit circuit = bellCircuit();

    const Pmf reference = exec.executeJob(circuit, {}, 2048, 99);

    constexpr int kThreads = 6;
    std::vector<Pmf> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            results[static_cast<std::size_t>(t)] =
                exec.executeJob(circuit, {}, 2048, 99);
        });
    for (auto &thread : threads)
        thread.join();

    for (const Pmf &pmf : results)
        EXPECT_EQ(pmf, reference);
}

TEST(ExecutorConcurrency, DistinctStreamsAreIndependent)
{
    IdealExecutor exec(1);
    const Circuit circuit = bellCircuit();
    const Pmf a = exec.executeJob(circuit, {}, 4096, 0);
    const Pmf b = exec.executeJob(circuit, {}, 4096, 1);
    // Same distribution, different samples: at 4096 shots of a
    // fair Bell pair the two counts essentially never tie exactly.
    EXPECT_NE(a.prob(0b00), b.prob(0b00));
}

TEST(ExecutorConcurrency, SerialExecutePathUnaffectedByJobs)
{
    // The legacy execute() stream must not be perturbed by
    // interleaved executeJob() calls.
    IdealExecutor a(5), b(5);
    const Circuit circuit = bellCircuit();

    const Pmf first_a = a.execute(circuit, {}, 1024);
    a.executeJob(circuit, {}, 1024, 7); // interleaved job on a only
    const Pmf second_a = a.execute(circuit, {}, 1024);

    const Pmf first_b = b.execute(circuit, {}, 1024);
    const Pmf second_b = b.execute(circuit, {}, 1024);

    EXPECT_EQ(first_a.prob(0b00), first_b.prob(0b00));
    EXPECT_EQ(second_a.prob(0b00), second_b.prob(0b00));
}

} // namespace
} // namespace varsaw
