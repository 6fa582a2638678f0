/**
 * @file
 * Thread-safety regression tests for Executor: many threads
 * hammering one executor must account cost exactly and sample
 * deterministically per stream, through tryExecuteJob() and
 * through execute().
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
    const std::vector<double> params;
    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 200;
    constexpr std::uint64_t kShots = 32;
    const JobView job{circuit, params, kShots, nullptr, std::nullopt};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCallsPerThread; ++i) {
                const std::uint64_t stream = static_cast<std::uint64_t>(
                    t * kCallsPerThread + i);
                exec.tryExecuteJob(job, stream).value();
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
    const std::vector<double> params;
    const JobView job{circuit, params, 2048, nullptr, std::nullopt};

    const Pmf reference = exec.tryExecuteJob(job, 99).value();

    constexpr int kThreads = 6;
    std::vector<Pmf> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            results[static_cast<std::size_t>(t)] =
                exec.tryExecuteJob(job, 99).value();
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
    const std::vector<double> params;
    const JobView job{circuit, params, 4096, nullptr, std::nullopt};
    const Pmf a = exec.tryExecuteJob(job, 0).value();
    const Pmf b = exec.tryExecuteJob(job, 1).value();
    // Same distribution, different samples: at 4096 shots of a
    // fair Bell pair the two counts essentially never tie exactly.
    EXPECT_NE(a.prob(0b00), b.prob(0b00));
}

TEST(ExecutorConcurrency, ExecuteIsThreadSafe)
{
    // execute() samples each job's content stream, so concurrent
    // calls on one executor share no sampling state: every call
    // returns what a lone single-threaded call returns, and the
    // cost counters stay exact.
    NoisyExecutor exec(DeviceModel::uniform(3, 0.02, 0.05),
                       GateNoiseMode::AnalyticDepolarizing, 11);
    std::vector<Circuit> circuits;
    for (int k = 0; k < 5; ++k) {
        Circuit c(3);
        c.ry(0, 0.3 * (k + 1)).cx(0, 1).cx(1, 2).measureAll();
        circuits.push_back(std::move(c));
    }
    const std::vector<double> params;
    const std::uint64_t shots[] = {0, 1, 777, 2048, 4096};
    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 50;
    const auto jobOf = [](int t, int i) {
        return static_cast<std::size_t>((t + i) % 5);
    };

    std::vector<Pmf> reference;
    for (std::size_t k = 0; k < circuits.size(); ++k)
        reference.push_back(
            exec.execute(circuits[k], params, shots[k]));
    exec.resetCounters();

    std::vector<std::vector<Pmf>> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            auto &mine = results[static_cast<std::size_t>(t)];
            for (int i = 0; i < kCallsPerThread; ++i) {
                const std::size_t k = jobOf(t, i);
                mine.push_back(
                    exec.execute(circuits[k], params, shots[k]));
            }
        });
    for (auto &thread : threads)
        thread.join();

    std::uint64_t expected_shots = 0;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kCallsPerThread; ++i) {
            const std::size_t k = jobOf(t, i);
            expected_shots += shots[k];
            EXPECT_EQ(results[static_cast<std::size_t>(t)]
                             [static_cast<std::size_t>(i)],
                      reference[k])
                << "thread " << t << " call " << i;
        }
    EXPECT_EQ(exec.circuitsExecuted(),
              static_cast<std::uint64_t>(kThreads * kCallsPerThread));
    EXPECT_EQ(exec.shotsExecuted(), expected_shots);
}

} // namespace
} // namespace varsaw
