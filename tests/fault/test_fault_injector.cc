/**
 * @file
 * Tests for the deterministic fault injector (fault/): plan
 * parsing, decision determinism, burst capping, stats, and the
 * virtual fault-handling clock.
 *
 * The injector is process-wide, so every test restores the
 * installed plan (and zeroes the stats) on exit via PlanGuard —
 * gtest runs tests serially within the binary, so this is enough
 * to keep tests independent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/fault_injector.hh"

namespace varsaw::fault {
namespace {

/** Restores the process-wide plan + stats at scope exit. */
class PlanGuard
{
  public:
    PlanGuard() : saved_(FaultInjector::instance().plan()) {}

    ~PlanGuard()
    {
        FaultInjector::instance().configure(saved_);
        FaultInjector::instance().resetStats();
    }

    PlanGuard(const PlanGuard &) = delete;
    PlanGuard &operator=(const PlanGuard &) = delete;

  private:
    FaultPlan saved_;
};

TEST(FaultInjector, ParsePlanAcceptsFullSpec)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan(
        "seed=7,exec_transient=0.2,latency_spike=0.1,"
        "latency_ns=1000,worker_stall=0.05,cache_insert=0.5,"
        "corrupt=0.25,burst=3,virtual_time=1,retries=9,"
        "backoff_ns=500,max_backoff_ns=4000,deadline_ns=123456",
        plan, error))
        << error;
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.executorTransientRate, 0.2);
    EXPECT_DOUBLE_EQ(plan.latencySpikeRate, 0.1);
    EXPECT_EQ(plan.latencySpikeNs, 1000u);
    EXPECT_DOUBLE_EQ(plan.workerStallRate, 0.05);
    EXPECT_DOUBLE_EQ(plan.stateCacheInsertRate, 0.5);
    EXPECT_DOUBLE_EQ(plan.corruptionRate, 0.25);
    EXPECT_EQ(plan.burst, 3);
    EXPECT_TRUE(plan.virtualTime);
    EXPECT_EQ(plan.retryAttempts, 9);
    EXPECT_EQ(plan.retryBackoffNs, 500u);
    EXPECT_EQ(plan.retryMaxBackoffNs, 4000u);
    EXPECT_EQ(plan.deadlineNs, 123456u);
    EXPECT_TRUE(plan.enabled());
}

TEST(FaultInjector, ParsePlanStartsFromGivenPlan)
{
    // Parsing updates only the mentioned keys.
    FaultPlan plan;
    plan.seed = 42;
    plan.burst = 4;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("exec_transient=0.5", plan, error))
        << error;
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_EQ(plan.burst, 4);
    EXPECT_DOUBLE_EQ(plan.executorTransientRate, 0.5);
}

TEST(FaultInjector, ParsePlanRejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;

    EXPECT_FALSE(parseFaultPlan("no_such_key=1", plan, error));
    EXPECT_NE(error.find("unknown fault plan key"),
              std::string::npos);

    EXPECT_FALSE(parseFaultPlan("seed", plan, error));
    EXPECT_NE(error.find("without '='"), std::string::npos);

    // Rates must lie in [0, 1].
    EXPECT_FALSE(parseFaultPlan("exec_transient=1.5", plan, error));
    EXPECT_FALSE(parseFaultPlan("corrupt=-0.1", plan, error));
    EXPECT_FALSE(parseFaultPlan("latency_spike=abc", plan, error));

    // burst and retries must be >= 1; virtual_time is 0/1 only.
    EXPECT_FALSE(parseFaultPlan("burst=0", plan, error));
    EXPECT_FALSE(parseFaultPlan("retries=0", plan, error));
    EXPECT_FALSE(parseFaultPlan("virtual_time=yes", plan, error));

    EXPECT_FALSE(parseFaultPlan("seed=", plan, error));
    EXPECT_FALSE(parseFaultPlan("seed=12x", plan, error));

    // Counts are plain decimal digits: no sign (-1 used to wrap to
    // 2^64 - 1), no leading space, nothing an int cannot hold.
    EXPECT_FALSE(parseFaultPlan("seed=-1", plan, error));
    EXPECT_FALSE(parseFaultPlan("seed=+1", plan, error));
    EXPECT_FALSE(parseFaultPlan("deadline_ns= 5", plan, error));
    EXPECT_FALSE(parseFaultPlan("latency_ns=-5", plan, error));
    EXPECT_FALSE(parseFaultPlan("retries=-3", plan, error));
    EXPECT_FALSE(parseFaultPlan("burst=4294967298", plan, error));
    EXPECT_NE(error.find("bad value for fault plan key 'burst'"),
              std::string::npos);
}

TEST(FaultInjector, ParsePlanKeepsZeroSeedAndDeadline)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("seed=0,deadline_ns=0,backoff_ns=0",
                               plan, error))
        << error;
    EXPECT_EQ(plan.seed, 0u);
    EXPECT_EQ(plan.deadlineNs, 0u);
    EXPECT_EQ(plan.retryBackoffNs, 0u);
}

TEST(FaultInjector, ParsePlanSkipsEmptyItems)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan(",seed=9,,", plan, error)) << error;
    EXPECT_EQ(plan.seed, 9u);
}

TEST(FaultInjector, ZeroRatePlanIsDisabledAndNeverInjects)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    inj.configure(FaultPlan{}); // all rates zero
    inj.resetStats();

    EXPECT_FALSE(inj.enabled());
    for (std::uint64_t key = 0; key < 64; ++key)
        for (int site = 0; site < kFaultSiteCount; ++site)
            EXPECT_FALSE(inj.shouldInject(
                static_cast<FaultSite>(site), key));
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, DecisionsAreDeterministicPerKey)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    FaultPlan plan;
    plan.seed = 1234;
    plan.executorTransientRate = 0.5;
    inj.configure(plan);

    // The decision for (site, key, attempt) never changes between
    // calls, and a fraction-of-keys rate injects at SOME keys and
    // spares others.
    int injected = 0;
    for (std::uint64_t key = 0; key < 256; ++key) {
        const bool first = inj.shouldInject(
            FaultSite::ExecutorTransient, key, 0);
        const bool second = inj.shouldInject(
            FaultSite::ExecutorTransient, key, 0);
        EXPECT_EQ(first, second) << "key " << key;
        injected += first ? 1 : 0;
    }
    EXPECT_GT(injected, 0);
    EXPECT_LT(injected, 256);

    // Different seed => a different (not globally identical)
    // decision set for the same keys.
    plan.seed = 4321;
    inj.configure(plan);
    int differs = 0;
    for (std::uint64_t key = 0; key < 256; ++key) {
        const bool before = inj.shouldInject(
            FaultSite::ExecutorTransient, key, 0);
        plan.seed = 1234;
        inj.configure(plan);
        const bool after = inj.shouldInject(
            FaultSite::ExecutorTransient, key, 0);
        plan.seed = 4321;
        inj.configure(plan);
        differs += before != after ? 1 : 0;
    }
    EXPECT_GT(differs, 0);
}

TEST(FaultInjector, BurstCapsConsecutiveRetriedFailures)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    FaultPlan plan;
    plan.executorTransientRate = 1.0;
    plan.corruptionRate = 1.0;
    plan.latencySpikeRate = 1.0;
    plan.burst = 2;
    inj.configure(plan);

    // Retried-failure sites fail attempts 0..burst-1 and never
    // attempt >= burst: retries > burst always converges.
    for (const auto site : {FaultSite::ExecutorTransient,
                            FaultSite::ResultCorruption}) {
        EXPECT_TRUE(inj.shouldInject(site, 77, 0));
        EXPECT_TRUE(inj.shouldInject(site, 77, 1));
        EXPECT_FALSE(inj.shouldInject(site, 77, 2));
        EXPECT_FALSE(inj.shouldInject(site, 77, 3));
    }
    // A latency spike costs no retry, so the cap does not apply.
    EXPECT_TRUE(
        inj.shouldInject(FaultSite::LatencySpike, 77, 10));
}

TEST(FaultInjector, StatsCountInjectionsBySite)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    FaultPlan plan;
    plan.executorTransientRate = 1.0;
    plan.workerStallRate = 1.0;
    plan.burst = 1;
    inj.configure(plan);
    inj.resetStats();

    ASSERT_TRUE(
        inj.shouldInject(FaultSite::ExecutorTransient, 1, 0));
    ASSERT_TRUE(
        inj.shouldInject(FaultSite::ExecutorTransient, 2, 0));
    ASSERT_TRUE(inj.shouldInject(FaultSite::WorkerStall, 3));
    // Suppressed decisions (burst cap, zero-rate site) don't count.
    ASSERT_FALSE(
        inj.shouldInject(FaultSite::ExecutorTransient, 1, 5));
    ASSERT_FALSE(inj.shouldInject(FaultSite::LatencySpike, 4));

    const FaultStats stats = inj.stats();
    EXPECT_EQ(stats.injected[static_cast<int>(
                  FaultSite::ExecutorTransient)],
              2u);
    EXPECT_EQ(
        stats.injected[static_cast<int>(FaultSite::WorkerStall)],
        1u);
    EXPECT_EQ(
        stats.injected[static_cast<int>(FaultSite::LatencySpike)],
        0u);
    EXPECT_EQ(stats.total(), 3u);

    inj.resetStats();
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, VirtualClockAdvancesOnSleep)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    FaultPlan plan;
    plan.virtualTime = true;
    inj.configure(plan);

    // configure() resets the virtual clock to zero.
    EXPECT_EQ(inj.nowNs(), 0u);
    inj.sleepFor(1'000);
    EXPECT_EQ(inj.nowNs(), 1'000u);
    inj.sleepFor(0);
    EXPECT_EQ(inj.nowNs(), 1'000u);
    // Virtual sleeps are not capped: hours pass instantly.
    inj.sleepFor(3'600'000'000'000ull);
    EXPECT_EQ(inj.nowNs(), 3'600'000'001'000ull);
}

TEST(FaultInjector, RealClockIsMonotonic)
{
    PlanGuard guard;
    auto &inj = FaultInjector::instance();
    inj.configure(FaultPlan{}); // virtualTime = false

    const std::uint64_t a = inj.nowNs();
    const std::uint64_t b = inj.nowNs();
    EXPECT_GE(b, a);
    EXPECT_GT(a, 0u);
}

TEST(FaultInjector, DefaultRetryPolicyMirrorsPlan)
{
    PlanGuard guard;
    FaultPlan plan;
    plan.retryAttempts = 7;
    plan.retryBackoffNs = 111;
    plan.retryMaxBackoffNs = 999;
    plan.deadlineNs = 5555;
    FaultInjector::instance().configure(plan);

    const RetryPolicy policy = defaultRetryPolicy();
    EXPECT_EQ(policy.maxAttempts, 7);
    EXPECT_EQ(policy.baseBackoffNs, 111u);
    EXPECT_EQ(policy.maxBackoffNs, 999u);
    EXPECT_EQ(policy.deadlineNs, 5555u);
}

TEST(FaultInjector, SiteNamesMatchTelemetrySuffixes)
{
    EXPECT_STREQ(faultSiteName(FaultSite::ExecutorTransient),
                 "executor_transient");
    EXPECT_STREQ(faultSiteName(FaultSite::LatencySpike),
                 "latency_spike");
    EXPECT_STREQ(faultSiteName(FaultSite::WorkerStall),
                 "worker_stall");
    EXPECT_STREQ(faultSiteName(FaultSite::StateCacheInsert),
                 "cache_insert");
    EXPECT_STREQ(faultSiteName(FaultSite::ResultCorruption),
                 "corruption");
}

} // namespace
} // namespace varsaw::fault
