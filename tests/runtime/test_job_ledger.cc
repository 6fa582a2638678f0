/**
 * @file
 * Unit tests for the dedupe ledger as the runtime's one result
 * store: hit/miss semantics, key separation, claim-time LRU
 * eviction, the resident-result accounting invariant, and
 * end-to-end transparency of the cache on VarSaw ticks.
 */

#include <gtest/gtest.h>

#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "mitigation/executor.hh"
#include "noise/device_model.hh"
#include "runtime/job_ledger.hh"
#include "vqa/ansatz.hh"

namespace varsaw {
namespace {

Pmf
pointMass(int bits, std::uint64_t outcome)
{
    Pmf pmf(bits);
    pmf.set(outcome, 1.0);
    return pmf;
}

CircuitJob
tfimJob(double theta, std::uint64_t shots)
{
    Circuit c(2);
    c.ry(0, theta).cx(0, 1).measureAll();
    return {c, {}, shots, nullptr};
}

/** The content key of @p job. */
JobKey
keyOf(const CircuitJob &job)
{
    return makeJobKey(job.view());
}

/** Claim @p key and, if primary, publish a placeholder result. */
JobLedger::Claim
claimAndStore(JobLedger &ledger, const JobKey &key)
{
    JobLedger::Claim claim = ledger.claim(key, key.shots);
    if (!claim.duplicate())
        ledger.store(key, claim.publish, pointMass(2, 0));
    return claim;
}

TEST(JobLedger, MissThenHit)
{
    IdealExecutor exec(1);
    JobLedger ledger(8);
    const CircuitJob job = tfimJob(0.3, 1024);
    const JobKey key = keyOf(job);

    auto primary = ledger.claim(key, job.shots);
    ASSERT_FALSE(primary.duplicate());
    const Pmf result = ledger.executeAndPublish(exec, job.view(), key,
                                                primary.publish);

    // The primary's future IS the cached result.
    auto hit = ledger.claim(key, job.shots);
    ASSERT_TRUE(hit.duplicate());
    EXPECT_EQ(hit.primary.get(), result);
    EXPECT_EQ(exec.circuitsExecuted(), 1u);

    const CacheStats stats = ledger.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.shotsSaved, 1024u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(JobLedger, DistinctParamsAndShotsNeverCollide)
{
    JobLedger ledger(8);
    claimAndStore(ledger, keyOf(tfimJob(0.3, 1024)));

    // Different angle, different shot count, and a different circuit
    // must all be fresh primaries.
    EXPECT_FALSE(
        claimAndStore(ledger, keyOf(tfimJob(0.31, 1024)))
            .duplicate());
    EXPECT_FALSE(
        claimAndStore(ledger, keyOf(tfimJob(0.3, 2048)))
            .duplicate());
    Circuit other(2);
    other.ry(0, 0.3).cx(1, 0).measureAll();
    EXPECT_FALSE(
        claimAndStore(ledger,
                      keyOf(CircuitJob{other, {}, 1024, nullptr}))
            .duplicate());

    // The original still hits.
    EXPECT_TRUE(
        ledger.claim(keyOf(tfimJob(0.3, 1024)), 1024).duplicate());
}

TEST(JobLedger, SymbolicParamsKeyedByValues)
{
    Circuit c(1);
    c.ryParam(0, 0).measureAll();
    JobLedger ledger(8);
    claimAndStore(ledger, keyOf(CircuitJob{c, {0.5}, 64, nullptr}));
    EXPECT_TRUE(
        ledger.claim(keyOf(CircuitJob{c, {0.5}, 64, nullptr}), 64)
            .duplicate());
    EXPECT_FALSE(
        ledger.claim(keyOf(CircuitJob{c, {0.6}, 64, nullptr}), 64)
            .duplicate());
}

TEST(JobLedger, LruEvictionRespectsCap)
{
    JobLedger ledger(2);
    const JobKey k1 = keyOf(tfimJob(0.1, 1));
    const JobKey k2 = keyOf(tfimJob(0.2, 1));
    const JobKey k3 = keyOf(tfimJob(0.3, 1));
    claimAndStore(ledger, k1);
    claimAndStore(ledger, k2);
    claimAndStore(ledger, k3);

    EXPECT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger.stats().evictions, 1u);
    EXPECT_TRUE(ledger.claim(k3, 1).duplicate());
    EXPECT_TRUE(ledger.claim(k2, 1).duplicate());
    // The least recently claimed key was the victim.
    EXPECT_FALSE(ledger.claim(k1, 1).duplicate());
}

TEST(JobLedger, LruEvictsColdKeysKeepsHotOnes)
{
    // The submission-order-deterministic LRU that replaced the
    // reproducibility bulk-clear: pushing past the cap evicts the
    // least-recently-claimed key only, so a hot key survives any
    // number of one-shot claims.
    JobLedger ledger(2);
    auto key = [](std::uint64_t n) {
        return JobKey{n, 0, 64};
    };

    auto hot = ledger.claim(key(1), 64);
    ASSERT_FALSE(hot.duplicate());
    ledger.store(key(1), hot.publish, Pmf(1));

    for (std::uint64_t cold = 2; cold < 6; ++cold) {
        // Touch the hot key, then claim a fresh cold one: the cap
        // (2) forces an eviction that must always pick the cold
        // predecessor, never the just-touched hot key.
        auto again = ledger.claim(key(1), 64);
        ASSERT_TRUE(again.duplicate());
        auto fresh = ledger.claim(key(cold), 64);
        ASSERT_FALSE(fresh.duplicate());
        ledger.store(key(cold), fresh.publish, Pmf(1));
        EXPECT_EQ(ledger.size(), 2u);
    }
    EXPECT_TRUE(ledger.claim(key(1), 64).duplicate());
    // Cold keys were evicted: claiming one again is a fresh miss.
    auto evicted = ledger.claim(key(2), 64);
    EXPECT_FALSE(evicted.duplicate());
    evicted.publish->set_value(Pmf(1));
}

TEST(JobLedger, ClearDropsEntriesKeepsStats)
{
    JobLedger ledger(8);
    const JobKey key = keyOf(tfimJob(0.3, 8));
    claimAndStore(ledger, key);
    EXPECT_TRUE(ledger.claim(key, 8).duplicate());
    ledger.clear();
    EXPECT_EQ(ledger.size(), 0u);
    EXPECT_EQ(ledger.stats().hits, 1u);
    // Cleared: the next claim is a fresh primary again.
    EXPECT_FALSE(ledger.claim(key, 8).duplicate());
    EXPECT_EQ(ledger.stats().misses, 2u);
}

TEST(JobLedger, ResidentResultsEqualInsertionsMinusEvictions)
{
    // insertions - evictions counts the results the ledger holds,
    // whatever dropped an entry: an LRU victim, an in-flight
    // primary evicted before it published, an abandoned claim, a
    // quarantined key, or clear(). Checked at points where nothing
    // is in flight, so every tracked entry holds a result.
    IdealExecutor exec(1);
    JobLedger ledger(2);
    auto resident = [&ledger] {
        const CacheStats stats = ledger.stats();
        return stats.insertions - stats.evictions;
    };
    auto execute = [&](const CircuitJob &job,
                       const JobLedger::Claim &claim) {
        return ledger.executeAndPublish(exec, job.view(),
                                        keyOf(job), claim.publish);
    };
    auto claim = [&ledger](const CircuitJob &job) {
        return ledger.claim(keyOf(job), job.shots);
    };
    const CircuitJob a = tfimJob(0.1, 32), b = tfimJob(0.2, 32),
                     c = tfimJob(0.3, 32), d = tfimJob(0.4, 32),
                     e = tfimJob(0.5, 32), f = tfimJob(0.6, 32);

    // LRU eviction of a resident result.
    execute(a, claim(a));
    execute(b, claim(b));
    execute(c, claim(c)); // evicts a
    EXPECT_EQ(ledger.stats().evictions, 1u);
    EXPECT_EQ(resident(), ledger.size());

    // Eviction of an in-flight primary: d is claimed (evicting b),
    // picks up a duplicate, and is pushed out by e and f before it
    // publishes. Its waiter still resolves; nothing becomes resident.
    const auto d_claim = claim(d);
    const auto d_dup = claim(d);
    ASSERT_TRUE(d_dup.duplicate());
    const auto e_claim = claim(e); // evicts c
    const auto f_claim = claim(f); // evicts in-flight d
    const Pmf d_result = execute(d, d_claim);
    EXPECT_EQ(d_dup.primary.get(), d_result);
    EXPECT_EQ(ledger.stats().insertions, 3u);
    EXPECT_EQ(resident(), 0u);

    // Abandoned claim: dropped without a result.
    ledger.abandon(keyOf(e), e_claim.publish,
                   resourceExhaustedError("shed"));
    EXPECT_EQ(ledger.stats().abandoned, 1u);
    execute(f, f_claim);
    EXPECT_EQ(resident(), ledger.size());
    EXPECT_EQ(resident(), 1u);

    // Quarantine: a job with no measurements fails permanently.
    Circuit unmeasured(2);
    unmeasured.h(0);
    const CircuitJob poison{unmeasured, {}, 32, nullptr};
    EXPECT_THROW(execute(poison, claim(poison)), StatusError);
    EXPECT_EQ(ledger.stats().quarantined, 1u);
    EXPECT_EQ(resident(), ledger.size());

    // clear() drops every resident result as an eviction.
    ledger.clear();
    EXPECT_EQ(ledger.size(), 0u);
    EXPECT_EQ(resident(), 0u);
}

/**
 * Cache-on vs cache-off on one VarSaw TFIM tick: the reported
 * energy is identical, while the cache removes the tick's genuine
 * runtime-level redundancy — the Z-type bases all compile to the
 * same fully-measured Global circuit (I and Z need no rotation
 * gates), so only one of them actually executes.
 *
 * The energy match is exact because with window size 2 every TFIM
 * basis has a single window, so reconstruction pins each term's
 * marginal to the shared subset locals and the (deduped) Global
 * samples cancel out of the energy.
 */
TEST(JobLedger, VarsawTickIdenticalWithCacheOnAndOff)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(33);
    const DeviceModel device = DeviceModel::uniform(4, 0.03, 0.06);

    struct Tick
    {
        double energy;
        std::uint64_t circuits;
        CacheStats stats;
    };
    auto tick = [&](bool cache_on) {
        NoisyExecutor exec(device,
                           GateNoiseMode::AnalyticDepolarizing, 11);
        VarsawConfig config;
        config.subsetShots = 2048;
        config.globalShots = 4096;
        config.runtime.cacheResults = cache_on;
        VarsawEstimator est(h, ansatz.circuit(), exec, config);
        const double energy = est.estimate(params);
        return Tick{energy, exec.circuitsExecuted(),
                    est.runtime().cacheStats()};
    };

    const Tick off = tick(false);
    const Tick on = tick(true);
    EXPECT_DOUBLE_EQ(off.energy, on.energy);
    EXPECT_EQ(off.stats.hits, 0u); // cache off: never consulted
    // Cache on: the duplicate Z-basis Globals are answered from the
    // ledger, and only those.
    EXPECT_GT(on.stats.hits, 0u);
    EXPECT_EQ(on.circuits + on.stats.hits, off.circuits);
}

/** Re-evaluating at identical parameters is answered from cache. */
TEST(JobLedger, RepeatedVarsawTickHitsCache)
{
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(33);

    IdealExecutor exec(5);
    VarsawConfig config;
    config.subsetShots = 512;
    config.globalShots = 1024;
    config.runtime.cacheResults = true;
    VarsawEstimator est(h, ansatz.circuit(), exec, config);

    est.estimate(params);
    const std::uint64_t circuits_first = exec.circuitsExecuted();
    ASSERT_GT(circuits_first, 0u);

    est.estimate(params); // same params: every job repeats
    const CacheStats stats = est.runtime().cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.misses, circuits_first);
    // Every tick-2 submission was answered from cache: the backend
    // executed nothing new.
    EXPECT_EQ(exec.circuitsExecuted(), circuits_first);
}

} // namespace
} // namespace varsaw
