/**
 * @file
 * Submission-order-deterministic dedupe ledger: the runtime's one
 * content-addressed result store.
 *
 * The runtime analogue of VarSaw's spatial redundancy elimination:
 * identical (circuit, params, shots) submissions — within a batch,
 * across estimator ticks, or across service sessions — execute once.
 * Each submitted job key is claimed here BEFORE execution, in
 * submission order, under one lock. The first claim of a key becomes
 * its **primary** (the submission that executes and publishes);
 * every later claim while the key is tracked is a **duplicate**
 * answered from the primary's shared future. That future IS the
 * cached result: once the primary publishes, the entry holds the one
 * resident copy of the Pmf. Tracked keys form an LRU list maintained
 * at claim time — a point that depends only on the submitted key
 * sequence, never on worker timing — so when the ledger reaches its
 * entry cap it evicts exactly the least-recently-claimed key instead
 * of bulk clearing everything: hot keys (a VQA loop's per-iteration
 * working set) survive the boundary, and which keys are resident is
 * reproducible across thread counts for a given submission
 * sequence.
 *
 * Because sampling streams are content-derived (see jobStream), an
 * evicted key's re-execution reproduces the evicted result bit for
 * bit; eviction therefore trades only work, never results. On a
 * workload with no duplicate submissions every claim is a miss and
 * results are bit-identical to cache-off.
 */

#ifndef VARSAW_RUNTIME_JOB_LEDGER_HH
#define VARSAW_RUNTIME_JOB_LEDGER_HH

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "sim/circuit_hash.hh"
#include "sim/job.hh"
#include "util/pmf.hh"
#include "util/status.hh"

namespace varsaw {

class Executor;

/**
 * Dedupe and result-store accounting, counted once, by the ledger
 * (see JobLedger::stats()).
 */
struct CacheStats
{
    /** Duplicate claims answered from a primary's future (each one
     * a circuit execution avoided). */
    std::uint64_t hits = 0;

    /** Primary claims admitted (one backend execution each). */
    std::uint64_t misses = 0;

    /** Primaries whose result became resident (their key was still
     * tracked when they published). */
    std::uint64_t insertions = 0;

    /** Resident results dropped: LRU past the cap, clear(), or a
     * retracted key. insertions - evictions always equals the
     * number of resident results. */
    std::uint64_t evictions = 0;

    /** Shots avoided across all hits. */
    std::uint64_t shotsSaved = 0;

    /** Keys quarantined after a failed execution. */
    std::uint64_t quarantined = 0;

    /** Submissions refused because their key was quarantined. */
    std::uint64_t quarantineRejections = 0;

    /** Claims abandoned before execution (admission shed). */
    std::uint64_t abandoned = 0;

    /** hits / (hits + misses); 0 when no claims happened. */
    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/** Dedupe decision, result store and LRU for cached execution. */
class JobLedger
{
  public:
    /**
     * @param max_entries Tracked-key cap; claiming past it evicts
     *                    the least-recently-claimed key (and its
     *                    cached result) one at a time.
     */
    explicit JobLedger(std::size_t max_entries);

    /** Outcome of claiming one submission. */
    struct Claim
    {
        /** Valid iff this submission is a duplicate: the result (or
         * in-flight future) of the key's primary. */
        std::shared_future<Pmf> primary;

        /** Set iff this submission is the key's primary: execute the
         * job and store() the result through it. */
        std::shared_ptr<std::promise<Pmf>> publish;

        bool duplicate() const { return primary.valid(); }
    };

    /**
     * Claim @p key in submission order: touch it in the LRU, decide
     * primary vs duplicate, and evict past the cap. A duplicate is
     * a hit that saves @p shots; a primary is a miss.
     *
     * @p owner tags a new primary with the claiming party (a
     * service session id; private runtimes pass 0). On a duplicate,
     * @p primary_owner (when non-null) receives the primary's tag —
     * how the service counts cross-session hits.
     */
    Claim claim(const JobKey &key, std::uint64_t shots,
                std::uint64_t owner = 0,
                std::uint64_t *primary_owner = nullptr);

    /**
     * Publish a primary's computed result to @p publish (resolving
     * every waiting duplicate) and make it the key's resident cached
     * result — unless the key was evicted or cleared while the
     * primary was in flight, in which case only the waiters see it.
     */
    void store(const JobKey &key,
               const std::shared_ptr<std::promise<Pmf>> &publish,
               const Pmf &result);

    /**
     * The future a duplicate submission returns: a deferred wait on
     * its primary's shared future, executed on the CONSUMER's
     * thread at get() time — no pool worker ever blocks on another
     * task.
     */
    static std::future<Pmf> deferToPrimary(Claim claim);

    /**
     * Execute a submission on @p backend with stream jobStream(key)
     * and run the primary-side bookkeeping in its one canonical
     * order: execute, store() through @p publish (when non-null —
     * cache-off paths never claimed and pass null), return the
     * result. @p job goes to the backend as given, so admission
     * passes a view carrying the prep key it computed.
     *
     * Fault tolerance: execution goes through
     * Executor::tryExecuteJob (deadline + bounded retry). A
     * quarantined key fails fast with FailedPrecondition before
     * touching the backend. When every attempt fails, the key is
     * quarantined, its ledger entry is dropped, the failure is
     * published to @p publish (so waiting duplicates see the same
     * StatusError), and a StatusError is thrown to the caller.
     */
    Pmf executeAndPublish(
        Executor &backend, const JobView &job, const JobKey &key,
        const std::shared_ptr<std::promise<Pmf>> &publish);

    /**
     * Retract a claimed-but-never-executed primary (admission shed
     * under backpressure): drop the key's ledger entry and publish
     * @p status as a StatusError on @p publish so every duplicate
     * already deferred to this primary fails with the same typed
     * error instead of waiting forever. Does NOT quarantine — the
     * job was never executed, so resubmission is expected to work.
     */
    void abandon(const JobKey &key,
                 const std::shared_ptr<std::promise<Pmf>> &publish,
                 const Status &status);

    /** Whether @p key is quarantined (poisoned by a failed
     * execution; submissions fail fast until clearQuarantine()). */
    bool isQuarantined(const JobKey &key) const;

    /** Number of quarantined keys. */
    std::size_t quarantinedCount() const;

    /**
     * Release every quarantined key (operator intervention after
     * the underlying fault is fixed). Quarantine survives clear():
     * clearing dedupe state must not silently re-admit poison jobs.
     */
    void clearQuarantine();

    /** Snapshot of the accounting. */
    CacheStats stats() const;

    /**
     * Drop every tracked key and its cached result. Safe at any
     * time, including with primaries in flight: duplicates already
     * deferred keep their shared futures, and a cleared in-flight
     * primary's result simply never becomes resident. Because
     * results are pure functions of job content, clearing can only
     * cost re-execution, never change a result — use it to release
     * memory or to isolate measurement phases that must not share
     * work (e.g. comparing methods under a circuit budget).
     */
    void clear();

    /** Tracked-key cap. */
    std::size_t maxEntries() const { return maxEntries_; }

    /** Currently tracked keys (in-flight and completed). */
    std::size_t size() const;

  private:
    struct Entry
    {
        /** The primary's result: in flight until published, then
         * the key's cached result. */
        std::shared_future<Pmf> primary;
        /** Claiming party of the primary (session id; 0 private). */
        std::uint64_t owner = 0;
        /** Whether the result is resident (counted as an insertion;
         * dropping it counts as an eviction). */
        bool stored = false;
        /** Position in lru_ (spliced to the front on every claim). */
        std::list<JobKey>::iterator lruIt;
    };

    /** Erase @p it (and its LRU slot), counting a resident result
     * as an eviction. Caller holds mutex_. */
    void eraseLocked(
        std::unordered_map<JobKey, Entry, JobKeyHasher>::iterator it);

    /** Drop @p key's entry if tracked. Caller holds mutex_. */
    void dropEntryLocked(const JobKey &key);

    mutable std::mutex mutex_;
    std::size_t maxEntries_;
    std::unordered_map<JobKey, Entry, JobKeyHasher> entries_;
    /** Tracked keys, most recently claimed first. */
    std::list<JobKey> lru_;
    /** Poisoned keys (failed execution); not cleared by clear(). */
    std::unordered_set<JobKey, JobKeyHasher> quarantine_;
    CacheStats stats_;
};

} // namespace varsaw

#endif // VARSAW_RUNTIME_JOB_LEDGER_HH
