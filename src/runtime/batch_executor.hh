/**
 * @file
 * The private, serial, cached execution runtime.
 *
 * BatchExecutor sits between the estimators and an Executor
 * backend: estimators describe a tick's worth of circuits as a
 * Batch; the runtime runs every job inline on the submitting thread,
 * answers repeats from its JobLedger, and returns results in
 * submission order (futures for async consumers, a plain vector for
 * the common blocking case). Parallel execution is the shared
 * ExecutionService's job (RuntimeConfig::service): a one-session
 * service is bit-identical to this runtime. Per-job admission —
 * ledger claim, duplicate deferral, prefix placement — is the
 * admitInline / admitChunked core this runtime shares with the
 * service sessions.
 *
 * Determinism: every job samples from an RNG stream derived purely
 * from its content key — jobStream(makeJobKey(job)) — so a given
 * (backend, circuit, params, shots) submission draws the same shots
 * no matter which thread runs it, when, or how often. Worker
 * scheduling therefore cannot affect any result, caching is pure
 * memoization (a hit returns exactly what re-execution would
 * compute), and independent runtimes or service sessions over one
 * backend agree bit for bit on shared work instead of replaying
 * uncorrelated streams. With the cache on, the JobLedger admits one
 * primary per key (in submission order) and defers duplicates onto
 * its future, keeping backend cost counters and hit/miss statistics
 * worker-count-independent as well.
 */

#ifndef VARSAW_RUNTIME_BATCH_EXECUTOR_HH
#define VARSAW_RUNTIME_BATCH_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "mitigation/executor.hh"
#include "runtime/job_ledger.hh"
#include "runtime/submitter.hh"
#include "sim/state_cache.hh"

namespace varsaw {

/**
 * Latency expectation a submitter declares for its jobs. Purely an
 * accounting label: the runtime and service never reorder or
 * prioritize by it — results and scheduling are class-independent.
 * Under a shared service each class gets its own
 * `service.latency_ns{class=...}` histogram and SLO burn counter
 * (see ServiceConfig::interactiveSloNs / bulkSloNs).
 */
enum class LatencyClass : int
{
    Interactive = 0, //!< human in the loop — tight latency target
    Bulk = 1,        //!< throughput-oriented sweeps — loose target
};

/** Telemetry label value of a latency class ("interactive"/"bulk"). */
const char *latencyClassName(LatencyClass latency_class);

/** Tunables of the execution runtime. */
struct RuntimeConfig
{
    /** Dedupe identical submissions through the ledger. Honored
     * per session under a shared service too: a cache-off session
     * bypasses the shared ledger entirely. */
    bool cacheResults = false;

    /**
     * Tracked-key cap of the dedupe ledger. Ignored under a shared
     * service — the cap of the SHARED ledger is
     * ServiceConfig::cacheMaxEntries, fixed when the service is
     * built.
     */
    std::size_t cacheMaxEntries = 1 << 16;

    /**
     * Shared execution service to open a session on instead of
     * building a private runtime (see runtime/submitter.hh and
     * src/service/execution_service.hh). This is how an estimator
     * gets parallel batch execution: the service's workers are the
     * only batch worker threads. Null — the default — keeps the
     * serial estimator-owned BatchExecutor. Non-owning: the service
     * must outlive every estimator using it.
     */
    ExecutionBackplane *service = nullptr;

    /**
     * Declared latency class of this runtime's submissions. Pure
     * accounting — see LatencyClass. Private BatchExecutors ignore
     * it today; under a shared service it selects the session's
     * `service.latency_ns{class=...}` series and SLO target.
     */
    LatencyClass latencyClass = LatencyClass::Bulk;
};

/**
 * Partition indices [0, keys.size()) into scheduler groups of equal
 * prep identity, preserving first-appearance order of the groups
 * and index order within each group. Groups compare **full**
 * PrepKeys, never their 64-bit combined() digest: two distinct
 * preps whose digests collide share at most a hash bucket — they
 * can never be merged into (or corrupt) one group, and equal keys
 * always serialize into the same group. Exposed for tests.
 */
std::vector<std::vector<std::size_t>>
groupByPrepKey(const std::vector<PrepKey> &keys);

/** The submitter a batch is admitted for (see admitChunked). */
struct Admitter
{
    JobLedger &ledger;
    Executor &backend;
    /** Claim through the ledger (dedupe); off = every job executes. */
    bool cacheResults;
    /** Claim tag: service session id; 0 for a private runtime. */
    std::uint64_t owner = 0;
    /** Detail of the per-job "enqueue" trace events (or null). */
    const char *traceDetail = nullptr;
};

/**
 * A claimed primary submission awaiting execution: everything a
 * worker needs to run it, and everything the service's shed path
 * needs to fail it without running it.
 */
struct PrimaryJob
{
    JobLedger *ledger;
    Executor *backend;
    /** Shared batch storage (one copy per submit, not per job), so
     * futures stay valid even if the caller drops the Batch. */
    std::shared_ptr<const std::vector<CircuitJob>> jobs;
    std::size_t index;
    JobKey key;
    /** The job's prep key, computed at admission (prepKeyFor). */
    PrepKey prepKey;
    /** The ledger claim (null when the submitter's cache is off). */
    std::shared_ptr<std::promise<Pmf>> publish;
    /** Resolves the caller's future. */
    std::shared_ptr<std::promise<Pmf>> done;

    /** Execute via JobLedger::executeAndPublish. A failure
     * (StatusError: quarantine, retries exhausted, invalid job)
     * fails this job's future and nothing else. */
    void run() const;

    /** Fail without executing (admission shed): abandon the ledger
     * claim, so duplicates deferred onto it fail too instead of
     * hanging, and fail the future with @p status. */
    void shed(const Status &status) const;
};

/** Dedupe tallies of one admitted batch. */
struct AdmissionTally
{
    std::uint64_t hits = 0;       //!< duplicates deferred to a primary
    std::uint64_t crossHits = 0;  //!< ... whose primary's owner differs
    std::uint64_t misses = 0;     //!< primaries claimed
    std::uint64_t shotsSaved = 0; //!< shots of the duplicates
};

/** Outcome of admitChunked. */
struct AdmittedBatch
{
    /** Aligned with the batch's job indices. */
    std::vector<std::future<Pmf>> futures;
    /** Primaries to execute, prefix-placed into sequential chunks. */
    std::vector<std::vector<PrimaryJob>> chunks;
    AdmissionTally tally;
};

/**
 * The per-job admission core of the service sessions (BatchExecutor
 * uses its inline form, admitInline), in submission order: content
 * identity (identifyJobs: each job's JobKey, and the PrepKey of each
 * job that executes, hashed once here and carried to the SimEngine),
 * "enqueue" trace event, and — with the cache on — a ledger claim.
 * The ledger decides whether a submission is its key's primary (the
 * one that executes) or a duplicate deferred onto the primary's future
 * (JobLedger::deferToPrimary). Duplicates never execute, so backend
 * cost counters and hit statistics are exact and independent of
 * worker timing; content-derived streams make WHO wins a claim
 * change bookkeeping only, never a result.
 *
 * The primaries come back prefix-placed for @p threads workers: with
 * at least @p threads prep groups (groupByPrepKey), one chunk per
 * group, so a prep's jobs stay on one worker; with fewer, each group
 * is split into contiguous chunks to keep every worker busy. The
 * caller dispatches each chunk as one sequential task.
 */
AdmittedBatch admitChunked(const Admitter &who, const Batch &batch,
                           std::size_t threads);

/**
 * Inline form of admitChunked: each primary executes on the calling
 * thread right after its claim, in submission order, and the batch
 * is never copied. Every returned future is ready except the
 * duplicates', which defer onto already-resolved primaries.
 */
std::vector<std::future<Pmf>> admitInline(const Admitter &who,
                                          const Batch &batch);

/** Serial batched front-end over an Executor backend. */
class BatchExecutor : public JobSubmitter
{
  public:
    /**
     * @param backend Executor that runs (and cost-counts) jobs.
     * @param config  Runtime tunables (config.service is ignored
     *                here — routing happens in makeSubmitter()).
     */
    explicit BatchExecutor(Executor &backend,
                           RuntimeConfig config = {});

    /**
     * Submit every job of @p batch; the returned futures are
     * aligned with the batch's job indices. The jobs run inline
     * before this returns (admitInline), so every future is ready.
     */
    std::vector<std::future<Pmf>> submit(const Batch &batch) override;

    /** The wrapped backend (cost counters live there). */
    Executor &backend() override { return backend_; }
    const Executor &backend() const override { return backend_; }

    /** Runtime configuration in use. */
    const RuntimeConfig &config() const { return config_; }

    /** The dedupe ledger's statistics. */
    CacheStats cacheStats() const override { return ledger_.stats(); }

    /** Jobs submitted through this runtime since construction. */
    std::uint64_t jobsSubmitted() const override
    {
        return nextJobIndex_.load(std::memory_order_relaxed);
    }

  private:
    Executor &backend_;
    RuntimeConfig config_;
    /**
     * Cache mode: submission-order dedupe, result store and LRU.
     * Exactly one backend execution happens per tracked key;
     * duplicates defer onto the primary's future. Eviction past
     * cacheMaxEntries removes the least-recently-claimed key (see
     * runtime/job_ledger.hh) — hot keys survive, and re-executing an
     * evicted key reproduces its result bit for bit because streams
     * are content-derived.
     */
    JobLedger ledger_;
    /** Jobs submitted (statistics only; streams are content-derived). */
    std::atomic<std::uint64_t> nextJobIndex_{0};
};

} // namespace varsaw

#endif // VARSAW_RUNTIME_BATCH_EXECUTOR_HH
