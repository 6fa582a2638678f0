/**
 * @file
 * The submission interface estimators program against.
 *
 * A JobSubmitter turns Batches into result futures. Two
 * implementations exist:
 *
 *  - BatchExecutor (runtime/batch_executor.hh): the private,
 *    estimator-owned runtime — its own worker pool and ledger;
 *  - Session (src/service/execution_service.hh): a cheap handle
 *    onto the process-wide ExecutionService, sharing one scheduler
 *    and one set of caches with every other session.
 *
 * Estimators hold a JobSubmitter and never know which one they got:
 * makeSubmitter() picks based on RuntimeConfig::service (and the
 * VARSAW_SHARED_SERVICE test shim). Both implementations derive
 * every job's sampling stream from its content key (jobStream), so
 * the two paths — and any mix of them — produce bit-identical
 * results for the same backend.
 *
 * Layering: this header lives in runtime/ so estimators depend only
 * on runtime/; service/ implements the interface from above
 * (service/ may include runtime/, never the reverse — the
 * ExecutionBackplane indirection is what keeps the arrow pointing
 * one way).
 */

#ifndef VARSAW_RUNTIME_SUBMITTER_HH
#define VARSAW_RUNTIME_SUBMITTER_HH

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "runtime/job_ledger.hh"
#include "sim/job.hh"
#include "util/pmf.hh"

namespace varsaw {

class Executor;
struct RuntimeConfig;

/** Batched circuit-submission front-end (see file comment). */
class JobSubmitter
{
  public:
    virtual ~JobSubmitter() = default;

    /**
     * Submit every job of @p batch; the returned futures are aligned
     * with the batch's job indices.
     */
    virtual std::vector<std::future<Pmf>>
    submit(const Batch &batch) = 0;

    /** The backend jobs execute on (cost counters live there). */
    virtual Executor &backend() = 0;
    virtual const Executor &backend() const = 0;

    /**
     * Dedupe statistics as seen by this submitter: the private
     * ledger's stats for a BatchExecutor, this session's share of the
     * service-wide ledger for a Session.
     */
    virtual CacheStats cacheStats() const = 0;

    /** Jobs submitted through this submitter since construction. */
    virtual std::uint64_t jobsSubmitted() const = 0;

    /** Submit and wait: results aligned with the job indices. */
    std::vector<Pmf> run(const Batch &batch);

    /** Convenience: run a single job through the submitter. */
    Pmf runOne(const Circuit &circuit,
               const std::vector<double> &params,
               std::uint64_t shots);
};

/**
 * A source of sessions: something that can open a JobSubmitter onto
 * a backend. Implemented by service::ExecutionService; referenced
 * (as a pointer in RuntimeConfig) from runtime/ without depending on
 * the service layer.
 */
class ExecutionBackplane
{
  public:
    virtual ~ExecutionBackplane() = default;

    /**
     * Open a session for an estimator whose jobs run on @p backend.
     * Implementations reject (panic) backends other than their own:
     * cached results are meaningless across different backends.
     */
    virtual std::unique_ptr<JobSubmitter>
    openSession(Executor &backend, const RuntimeConfig &config) = 0;
};

/**
 * Build the submitter an estimator should use: a session of
 * config.service when one is set; otherwise a session of the
 * process-wide backplane when one is installed (the
 * VARSAW_SHARED_SERVICE=1 test shim routes every estimator through
 * shared services this way); otherwise a private BatchExecutor.
 */
std::unique_ptr<JobSubmitter> makeSubmitter(Executor &backend,
                                            const RuntimeConfig &config);

/**
 * Install/clear the process-wide backplane factory consulted by
 * makeSubmitter() when RuntimeConfig::service is unset. Receives
 * the backend and config; returns a session or null (null falls
 * back to a private BatchExecutor). Used by the service layer's
 * env-var shim; not a general extension point.
 */
void setProcessBackplane(
    std::unique_ptr<JobSubmitter> (*factory)(Executor &,
                                             const RuntimeConfig &));

} // namespace varsaw

#endif // VARSAW_RUNTIME_SUBMITTER_HH
