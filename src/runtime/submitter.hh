/**
 * @file
 * The submission interface estimators program against.
 *
 * A JobSubmitter turns Batches into result futures. Two
 * implementations exist:
 *
 *  - BatchExecutor (runtime/batch_executor.hh): the private,
 *    estimator-owned runtime — serial (every job runs inline on the
 *    submitting thread) with its own ledger;
 *  - Session (src/service/execution_service.hh): a cheap handle
 *    onto a shared ExecutionService, whose scheduler owns every
 *    batch worker thread and whose caches every session shares.
 *
 * Estimators hold a JobSubmitter and never know which one they got:
 * makeSubmitter() picks based on RuntimeConfig::service. Both
 * implementations derive every job's sampling stream from its
 * content key (jobStream), so the two paths — and any mix of them —
 * produce bit-identical results for the same backend.
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

    /**
     * Submit and wait: results aligned with the job indices. The
     * base form is submit() then wait; a Session overrides it to run
     * its own queued chunks on the calling thread while it waits.
     */
    virtual std::vector<Pmf> run(const Batch &batch);

  protected:
    /** Wait for every future: the results, in order. */
    static std::vector<Pmf>
    collect(std::vector<std::future<Pmf>> &futures);
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
 * config.service when one is set, otherwise a serial private
 * BatchExecutor.
 */
std::unique_ptr<JobSubmitter> makeSubmitter(Executor &backend,
                                            const RuntimeConfig &config);

} // namespace varsaw

#endif // VARSAW_RUNTIME_SUBMITTER_HH
