/**
 * @file
 * The unified worker scheduler of the shared execution service.
 *
 * One fixed set of worker threads serves BOTH kinds of work in the
 * process:
 *
 *  - **Batch tasks** — type-erased job closures enqueued by service
 *    sessions. Admission is fair FIFO across sessions: each session
 *    owns a queue, tasks stay FIFO within it, and workers
 *    round-robin across the non-empty queues, so a chatty session
 *    cannot starve a quiet one.
 *  - **Kernel chunks** — engaged statevector sweeps published
 *    through util/parallel.hh. A worker with no batch task lends
 *    itself to an active kernel loop (detail::assistOneKernelJob)
 *    and returns when the loop is exhausted; conversely, a worker
 *    executing a batch task that engages a kernel gets helped by
 *    its idle peers. This replaces the two competing thread sets
 *    (batch pool x kernel pool) and with them the manual
 *    "batchThreads x kernelThreads <= cores" sizing rule: the
 *    service's workers ARE the process's thread supply.
 *
 * Determinism: the scheduler only decides WHERE and WHEN work runs.
 * Batch results are pure functions of job content (content-derived
 * streams), kernel chunk decomposition is fixed (util/parallel.hh),
 * so no placement, fairness, or lending decision can change any
 * output bit.
 *
 * Backpressure: each admission queue is depth-bounded (the
 * maxQueueDepth construction parameter; 0 = unbounded). enqueue()
 * never blocks — a full queue is a typed rejection
 * (Admission::Full) so the submitting session can SHED the work
 * with a ResourceExhausted error instead of queueing unboundedly or
 * stalling the submit path.
 *
 * Lent callers: a thread that is about to wait for its own queue's
 * tasks can run them itself (runQueued). It pops through the same
 * path as a worker, so queue gauges, queue-wait attribution, chunk
 * metrics and drain() see one kind of task, but it only ever pops
 * the queue it names: round-robin across queues stays the workers'
 * business, and a caller never runs another queue's task.
 *
 * Shutdown: stop accepting, drain every queue, join the workers,
 * and wait for tasks lent callers are still running. Tasks already
 * enqueued always run; enqueue() after shutdown returns
 * Admission::Closed and the caller runs the task inline.
 */

#ifndef VARSAW_SERVICE_SCHEDULER_HH
#define VARSAW_SERVICE_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"

namespace varsaw {

/** Fair multi-queue worker pool with kernel-assist (see file doc). */
class ServiceScheduler
{
  public:
    /** Outcome of one admission attempt (see enqueue()). */
    enum class Admission
    {
        Accepted, //!< queued; a worker will run the task
        Full,     //!< queue at depth cap — shed or retry later
        Closed,   //!< shutting down / queue closed — run inline
    };

    /**
     * Spawn @p threads workers (at least one).
     *
     * @param max_queue_depth Per-queue admission cap: an enqueue
     *        that would make a queue deeper than this returns
     *        Admission::Full without queueing. 0 = unbounded (the
     *        historical behaviour).
     */
    explicit ServiceScheduler(int threads,
                              std::size_t max_queue_depth = 0);

    /** shutdown() if not already done. */
    ~ServiceScheduler();

    ServiceScheduler(const ServiceScheduler &) = delete;
    ServiceScheduler &operator=(const ServiceScheduler &) = delete;

    /**
     * Open an admission queue (one per session). @p label names the
     * owner in telemetry (the per-session `queue_wait` series); an
     * empty label keeps the queue anonymous (global series only).
     */
    std::uint64_t openQueue(std::string label = {});

    /**
     * Close an admission queue: no further enqueues; tasks already
     * queued still run, and the queue is reaped once empty.
     */
    void closeQueue(std::uint64_t queue);

    /**
     * Append a task to @p queue. Never blocks. Returns
     * Admission::Closed — without queuing — when the scheduler is
     * shutting down or the queue is closed (the caller must then
     * run the task itself: results cannot depend on which side runs
     * it), and Admission::Full when the queue is at its depth cap
     * (the caller sheds the task with a typed error — the one
     * admission outcome where the task does NOT run).
     */
    Admission enqueue(std::uint64_t queue,
                      std::function<void()> task);

    /** Per-queue admission cap (0 = unbounded). */
    std::size_t maxQueueDepth() const { return maxQueueDepth_; }

    /** Chunks currently waiting in @p queue (0 for unknown ids). */
    std::size_t queueDepth(std::uint64_t queue) const;

    /**
     * Run @p queue's tasks on the calling thread, in FIFO order,
     * until the queue is empty; returns how many this call ran.
     * Only @p queue is touched — never another queue's task — and
     * a task run here counts as running for drain() and shutdown()
     * exactly like a worker's. Workers may pop from the same queue
     * concurrently; each task runs once either way. Tasks must not
     * throw, here as on a worker (a session's chunks never do:
     * each job's failure lands in its future).
     */
    std::size_t runQueued(std::uint64_t queue);

    /** Block until no task is queued or running (on a worker or a
     * lent caller). */
    void drain();

    /**
     * Stop accepting work, drain every queue, join the workers and
     * wait for every task a lent caller (runQueued) is running, so
     * no task runs once this returns. Idempotent and safe to call
     * concurrently — with enqueues (they fail over to inline
     * execution) and with other shutdown callers (every caller
     * returns only once the queues are drained, the workers are
     * joined and no task is running).
     */
    void shutdown();

    /** Number of worker threads. */
    int threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Admitted task closures executed so far, by the workers and by
     * lent callers (runQueued) alike. The unit is the enqueued
     * closure — for service sessions one prefix-schedule CHUNK of
     * jobs, not one job; see ServiceStats::jobsSubmitted for job
     * counts.
     */
    std::uint64_t chunksExecuted() const
    {
        return chunksExecuted_.load(std::memory_order_relaxed);
    }

    /** The part of chunksExecuted() that lent callers ran on their
     * own threads (runQueued). */
    std::uint64_t callerChunks() const
    {
        return callerChunks_.load(std::memory_order_relaxed);
    }

    /**
     * Kernel loops idle workers were lent to so far (one count per
     * assist engagement; see assistedChunks() for the work done).
     */
    std::uint64_t kernelAssists() const
    {
        return kernelAssists_.load(std::memory_order_relaxed);
    }

    /**
     * Kernel chunks actually run by lent idle workers. This is the
     * work that used to be invisible: it shows up in neither
     * chunksExecuted() (not a batch task) nor the standalone pool's
     * helper counts (assist hosts bypass the pool's own workers).
     * With it, this scheduler's utilization adds up:
     * chunksExecuted() batch closures + assistedChunks() kernel
     * chunks is everything its threads ever ran.
     */
    std::uint64_t assistedChunks() const
    {
        return assistedChunks_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * One admitted chunk. enqueueNs is nonzero only when telemetry
     * was observing at admission: it marks the entry as counted in
     * the `service.queue_depth` gauge (so enable/disable races
     * cannot leak the gauge) and carries the timestamp the
     * queue-wait attribution is computed from at pop. Timestamps
     * are never read for scheduling — pure observation.
     */
    struct Entry
    {
        std::function<void()> task;
        std::uint64_t enqueueNs = 0;
    };

    struct Queue
    {
        std::deque<Entry> tasks;
        bool open = true;
        /** Telemetry label of the owning session ("" = anonymous). */
        std::string label;
        /** Lazily resolved per-session queue-wait series. */
        telemetry::Histogram *waitHist = nullptr;
    };

    using QueueMap = std::map<std::uint64_t, Queue>;

    /**
     * The one pop: take the front task of the non-empty queue at
     * @p it and count it running. Does the queue gauges and the
     * queue-wait attribution, and reaps the queue if it is closed
     * and now empty. Caller holds mutex_.
     */
    std::function<void()> popLocked(QueueMap::iterator it);

    /** Pop the next task round-robin. Caller holds mutex_ and has
     * checked queuedCount_ > 0. */
    std::function<void()> popNextLocked();

    /**
     * Run a task popLocked() returned, under the "chunk" span and
     * the chunk metrics, then count it done and wake drain() and
     * shutdown() once nothing is queued or running. @p byCaller
     * marks a lent caller's task (callerChunks()).
     */
    void runPopped(const std::function<void()> &task, bool byCaller);

    void workerLoop();

    /** Kernel-assist wake callback (registered with util/parallel). */
    void signalKernelWork();

    mutable std::mutex mutex_;
    std::size_t maxQueueDepth_ = 0; //!< 0 = unbounded
    std::condition_variable workCv_; //!< workers wait here
    std::condition_variable idleCv_; //!< drain() waits here
    /** Admission queues by id (ordered, for stable round-robin). */
    QueueMap queues_;
    std::uint64_t nextQueueId_ = 1;
    /** Queue id served last; the scan resumes after it. */
    std::uint64_t cursor_ = 0;
    std::size_t queuedCount_ = 0;
    /** Tasks popped and not yet finished, on workers or lent
     * callers. */
    int runningCount_ = 0;
    bool stopping_ = false;
    bool joined_ = false;
    /** Bumped (under mutex_) when a kernel loop is published. */
    std::uint64_t kernelSignals_ = 0;
    std::atomic<std::uint64_t> chunksExecuted_{0};
    std::atomic<std::uint64_t> callerChunks_{0};
    std::atomic<std::uint64_t> kernelAssists_{0};
    std::atomic<std::uint64_t> assistedChunks_{0};
    int assistHostId_ = -1;
    std::vector<std::thread> workers_;
};

} // namespace varsaw

#endif // VARSAW_SERVICE_SCHEDULER_HH
