#include "service/scheduler.hh"

#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

#include <utility>

namespace varsaw {

namespace {

/** Worker-utilization mirror under `service.scheduler.*`, plus the
 * admission-queue visibility gauges: `service.queue_depth` (chunks
 * waiting across every queue) and `service.queue_age_us` (age of
 * the chunk a worker or lent caller most recently dequeued). */
struct SchedulerMetrics
{
    telemetry::Counter &chunksExecuted;
    telemetry::Counter &callerChunks;
    telemetry::Counter &kernelAssists;
    telemetry::Counter &assistedChunks;
    telemetry::Histogram &chunkLatencyNs;
    telemetry::Gauge &queueDepth;
    telemetry::Gauge &queueAgeUs;

    static SchedulerMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static SchedulerMetrics *m = new SchedulerMetrics{
            reg.counter("service.scheduler.chunks_executed"),
            reg.counter("service.scheduler.caller_chunks"),
            reg.counter("service.scheduler.kernel_assists"),
            reg.counter("service.scheduler.assisted_chunks"),
            reg.histogram("service.scheduler.chunk_latency_ns"),
            reg.gauge("service.queue_depth"),
            reg.gauge("service.queue_age_us"),
        };
        return *m;
    }
};

} // namespace

ServiceScheduler::ServiceScheduler(int threads,
                                   std::size_t max_queue_depth)
    : maxQueueDepth_(max_queue_depth)
{
    if (threads < 1)
        panic("ServiceScheduler: thread count must be >= 1");
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    // Register as a kernel-assist host AFTER the workers exist:
    // from here on, idle workers are the process's kernel helper
    // supply and the standalone kernel pool spawns no threads.
    assistHostId_ =
        detail::addKernelAssistHost([this] { signalKernelWork(); });
}

ServiceScheduler::~ServiceScheduler()
{
    shutdown();
}

void
ServiceScheduler::signalKernelWork()
{
    {
        // Under mutex_ so a worker between predicate check and
        // sleep cannot miss the wake.
        std::lock_guard<std::mutex> lock(mutex_);
        ++kernelSignals_;
    }
    workCv_.notify_all();
}

std::uint64_t
ServiceScheduler::openQueue(std::string label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = nextQueueId_++;
    Queue queue;
    queue.label = std::move(label);
    queues_.emplace(id, std::move(queue));
    return id;
}

void
ServiceScheduler::closeQueue(std::uint64_t queue)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queues_.find(queue);
    if (it == queues_.end())
        return;
    if (it->second.tasks.empty())
        queues_.erase(it); // nothing pending: reap immediately
    else
        it->second.open = false; // reaped by popNextLocked()
}

ServiceScheduler::Admission
ServiceScheduler::enqueue(std::uint64_t queue,
                          std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return Admission::Closed;
        auto it = queues_.find(queue);
        if (it == queues_.end() || !it->second.open)
            return Admission::Closed;
        if (maxQueueDepth_ != 0 &&
            it->second.tasks.size() >= maxQueueDepth_)
            return Admission::Full;
        // A shed (Full) or closed admission never reaches here, so
        // the depth gauge counts exactly the entries a pop will
        // later decrement — typed-shed paths cannot leak depth. The
        // timestamp doubles as the "counted" marker (see Entry).
        Entry entry{std::move(task), 0};
        if (telemetry::metricsEnabled() ||
            telemetry::profilerEnabled()) {
            entry.enqueueNs = telemetry::nowNs();
            SchedulerMetrics::get().queueDepth.add(1);
        }
        it->second.tasks.push_back(std::move(entry));
        ++queuedCount_;
    }
    workCv_.notify_one();
    return Admission::Accepted;
}

std::function<void()>
ServiceScheduler::popLocked(QueueMap::iterator it)
{
    Entry entry = std::move(it->second.tasks.front());
    it->second.tasks.pop_front();
    --queuedCount_;
    ++runningCount_;
    if (entry.enqueueNs != 0) {
        // Queue-wait attribution + the visibility gauges.
        // Observation only: the timestamps never influence which
        // task was picked.
        const std::uint64_t age = telemetry::nowNs() - entry.enqueueNs;
        auto &m = SchedulerMetrics::get();
        m.queueDepth.add(-1);
        m.queueAgeUs.set(static_cast<std::int64_t>(age / 1000));
        if (telemetry::profilerEnabled()) {
            telemetry::recordPhaseNs(telemetry::Phase::QueueWait,
                                     age);
            if (!it->second.waitHist && !it->second.label.empty())
                it->second.waitHist =
                    &telemetry::sessionPhaseHistogram(
                        telemetry::Phase::QueueWait,
                        it->second.label);
            if (it->second.waitHist)
                it->second.waitHist->record(age);
        }
    }
    if (!it->second.open && it->second.tasks.empty())
        queues_.erase(it); // closed and drained: reap
    return std::move(entry.task);
}

std::function<void()>
ServiceScheduler::popNextLocked()
{
    // Round-robin: resume the scan strictly after the queue served
    // last, wrapping once. queuedCount_ > 0 guarantees a hit.
    auto it = queues_.upper_bound(cursor_);
    for (std::size_t scanned = 0; scanned <= queues_.size();
         ++scanned) {
        if (it == queues_.end())
            it = queues_.begin();
        if (!it->second.tasks.empty()) {
            cursor_ = it->first;
            return popLocked(it);
        }
        ++it;
    }
    panic("ServiceScheduler: queuedCount_ out of sync");
    return {};
}

void
ServiceScheduler::runPopped(const std::function<void()> &task,
                            bool byCaller)
{
    {
        telemetry::ScopedSpan span("chunk", 0);
        task();
        if (telemetry::metricsEnabled()) {
            auto &m = SchedulerMetrics::get();
            m.chunksExecuted.add();
            if (byCaller)
                m.callerChunks.add();
            if (span.armed())
                m.chunkLatencyNs.record(span.elapsedNs());
        }
    }
    chunksExecuted_.fetch_add(1, std::memory_order_relaxed);
    if (byCaller)
        callerChunks_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    --runningCount_;
    if (queuedCount_ == 0 && runningCount_ == 0)
        idleCv_.notify_all();
}

std::size_t
ServiceScheduler::runQueued(std::uint64_t queue)
{
    std::size_t ran = 0;
    for (;;) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = queues_.find(queue);
            if (it == queues_.end() || it->second.tasks.empty())
                return ran;
            task = popLocked(it);
        }
        runPopped(task, true);
        ++ran;
    }
}

void
ServiceScheduler::workerLoop()
{
    std::uint64_t seen_signals = 0;
    for (;;) {
        std::function<void()> task;
        bool assist = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                return stopping_ || queuedCount_ > 0 ||
                    kernelSignals_ != seen_signals;
            });
            if (queuedCount_ > 0) {
                // Drain batch work first — also on shutdown, so
                // every accepted task runs before the workers exit.
                task = popNextLocked();
            } else if (stopping_) {
                return;
            } else {
                seen_signals = kernelSignals_;
                assist = true;
            }
        }
        if (task) {
            runPopped(task, false);
        } else if (assist) {
            // Idle: lend this worker to engaged kernel loops until
            // none need help, then go back to waiting for batch
            // work.
            std::uint64_t ran;
            while ((ran = detail::assistOneKernelJob()) > 0) {
                kernelAssists_.fetch_add(1,
                                         std::memory_order_relaxed);
                assistedChunks_.fetch_add(
                    ran, std::memory_order_relaxed);
                if (telemetry::metricsEnabled()) {
                    auto &m = SchedulerMetrics::get();
                    m.kernelAssists.add();
                    m.assistedChunks.add(ran);
                }
            }
        }
    }
}

std::size_t
ServiceScheduler::queueDepth(std::uint64_t queue) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = queues_.find(queue);
    return it == queues_.end() ? 0 : it->second.tasks.size();
}

void
ServiceScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [&] {
        return queuedCount_ == 0 && runningCount_ == 0;
    });
}

void
ServiceScheduler::shutdown()
{
    bool joiner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (joined_)
            return;
        if (!stopping_) {
            stopping_ = true;
            joiner = true; // first caller performs the join
        }
    }
    if (!joiner) {
        // A concurrent shutdown is in flight: block until ITS join
        // completes, so every returning caller sees the documented
        // post-condition (queues drained, workers gone).
        std::unique_lock<std::mutex> lock(mutex_);
        idleCv_.wait(lock, [&] { return joined_; });
        return;
    }
    workCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    {
        // The workers drained every queue, and admission is closed,
        // so nothing new can start; a lent caller may still be
        // running a task it popped before that.
        std::unique_lock<std::mutex> lock(mutex_);
        idleCv_.wait(lock, [&] { return runningCount_ == 0; });
    }
    // Unregister only after the workers are gone: the wake callback
    // references this object, and removeKernelAssistHost()
    // guarantees no further invocation once it returns.
    if (assistHostId_ >= 0)
        detail::removeKernelAssistHost(assistHostId_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        joined_ = true;
    }
    idleCv_.notify_all();
}

} // namespace varsaw
