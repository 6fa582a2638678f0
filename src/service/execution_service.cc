#include "service/execution_service.hh"

#include <mutex>
#include <utility>

#include "fault/fault_injector.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace varsaw {

namespace {

/** Service-wide mirror under `service.*`. */
struct ServiceMetrics
{
    telemetry::Counter &sessionsOpened;
    telemetry::Counter &jobsSubmitted;
    telemetry::Counter &crossSessionHits;
    telemetry::Counter &shed;
    telemetry::Counter &inlineAfterShutdown;

    static ServiceMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static ServiceMetrics *m = new ServiceMetrics{
            reg.counter("service.sessions_opened"),
            reg.counter("service.jobs_submitted"),
            reg.counter("service.cross_session_hits"),
            reg.counter("service.shed"),
            reg.counter("service.inline_after_shutdown"),
        };
        return *m;
    }
};

/** Label value identifying a session: its name, or "s<id>". */
std::string
sessionLabel(const Session &session)
{
    if (!session.name().empty())
        return session.name();
    std::string label = "s";
    label += std::to_string(session.id());
    return label;
}

/**
 * Per-session labeled counters under `service.session.*{session=X}`.
 * Looked up once per submit() batch (a registry-mutex lookup), then
 * bumped with the batch's tallies — never per job.
 */
struct SessionBatchMetrics
{
    telemetry::Counter &jobs;
    telemetry::Counter &hits;
    telemetry::Counter &crossHits;
    telemetry::Counter &misses;
    telemetry::Counter &shotsSaved;
    telemetry::Counter &inlineJobs;

    static SessionBatchMetrics
    forSession(const Session &session)
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        const auto label = [&session](const char *base) {
            return telemetry::labeled(
                base, {{"session", sessionLabel(session)}});
        };
        return SessionBatchMetrics{
            reg.counter(label("service.session.jobs_submitted")),
            reg.counter(label("service.session.cache_hits")),
            reg.counter(
                label("service.session.cross_session_hits")),
            reg.counter(label("service.session.cache_misses")),
            reg.counter(label("service.session.shots_saved")),
            reg.counter(label("service.session.inline_jobs")),
        };
    }
};

/**
 * Per-latency-class SLO accounting series: every batch lands in
 * `service.latency_ns{class=...}`; a batch over its class target
 * additionally bumps `service.slo_burn{class=...}`.
 */
struct SloMetrics
{
    telemetry::Histogram &latency;
    telemetry::Counter &burn;

    static SloMetrics &
    forClass(LatencyClass latency_class)
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        const auto make = [&reg](const char *class_name) {
            return SloMetrics{
                reg.histogram(telemetry::labeled(
                    "service.latency_ns",
                    {{"class", class_name}})),
                reg.counter(telemetry::labeled(
                    "service.slo_burn", {{"class", class_name}})),
            };
        };
        static SloMetrics *interactive =
            new SloMetrics(make("interactive"));
        static SloMetrics *bulk = new SloMetrics(make("bulk"));
        return latency_class == LatencyClass::Interactive
            ? *interactive
            : *bulk;
    }
};

/**
 * Submit-to-complete latency tracker for one batch: the LAST chunk
 * to finish (worker, inline, or shed — shed chunks resolve their
 * futures at shed time, which IS their completion) records the
 * batch's wall time under the session's class series. Pure
 * observation: nothing reads the recorded values back.
 */
struct SloState
{
    std::uint64_t submitNs = 0;
    std::uint64_t targetNs = 0;
    LatencyClass latencyClass = LatencyClass::Bulk;
    std::atomic<std::size_t> remaining{0};

    void
    complete()
    {
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            record();
    }

    void
    record() const
    {
        const std::uint64_t latency =
            telemetry::nowNs() - submitNs;
        SloMetrics &m = SloMetrics::forClass(latencyClass);
        m.latency.record(latency);
        if (targetNs != 0 && latency > targetNs)
            m.burn.add();
    }
};

} // namespace

// ---- Session ---------------------------------------------------------------

Session::Session(ExecutionService *service, std::string name,
                 bool cache_results, LatencyClass latency_class)
    : service_(service), name_(std::move(name)),
      id_(service->nextSessionId_.fetch_add(
          1, std::memory_order_relaxed)),
      // The queue carries the session label so the scheduler can
      // attribute per-session queue-wait time (name_ and id_ are
      // initialized above; declaration order guarantees it).
      queue_(service->scheduler_.openQueue(sessionLabel(*this))),
      cacheResults_(cache_results), latencyClass_(latency_class)
{
    service_->sessionsOpened_.fetch_add(1,
                                        std::memory_order_relaxed);
    if (telemetry::metricsEnabled())
        ServiceMetrics::get().sessionsOpened.add();
    service_->registerSession(*this);
}

Session::~Session()
{
    // Drop out of the introspection registry BEFORE the queue
    // closes, so a status snapshot can never see a dying session.
    service_->unregisterSession(*this);
    // Tasks already admitted still run (the queue is reaped once
    // drained); only further admission stops.
    service_->scheduler_.closeQueue(queue_);
}

std::vector<std::future<Pmf>>
Session::submit(const Batch &batch)
{
    return service_->submitFor(*this, batch, false);
}

std::vector<Pmf>
Session::run(const Batch &batch)
{
    auto futures = service_->submitFor(*this, batch, true);
    service_->scheduler_.runQueued(queue_);
    return collect(futures);
}

Executor &
Session::backend()
{
    return service_->backend();
}

const Executor &
Session::backend() const
{
    return service_->backend();
}

CacheStats
Session::cacheStats() const
{
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.shotsSaved = shotsSaved_.load(std::memory_order_relaxed);
    return stats;
}

std::uint64_t
Session::jobsSubmitted() const
{
    return jobs_.load(std::memory_order_relaxed);
}

SessionStats
Session::stats() const
{
    SessionStats stats;
    stats.jobsSubmitted = jobs_.load(std::memory_order_relaxed);
    stats.cacheHits = hits_.load(std::memory_order_relaxed);
    stats.crossSessionHits =
        crossHits_.load(std::memory_order_relaxed);
    stats.cacheMisses = misses_.load(std::memory_order_relaxed);
    stats.shotsSaved = shotsSaved_.load(std::memory_order_relaxed);
    stats.inlineJobs = inlineJobs_.load(std::memory_order_relaxed);
    stats.shedJobs = shed_.load(std::memory_order_relaxed);
    return stats;
}

// ---- ExecutionService ------------------------------------------------------

ExecutionService::ExecutionService(Executor &backend,
                                   ServiceConfig config)
    : backend_(backend), config_(config),
      ledger_(config.cacheMaxEntries),
      scheduler_(resolveServiceThreads(config.threads),
                 config.maxQueueDepth)
{
    config_.threads = scheduler_.threadCount();
    if (config_.kernelThreads > 0)
        setKernelThreads(config_.kernelThreads);
    maybeStartIntrospection();
}

ExecutionService::~ExecutionService()
{
    // Join the introspection endpoint FIRST: its accept thread
    // reads the session registry and the scheduler, both of which
    // shutdown() and member destruction tear down.
    if (introspect_)
        introspect_->stop();
    shutdown();
}

void
ExecutionService::maybeStartIntrospection()
{
    const std::string path = telemetry::introspectPath();
    if (path.empty())
        return;
    auto server = std::make_unique<telemetry::IntrospectServer>();
    server->setStatusProvider([this] { return sessionStatus(); });
    if (!server->start(path))
        return; // start() has already warned
    introspect_ = std::move(server);
}

void
ExecutionService::registerSession(Session &session)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    liveSessions_.emplace(session.id(), &session);
}

void
ExecutionService::unregisterSession(Session &session)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    liveSessions_.erase(session.id());
}

std::vector<telemetry::SessionStatusRow>
ExecutionService::sessionStatus() const
{
    std::vector<telemetry::SessionStatusRow> rows;
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    rows.reserve(liveSessions_.size());
    for (const auto &[id, session] : liveSessions_) {
        telemetry::SessionStatusRow row;
        row.session = sessionLabel(*session);
        row.latencyClass =
            latencyClassName(session->latencyClass_);
        row.jobsSubmitted =
            session->jobs_.load(std::memory_order_relaxed);
        row.cacheHits =
            session->hits_.load(std::memory_order_relaxed);
        row.crossSessionHits =
            session->crossHits_.load(std::memory_order_relaxed);
        row.shedJobs =
            session->shed_.load(std::memory_order_relaxed);
        row.inlineJobs =
            session->inlineJobs_.load(std::memory_order_relaxed);
        row.queueDepth = scheduler_.queueDepth(session->queue_);
        rows.push_back(std::move(row));
    }
    return rows;
}

std::unique_ptr<Session>
ExecutionService::makeSession(std::string name, bool cache_results,
                              LatencyClass latency_class)
{
    return std::unique_ptr<Session>(new Session(
        this, std::move(name), cache_results, latency_class));
}

std::unique_ptr<Session>
ExecutionService::createSession(std::string name)
{
    return makeSession(std::move(name), config_.cacheResults,
                       config_.defaultLatencyClass);
}

std::unique_ptr<Session>
ExecutionService::createSession(std::string name,
                                LatencyClass latency_class)
{
    return makeSession(std::move(name), config_.cacheResults,
                       latency_class);
}

std::unique_ptr<JobSubmitter>
ExecutionService::openSession(Executor &backend,
                              const RuntimeConfig &config)
{
    if (&backend != &backend_)
        panic("ExecutionService::openSession: the estimator's "
              "executor is not this service's backend (results are "
              "backend-specific; open one service per backend)");
    return makeSession({}, config.cacheResults, config.latencyClass);
}

void
ExecutionService::drain()
{
    scheduler_.drain();
}

void
ExecutionService::clearSharedCaches()
{
    ledger_.clear();
}

void
ExecutionService::shutdown()
{
    closed_.store(true, std::memory_order_release);
    scheduler_.shutdown();
}

ServiceStats
ExecutionService::stats() const
{
    ServiceStats stats;
    stats.sessionsOpened =
        sessionsOpened_.load(std::memory_order_relaxed);
    stats.jobsSubmitted =
        jobsSubmitted_.load(std::memory_order_relaxed);
    stats.crossSessionHits =
        crossSessionHits_.load(std::memory_order_relaxed);
    stats.chunksExecuted = scheduler_.chunksExecuted();
    stats.callerChunks = scheduler_.callerChunks();
    stats.kernelAssists = scheduler_.kernelAssists();
    stats.kernelAssistedChunks = scheduler_.assistedChunks();
    stats.shedJobs = shedJobs_.load(std::memory_order_relaxed);
    stats.inlineAfterShutdown =
        inlineAfterShutdown_.load(std::memory_order_relaxed);
    stats.quarantinedKeys = ledger_.quarantinedCount();
    stats.cache = ledger_.stats();
    return stats;
}

std::vector<std::future<Pmf>>
ExecutionService::submitFor(Session &session, const Batch &batch,
                            bool callerHelps)
{
    if (batch.empty())
        return {};

    session.jobs_.fetch_add(batch.size(),
                            std::memory_order_relaxed);
    jobsSubmitted_.fetch_add(batch.size(),
                             std::memory_order_relaxed);

    // Batch-local telemetry tallies, published once after the
    // admission loop so labeled counters cost one registry lookup
    // per batch, not per job.
    const bool metricsOn = telemetry::metricsEnabled();
    const std::uint64_t submitNs =
        metricsOn ? telemetry::nowNs() : 0;
    std::uint64_t tallyInline = 0;

    // Shared-ledger admission in submission order: the first
    // session to claim a key (across ALL tenants) executes it;
    // everyone else — including other sessions — defers onto the
    // primary's future. The admitted chunks capture the service and
    // shared batch storage, never the session, so futures stay valid
    // even if the caller drops the Batch or the Session first. A
    // helping caller is one more executor, so it gets one more
    // chunk.
    const std::string traceLabel =
        telemetry::tracingEnabled() ? sessionLabel(session) : "";
    const int executors =
        scheduler_.threadCount() + (callerHelps ? 1 : 0);
    AdmittedBatch admitted = admitChunked(
        Admitter{ledger_, backend_, session.cacheResults_, session.id_,
                 traceLabel.empty() ? nullptr : traceLabel.c_str()},
        batch, static_cast<std::size_t>(executors));
    const AdmissionTally &tally = admitted.tally;
    session.hits_.fetch_add(tally.hits, std::memory_order_relaxed);
    session.crossHits_.fetch_add(tally.crossHits,
                                 std::memory_order_relaxed);
    session.misses_.fetch_add(tally.misses, std::memory_order_relaxed);
    session.shotsSaved_.fetch_add(tally.shotsSaved,
                                  std::memory_order_relaxed);
    crossSessionHits_.fetch_add(tally.crossHits,
                                std::memory_order_relaxed);

    // Latency-class SLO accounting: the last chunk to complete
    // records the batch's submit-to-complete wall time (SloState).
    // All-hit batches (no chunks) complete right here.
    std::shared_ptr<SloState> slo;
    if (metricsOn) {
        slo = std::make_shared<SloState>();
        slo->submitNs = submitNs;
        slo->latencyClass = session.latencyClass_;
        slo->targetNs =
            session.latencyClass_ == LatencyClass::Interactive
            ? config_.interactiveSloNs
            : config_.bulkSloNs;
        slo->remaining.store(admitted.chunks.size(),
                             std::memory_order_relaxed);
        if (admitted.chunks.empty())
            slo->record();
    }

    // Dispatch: each prefix-placed chunk goes into this session's
    // FIFO queue; the scheduler round-robins across sessions. Three
    // non-Accepted outcomes, all local to the chunk:
    //  - Closed (shutdown, or a shutdown racing this submit): the
    //    chunk runs inline on the submitting thread — same jobs,
    //    same streams, same results (counter
    //    service.inline_after_shutdown + a once-per-service warn).
    //  - Full (queue at ServiceConfig::maxQueueDepth): the chunk is
    //    SHED — every job's future fails with ResourceExhausted and
    //    its ledger claim is abandoned so cross-session duplicates
    //    fail too instead of hanging. Nothing executes; the caller
    //    backs off and resubmits.
    //  - Injected worker stall (fault::FaultSite::WorkerStall,
    //    keyed by the chunk's first job): degrade to inline
    //    execution, as if the worker assigned to the chunk never
    //    picked it up and the submitter reclaimed the work.
    auto &injector = fault::FaultInjector::instance();
    std::uint64_t tallyShed = 0;
    for (auto &chunk : admitted.chunks) {
        auto shared = std::make_shared<const std::vector<PrimaryJob>>(
            std::move(chunk));
        auto runner = [shared, slo] {
            for (const PrimaryJob &p : *shared)
                p.run();
            if (slo)
                slo->complete();
        };

        if (injector.enabled() &&
            injector.shouldInject(fault::FaultSite::WorkerStall,
                                  jobStream(shared->front().key))) {
            session.inlineJobs_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            tallyInline += shared->size();
            runner();
            continue;
        }

        switch (scheduler_.enqueue(session.queue_, runner)) {
        case ServiceScheduler::Admission::Accepted:
            break;
        case ServiceScheduler::Admission::Full: {
            const Status status = resourceExhaustedError(
                "session admission queue is full (maxQueueDepth=" +
                std::to_string(scheduler_.maxQueueDepth()) +
                "): job shed — back off and resubmit");
            for (const PrimaryJob &p : *shared)
                p.shed(status);
            session.shed_.fetch_add(shared->size(),
                                    std::memory_order_relaxed);
            shedJobs_.fetch_add(shared->size(),
                                std::memory_order_relaxed);
            tallyShed += shared->size();
            // The shed chunk's futures have all resolved
            // (exceptionally) — that IS its completion.
            if (slo)
                slo->complete();
            break;
        }
        case ServiceScheduler::Admission::Closed:
            if (!warnedLateInline_.exchange(
                    true, std::memory_order_relaxed))
                warn("ExecutionService: admission closed "
                     "(shutdown); late submissions execute inline "
                     "on the submitting thread");
            session.inlineJobs_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            inlineAfterShutdown_.fetch_add(
                shared->size(), std::memory_order_relaxed);
            tallyInline += shared->size();
            if (metricsOn)
                ServiceMetrics::get().inlineAfterShutdown.add(
                    shared->size());
            runner();
            break;
        }
    }

    if (metricsOn) {
        ServiceMetrics &svc = ServiceMetrics::get();
        svc.jobsSubmitted.add(batch.size());
        svc.crossSessionHits.add(tally.crossHits);
        svc.shed.add(tallyShed);
        SessionBatchMetrics m =
            SessionBatchMetrics::forSession(session);
        m.jobs.add(batch.size());
        m.hits.add(tally.hits);
        m.crossHits.add(tally.crossHits);
        m.misses.add(tally.misses);
        m.shotsSaved.add(tally.shotsSaved);
        m.inlineJobs.add(tallyInline);
    }
    return std::move(admitted.futures);
}

} // namespace varsaw
