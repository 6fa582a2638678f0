#include "runtime/batch_executor.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace.hh"
#include "util/rng.hh"

namespace varsaw {

namespace {

/** Submission-side mirror under `runtime.batch_executor.*`. */
struct BatchMetrics
{
    telemetry::Counter &jobsSubmitted;
    telemetry::Counter &batchesSubmitted;

    static BatchMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static BatchMetrics *m = new BatchMetrics{
            reg.counter("runtime.batch_executor.jobs_submitted"),
            reg.counter(
                "runtime.batch_executor.batches_submitted"),
        };
        return *m;
    }
};

} // namespace

const char *
latencyClassName(LatencyClass latency_class)
{
    return latency_class == LatencyClass::Interactive
        ? "interactive"
        : "bulk";
}

BatchExecutor::BatchExecutor(Executor &backend, RuntimeConfig config)
    : backend_(backend), config_(config),
      ledger_(config.cacheMaxEntries)
{
}

std::vector<std::vector<std::size_t>>
groupByPrepKey(const std::vector<PrepKey> &keys)
{
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<PrepKey, std::size_t, PrepKeyHasher> group_of;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto [it, inserted] =
            group_of.try_emplace(keys[i], groups.size());
        if (inserted)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

namespace {

/**
 * Prefix-aware placement: partition indices [0, keys.size()) of
 * submission-ordered jobs tagged by @p keys into sequential chunks.
 * With at least @p threads prep groups, one chunk per group — a
 * prep's jobs stay on one worker, its first job populates the
 * SimEngine's state cache and the rest hit it without contending
 * with other threads. With fewer groups, each is split into enough
 * contiguous chunks to keep every worker busy (the engine tolerates
 * the resulting cross-thread sharing via its shared futures and
 * still prepares each key exactly once). Chunk composition is a
 * pure function of (keys, threads); purely a placement policy —
 * results and streams are assigned at submission and cannot change.
 */
std::vector<std::vector<std::size_t>>
prefixScheduleIndexChunks(const std::vector<PrepKey> &keys,
                          std::size_t threads)
{
    // Group indices by full prep key (digest collisions cannot
    // merge distinct preps), preserving first-appearance order of
    // the groups and submission order within each group.
    const auto groups = groupByPrepKey(keys);

    std::vector<std::vector<std::size_t>> chunks;
    const std::size_t per_group_chunks =
        groups.empty() || groups.size() >= threads
            ? 1
            : (threads + groups.size() - 1) / groups.size();
    for (const auto &group : groups) {
        const std::size_t chunk_size = std::max<std::size_t>(
            1, (group.size() + per_group_chunks - 1) /
                   per_group_chunks);
        for (std::size_t begin = 0; begin < group.size();
             begin += chunk_size) {
            const std::size_t end =
                std::min(group.size(), begin + chunk_size);
            chunks.emplace_back(group.begin() + begin,
                                group.begin() + end);
        }
    }
    return chunks;
}

/**
 * Trace and (cache on) claim one submission. Returns false for a
 * duplicate, whose deferred future is appended to @p futures; true
 * for a job this submission must execute, with its ledger claim (if
 * any) in @p publish.
 */
bool
claimOne(const Admitter &who, const CircuitJob &job, const JobKey &key,
         std::shared_ptr<std::promise<Pmf>> &publish,
         std::vector<std::future<Pmf>> &futures, AdmissionTally &tally)
{
    if (telemetry::tracingEnabled())
        telemetry::SpanTracer::instance().instant(
            "enqueue", jobStream(key), who.traceDetail);
    if (!who.cacheResults)
        return true;
    std::uint64_t primary_owner = 0;
    JobLedger::Claim claim = [&] {
        telemetry::ScopedPhase phase(telemetry::Phase::LedgerLookup);
        return who.ledger.claim(key, job.shots, who.owner,
                                &primary_owner);
    }();
    if (claim.duplicate()) {
        ++tally.hits;
        tally.shotsSaved += job.shots;
        if (primary_owner != who.owner)
            ++tally.crossHits;
        futures.push_back(JobLedger::deferToPrimary(std::move(claim)));
        return false;
    }
    ++tally.misses;
    publish = std::move(claim.publish);
    return true;
}

} // namespace

void
PrimaryJob::run() const
{
    try {
        done->set_value(ledger->executeAndPublish(
            *backend, (*jobs)[index].view(prepKey), key, publish));
    } catch (...) {
        done->set_exception(std::current_exception());
    }
}

void
PrimaryJob::shed(const Status &status) const
{
    if (publish)
        ledger->abandon(key, publish, status);
    done->set_exception(std::make_exception_ptr(StatusError(status)));
}

AdmittedBatch
admitChunked(const Admitter &who, const Batch &batch,
             std::size_t threads)
{
    AdmittedBatch admitted;
    admitted.futures.reserve(batch.size());
    auto jobs = std::make_shared<const std::vector<CircuitJob>>(
        batch.jobs());
    const std::vector<JobIdentity> ids = identifyJobs(*jobs);
    std::vector<PrimaryJob> primaries;
    std::vector<PrepKey> primary_keys;
    for (std::size_t i = 0; i < jobs->size(); ++i) {
        const JobIdentity &id = ids[i];
        std::shared_ptr<std::promise<Pmf>> publish;
        if (!claimOne(who, (*jobs)[i], id.key, publish,
                      admitted.futures, admitted.tally))
            continue;
        // An explicit promise rather than a packaged_task, so the
        // shed path can fail the future without running the job.
        auto done = std::make_shared<std::promise<Pmf>>();
        admitted.futures.push_back(done->get_future());
        const PrepKey prep_key = prepKeyFor((*jobs)[i], id);
        primaries.push_back({&who.ledger, &who.backend, jobs, i, id.key,
                             prep_key, std::move(publish),
                             std::move(done)});
        primary_keys.push_back(prep_key);
    }
    for (const auto &indices :
         prefixScheduleIndexChunks(primary_keys, threads)) {
        auto &chunk = admitted.chunks.emplace_back();
        chunk.reserve(indices.size());
        for (std::size_t i : indices)
            chunk.push_back(std::move(primaries[i]));
    }
    return admitted;
}

std::vector<std::future<Pmf>>
admitInline(const Admitter &who, const Batch &batch)
{
    std::vector<std::future<Pmf>> futures;
    futures.reserve(batch.size());
    AdmissionTally tally;
    const std::vector<JobIdentity> ids = identifyJobs(batch.jobs());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const CircuitJob &job = batch.jobs()[i];
        const JobIdentity &id = ids[i];
        std::shared_ptr<std::promise<Pmf>> publish;
        if (!claimOne(who, job, id.key, publish, futures, tally))
            continue;
        std::promise<Pmf> done;
        try {
            done.set_value(who.ledger.executeAndPublish(
                who.backend, job.view(prepKeyFor(job, id)), id.key,
                publish));
        } catch (...) {
            done.set_exception(std::current_exception());
        }
        futures.push_back(done.get_future());
    }
    return futures;
}

std::vector<std::future<Pmf>>
BatchExecutor::submit(const Batch &batch)
{
    nextJobIndex_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (telemetry::metricsEnabled()) {
        auto &m = BatchMetrics::get();
        m.batchesSubmitted.add();
        m.jobsSubmitted.add(batch.size());
    }
    const Admitter who{ledger_, backend_, config_.cacheResults};
    return admitInline(who, batch);
}

} // namespace varsaw
