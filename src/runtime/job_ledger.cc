#include "runtime/job_ledger.hh"

#include <utility>

#include "mitigation/executor.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace varsaw {

namespace {

/**
 * Ledger accounting mirror under `runtime.ledger.*` (one counter per
 * CacheStats event, aggregated across every ledger) plus the per-job
 * execution latency histogram. Trace events correlate stages of one
 * job by jobStream(key) — a pure content function, so the same
 * submission carries the same id across runs and sessions.
 */
struct LedgerMetrics
{
    telemetry::Counter &dedupeHits;
    telemetry::Counter &claims;
    telemetry::Counter &insertions;
    telemetry::Counter &evictions;
    telemetry::Counter &shotsSaved;
    telemetry::Counter &quarantined;
    telemetry::Histogram &jobLatencyNs;

    static LedgerMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static LedgerMetrics *m = new LedgerMetrics{
            reg.counter("runtime.ledger.dedupe_hits"),
            reg.counter("runtime.ledger.claims"),
            reg.counter("runtime.ledger.insertions"),
            reg.counter("runtime.ledger.evictions"),
            reg.counter("runtime.ledger.shots_saved"),
            reg.counter("service.quarantined"),
            reg.histogram("runtime.job_latency_ns"),
        };
        return *m;
    }
};

} // namespace

JobLedger::JobLedger(std::size_t max_entries)
    : maxEntries_(max_entries)
{
    if (maxEntries_ == 0)
        panic("JobLedger: max_entries must be positive");
}

JobLedger::Claim
JobLedger::claim(const JobKey &key, std::uint64_t shots,
                 std::uint64_t owner, std::uint64_t *primary_owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        ++stats_.hits;
        stats_.shotsSaved += shots;
        if (telemetry::metricsEnabled()) {
            auto &m = LedgerMetrics::get();
            m.dedupeHits.add();
            m.shotsSaved.add(shots);
        }
        if (telemetry::tracingEnabled())
            telemetry::SpanTracer::instance().instant(
                "dedupe-hit", jobStream(key));
        if (primary_owner)
            *primary_owner = it->second.owner;
        return {it->second.primary, nullptr};
    }

    // New primary. Evict least-recently-claimed keys first so the
    // tracked set never exceeds the cap; both the eviction point and
    // the victim depend only on the claimed key sequence. An evicted
    // in-flight primary keeps running — its waiters hold shared
    // futures — but its result never becomes resident.
    while (entries_.size() >= maxEntries_)
        eraseLocked(entries_.find(lru_.back()));
    auto publish = std::make_shared<std::promise<Pmf>>();
    Entry entry{publish->get_future().share(), owner, false, {}};
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
    entries_.emplace(key, std::move(entry));
    ++stats_.misses;
    if (telemetry::metricsEnabled())
        LedgerMetrics::get().claims.add();
    if (telemetry::tracingEnabled())
        telemetry::SpanTracer::instance().instant("claim",
                                                  jobStream(key));
    return {{}, std::move(publish)};
}

void
JobLedger::store(const JobKey &key,
                 const std::shared_ptr<std::promise<Pmf>> &publish,
                 const Pmf &result)
{
    publish->set_value(result);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    // Evicted while in flight: waiters use the future, nothing is
    // resident. Already stored: a stale primary of a re-claimed key
    // published the same content first.
    if (it == entries_.end() || it->second.stored)
        return;
    it->second.stored = true;
    ++stats_.insertions;
    if (telemetry::metricsEnabled())
        LedgerMetrics::get().insertions.add();
}

std::future<Pmf>
JobLedger::deferToPrimary(Claim claim)
{
    return std::async(std::launch::deferred,
                      [primary = std::move(claim.primary)] {
                          return primary.get();
                      });
}

Pmf
JobLedger::executeAndPublish(
    Executor &backend, const JobView &job, const JobKey &key,
    const std::shared_ptr<std::promise<Pmf>> &publish)
{
    // Quarantine fast path: a poisoned key never reaches the
    // backend again until clearQuarantine(). The claimed entry (if
    // any) is retracted so a post-clearQuarantine resubmission gets
    // a fresh primary.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (quarantine_.count(key) != 0) {
            ++stats_.quarantineRejections;
            dropEntryLocked(key);
            Status status = failedPreconditionError(
                "job key is quarantined after a failed execution "
                "(clearQuarantine() to re-admit)");
            if (publish)
                publish->set_exception(std::make_exception_ptr(
                    StatusError(status)));
            throw StatusError(std::move(status));
        }
    }

    telemetry::ScopedSpan span("job", jobStream(key));
    StatusOr<Pmf> result =
        backend.tryExecuteJob(job, jobStream(key));
    if (!result.ok()) {
        // Poison job: retries exhausted (or permanently invalid).
        // Quarantine the key, retract its entry and fail the
        // primary's future so waiting duplicates see the same typed
        // error.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (quarantine_.insert(key).second)
                ++stats_.quarantined;
            dropEntryLocked(key);
        }
        if (telemetry::metricsEnabled())
            LedgerMetrics::get().quarantined.add();
        if (telemetry::tracingEnabled())
            telemetry::SpanTracer::instance().instant(
                "quarantine", jobStream(key));
        warn("JobLedger: quarantining job (stream=" +
             std::to_string(jobStream(key)) +
             "): " + result.status().toString());
        if (publish)
            publish->set_exception(std::make_exception_ptr(
                StatusError(result.status())));
        throw StatusError(result.status());
    }
    if (telemetry::metricsEnabled() && span.armed())
        LedgerMetrics::get().jobLatencyNs.record(span.elapsedNs());
    if (publish)
        store(key, publish, *result);
    if (telemetry::tracingEnabled())
        telemetry::SpanTracer::instance().instant(
            "complete", jobStream(key));
    return std::move(result).value();
}

void
JobLedger::abandon(const JobKey &key,
                   const std::shared_ptr<std::promise<Pmf>> &publish,
                   const Status &status)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropEntryLocked(key);
        ++stats_.abandoned;
    }
    if (publish)
        publish->set_exception(
            std::make_exception_ptr(StatusError(status)));
}

bool
JobLedger::isQuarantined(const JobKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.count(key) != 0;
}

std::size_t
JobLedger::quarantinedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.size();
}

void
JobLedger::clearQuarantine()
{
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_.clear();
}

CacheStats
JobLedger::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
JobLedger::eraseLocked(
    std::unordered_map<JobKey, Entry, JobKeyHasher>::iterator it)
{
    if (it->second.stored) {
        ++stats_.evictions;
        if (telemetry::metricsEnabled())
            LedgerMetrics::get().evictions.add();
    }
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
}

void
JobLedger::dropEntryLocked(const JobKey &key)
{
    auto it = entries_.find(key);
    if (it != entries_.end())
        eraseLocked(it);
}

void
JobLedger::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Every resident result is dropped: insertions - evictions is
    // exactly their count.
    const std::uint64_t dropped =
        stats_.insertions - stats_.evictions;
    stats_.evictions += dropped;
    if (telemetry::metricsEnabled() && dropped > 0)
        LedgerMetrics::get().evictions.add(dropped);
    entries_.clear();
    lru_.clear();
}

std::size_t
JobLedger::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace varsaw
