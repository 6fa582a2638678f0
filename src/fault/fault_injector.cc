#include "fault/fault_injector.hh"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>

#include "telemetry/metrics.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/rng.hh"

namespace varsaw::fault {

namespace {

/** Injection mirror under `service.faults.*` (one per site). */
struct FaultMetrics
{
    telemetry::Counter *bySite[kFaultSiteCount];

    static FaultMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static FaultMetrics *m = new FaultMetrics{{
            &reg.counter("service.faults.executor_transient"),
            &reg.counter("service.faults.latency_spike"),
            &reg.counter("service.faults.worker_stall"),
            &reg.counter("service.faults.cache_insert"),
            &reg.counter("service.faults.corruption"),
        }};
        return *m;
    }
};

/** Per-site salt so the same key draws independently per site. */
constexpr std::uint64_t kSiteSalt[kFaultSiteCount] = {
    0x7458f0d1a5e3c6b9ull, 0x2c8a91d74b6f03e5ull,
    0x91b3d5f708a2c4e6ull, 0x5d0e2f4a6c8b91d3ull,
    0xe6a4c2908b6d4f21ull,
};

/** Longest real sleep one injected wait may cost a worker. */
constexpr std::uint64_t kMaxRealSleepNs = 50'000'000;

/** Largest burst or retry count (both are stored as int). */
constexpr std::uint64_t kMaxCount = std::numeric_limits<int>::max();

bool
parseRate(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0' || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::ExecutorTransient:
        return "executor_transient";
      case FaultSite::LatencySpike:
        return "latency_spike";
      case FaultSite::WorkerStall:
        return "worker_stall";
      case FaultSite::StateCacheInsert:
        return "cache_insert";
      case FaultSite::ResultCorruption:
        return "corruption";
    }
    return "unknown";
}

bool
parseFaultPlan(const std::string &spec, FaultPlan &plan,
               std::string &error)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "fault plan item without '=': '" + item + "'";
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        bool ok = true;
        std::uint64_t u = 0;
        if (key == "seed") {
            ok = parseU64(value.c_str(), &plan.seed);
        } else if (key == "exec_transient") {
            ok = parseRate(value, plan.executorTransientRate);
        } else if (key == "latency_spike") {
            ok = parseRate(value, plan.latencySpikeRate);
        } else if (key == "latency_ns") {
            ok = parseU64(value.c_str(), &plan.latencySpikeNs);
        } else if (key == "worker_stall") {
            ok = parseRate(value, plan.workerStallRate);
        } else if (key == "cache_insert") {
            ok = parseRate(value, plan.stateCacheInsertRate);
        } else if (key == "corrupt") {
            ok = parseRate(value, plan.corruptionRate);
        } else if (key == "burst") {
            ok = parsePositive(value.c_str(), &u) && u <= kMaxCount;
            if (ok)
                plan.burst = static_cast<int>(u);
        } else if (key == "virtual_time") {
            ok = value == "0" || value == "1";
            if (ok)
                plan.virtualTime = value == "1";
        } else if (key == "retries") {
            ok = parsePositive(value.c_str(), &u) && u <= kMaxCount;
            if (ok)
                plan.retryAttempts = static_cast<int>(u);
        } else if (key == "backoff_ns") {
            ok = parseU64(value.c_str(), &plan.retryBackoffNs);
        } else if (key == "max_backoff_ns") {
            ok = parseU64(value.c_str(), &plan.retryMaxBackoffNs);
        } else if (key == "deadline_ns") {
            ok = parseU64(value.c_str(), &plan.deadlineNs);
        } else {
            error = "unknown fault plan key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad value for fault plan key '" + key +
                "': '" + value + "'";
            return false;
        }
    }
    return true;
}

FaultInjector::FaultInjector()
{
    const char *env = std::getenv("VARSAW_FAULTS");
    if (env == nullptr || env[0] == '\0')
        return;
    FaultPlan plan;
    std::string error;
    if (!parseFaultPlan(env, plan, error))
        fatal("VARSAW_FAULTS: " + error);
    configure(plan);
    inform("fault injection armed from VARSAW_FAULTS: " +
           std::string(env));
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector *injector = new FaultInjector();
    return *injector;
}

void
FaultInjector::configure(const FaultPlan &plan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = plan;
    virtualNowNs_.store(0, std::memory_order_relaxed);
    virtualTime_.store(plan.virtualTime, std::memory_order_relaxed);
    enabled_.store(plan.enabled(), std::memory_order_relaxed);
}

FaultPlan
FaultInjector::plan() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plan_;
}

bool
FaultInjector::shouldInject(FaultSite site, std::uint64_t key,
                            std::uint64_t attempt)
{
    if (!enabled())
        return false;
    double rate = 0.0;
    std::uint64_t seed = 0;
    int burst = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        seed = plan_.seed;
        burst = plan_.burst;
        switch (site) {
          case FaultSite::ExecutorTransient:
            rate = plan_.executorTransientRate;
            break;
          case FaultSite::LatencySpike:
            rate = plan_.latencySpikeRate;
            break;
          case FaultSite::WorkerStall:
            rate = plan_.workerStallRate;
            break;
          case FaultSite::StateCacheInsert:
            rate = plan_.stateCacheInsertRate;
            break;
          case FaultSite::ResultCorruption:
            rate = plan_.corruptionRate;
            break;
        }
    }
    if (rate <= 0.0)
        return false;
    // The burst cap bounds consecutive RETRIED failures per key:
    // attempts past it always succeed, so retryAttempts > burst
    // guarantees convergence. Only the sites whose injection costs
    // a retry are capped — spikes and degradations don't re-fail.
    const bool retried_failure =
        site == FaultSite::ExecutorTransient ||
        site == FaultSite::ResultCorruption;
    if (retried_failure &&
        attempt >= static_cast<std::uint64_t>(burst))
        return false;
    // Pure function of (seed, site, key, attempt): thread timing,
    // call order, and repetition cannot change the decision.
    const std::uint64_t draw = mix64(
        seed ^ kSiteSalt[static_cast<int>(site)],
        mix64(key, attempt));
    const bool inject = rate >= 1.0 ||
        static_cast<double>(draw >> 11) * 0x1.0p-53 < rate;
    if (!inject)
        return false;
    injected_[static_cast<int>(site)].fetch_add(
        1, std::memory_order_relaxed);
    if (telemetry::metricsEnabled())
        FaultMetrics::get().bySite[static_cast<int>(site)]->add();
    return true;
}

FaultStats
FaultInjector::stats() const
{
    FaultStats stats;
    for (int i = 0; i < kFaultSiteCount; ++i)
        stats.injected[i] =
            injected_[i].load(std::memory_order_relaxed);
    return stats;
}

void
FaultInjector::resetStats()
{
    for (int i = 0; i < kFaultSiteCount; ++i)
        injected_[i].store(0, std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::nowNs() const
{
    if (virtualTime_.load(std::memory_order_relaxed))
        return virtualNowNs_.load(std::memory_order_relaxed);
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
FaultInjector::sleepFor(std::uint64_t ns)
{
    if (ns == 0)
        return;
    if (virtualTime_.load(std::memory_order_relaxed)) {
        virtualNowNs_.fetch_add(ns, std::memory_order_relaxed);
        return;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        ns < kMaxRealSleepNs ? ns : kMaxRealSleepNs));
}

RetryPolicy
defaultRetryPolicy()
{
    const FaultPlan plan = FaultInjector::instance().plan();
    return RetryPolicy{plan.retryAttempts, plan.retryBackoffNs,
                       plan.retryMaxBackoffNs, plan.deadlineNs};
}

} // namespace varsaw::fault
