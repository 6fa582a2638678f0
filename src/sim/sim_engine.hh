/**
 * @file
 * Prefix-shared simulation engine.
 *
 * VarSaw workloads are dominated by redundancy: every circuit of an
 * objective evaluation shares the same ansatz state-prep and differs
 * only in a measurement suffix (basis rotations + measured-qubit
 * set). The SimEngine exploits this below the executor layer: it
 * splits each circuit into a prep **prefix** and a measurement
 * **suffix**, content-hashes the prefix together with the bound
 * parameter values, and caches the prepared Statevector — so N
 * basis/subset circuits per evaluation cost ONE full simulation
 * plus N cheap suffix applications and marginals.
 *
 * The suffix path is zero-allocation on the steady state: each
 * worker thread owns a reusable scratch Statevector into which the
 * prepared amplitudes are copied (Statevector::copyFrom recycles
 * the capacity), so a 20-basis evaluation performs 20 memcpys, not
 * 20 fresh 16·2^n-byte allocations. The scratch is thread-local
 * and sized to the widest register the thread has evaluated, with
 * bounded retention: a scratch holding >= 4x the needed capacity
 * (and > 64 MiB of excess) is shrunk to the current width, so one
 * wide evaluation cannot pin gigabytes under later narrow
 * workloads. The suffixScratchAllocs/Reuses counters make the
 * reuse observable.
 *
 * Circuits arrive in two shapes:
 *  - an explicit (prep, suffix) pair — the shape the estimators
 *    submit via Batch::addPrefixed();
 *  - a plain full circuit, which splitPrepSuffix() divides at the
 *    trailing run of basis-rotation gates (H/S/Sdg). Both shapes of
 *    the same work hash to the same prep key and share cache
 *    entries.
 *
 * Determinism: a prepared state is a pure function of (prefix,
 * params) with no randomness, so caching can never change results —
 * only skip work. The cache guarantees exactly one preparation per
 * key per residency even under concurrent access (see StateCache),
 * so the engine counters are thread-count-independent too. With the
 * cache disabled the engine simply runs prefix + suffix on one
 * fresh Statevector, which applies the identical gate sequence and
 * is bit-identical to simulating the full circuit in one go.
 */

#ifndef VARSAW_SIM_SIM_ENGINE_HH
#define VARSAW_SIM_SIM_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/circuit.hh"
#include "sim/circuit_hash.hh"
#include "sim/state_cache.hh"

namespace varsaw {

/** Work counters of the engine (all monotonic). */
struct SimEngineStats
{
    /** Full state-prep simulations actually run. */
    std::uint64_t prepSimulations = 0;

    /** Suffix applications over a (cached or fresh) prepared state. */
    std::uint64_t suffixApplications = 0;

    /** Whole-circuit simulations on the cache-disabled path. */
    std::uint64_t fullSimulations = 0;

    /**
     * Suffix evaluations whose prepared-state copy landed in a
     * worker's existing scratch capacity — no allocation performed.
     * On the steady state this counts every suffix with gates:
     * allocations happen at most once per (worker thread, register
     * growth), never per basis.
     */
    std::uint64_t suffixScratchReuses = 0;

    /**
     * Suffix evaluations that had to (re)allocate the per-thread
     * scratch: the thread's first suffix, or a wider register than
     * any it has seen. Bounded by threads x distinct widths, not by
     * the basis count.
     */
    std::uint64_t suffixScratchAllocs = 0;

    /** Prep-cache lookup statistics. */
    StateCacheStats cache;
};

/**
 * Default prepared-state cache byte budget: the value of the
 * VARSAW_STATE_CACHE_BYTES environment variable when set to a
 * positive integer (read once; CI uses a tiny value to smoke-test
 * constant eviction), otherwise StateCache::kDefaultByteBudget
 * (2 GiB).
 */
std::uint64_t defaultCacheByteBudget();

/**
 * Override the default prepared-state cache byte budget for
 * engines constructed after this call (takes precedence over the
 * environment variable). 0 restores the environment/compiled
 * default. This is what the drivers' --cache-bytes flag plumbs
 * into; engines whose config sets cacheByteBudget explicitly are
 * unaffected.
 */
void setDefaultCacheByteBudget(std::uint64_t bytes);

/**
 * Apply the standard per-run command-line flags shared by every
 * bench and example driver:
 *
 *   --cache-bytes=N      prepared-state cache byte budget
 *                        (setDefaultCacheByteBudget)
 *   --kernel-threads=N   intra-kernel threads (setKernelThreads,
 *                        clamped to [1, kMaxKernelThreads])
 *   --simd=TIER          statevector kernel tier: scalar, avx2,
 *                        avx512, or auto (kern::setSimdTier;
 *                        clamped to the host's ceiling — results
 *                        are bit-identical at every tier)
 *   --service-threads=N  worker count of shared ExecutionServices
 *                        constructed with threads = 0
 *                        (setDefaultServiceThreads, clamped to
 *                        kMaxServiceThreads)
 *   --metrics-out=PATH   enable metrics; write a JSON snapshot of
 *                        the telemetry registry to PATH at exit
 *                        (telemetry::setMetricsOutPath)
 *   --trace-out=PATH     enable span tracing; write Chrome
 *                        trace_event JSON to PATH at exit
 *                        (telemetry::setTraceOutPath)
 *   --profile            enable phase-attribution profiling
 *                        (telemetry::setProfilerEnabled; the one
 *                        value-free flag — --profile=0 undoes an
 *                        env-armed VARSAW_PROFILE)
 *   --introspect=PATH    serve live telemetry on a unix socket at
 *                        PATH (telemetry::setIntrospectPath; the
 *                        next ExecutionService constructed attaches
 *                        the endpoint — see varsaw-top)
 *
 * All accept `--flag V` as well as `--flag=V`; numeric values are
 * parsed whole (parsePositive: "4x" is an error, not 4). The
 * VARSAW_TELEMETRY / VARSAW_METRICS_OUT / VARSAW_TRACE_OUT /
 * VARSAW_TRACE_EVENTS / VARSAW_TELEMETRY_FLUSH_MS / VARSAW_PROFILE /
 * VARSAW_INTROSPECT environment knobs are applied first
 * (telemetry::installTelemetryEnvKnobs). Consumed flags
 * (and their value arguments) are REMOVED from argv and @p argc is
 * updated, so positional argument parsing in the drivers is
 * undisturbed. Unrecognized arguments are kept in place (drivers
 * may define their own). Returns false after printing a diagnostic
 * when a recognized flag has a malformed or missing value.
 */
bool applyRuntimeFlags(int &argc, char **argv);

/** Tunables of the engine. */
struct SimEngineConfig
{
    /** Share prepared states across suffixes (on by default). */
    bool cacheEnabled = true;

    /**
     * Secondary entry cap of the prepared-state cache. The primary
     * bound is cacheByteBudget; this cap only matters for workloads
     * with many narrow states, where per-entry bookkeeping (not
     * amplitude bytes) would dominate.
     */
    std::size_t cacheMaxEntries = 32;

    /**
     * Prepared-state cache byte budget. Each entry is a dense
     * 2^n-amplitude vector charged StateCache::entryBytes(n) bytes
     * (16 B per amplitude: 1 MiB at 16 qubits, 1 GiB at
     * kMaxQubits). Exceeding the budget evicts least-recently-used
     * completed states one at a time; superseded parameter points
     * therefore age out instead of accumulating until OOM. Results
     * never depend on the budget; the engine counters stay exact
     * across thread counts as long as the per-evaluation working
     * set fits.
     */
    std::uint64_t cacheByteBudget = defaultCacheByteBudget();
};

/**
 * The prefix-sharing simulation engine. Thread-safe: executors call
 * measuredMarginal() concurrently from every runtime worker.
 */
class SimEngine
{
  public:
    explicit SimEngine(SimEngineConfig config = {});

    /**
     * Exact marginal distribution over @p circuit's measured qubits
     * after preparing with @p prep (may be null for a plain
     * circuit) and applying the suffix, at parameter values
     * @p params. Entry y sums |amp|^2 over basis states whose bits
     * at the measured positions spell y.
     *
     * @p key is the job's prepKeyOf(prep, circuit, params) when the
     * caller already computed it (admission does, see prepKeyFor);
     * without one the engine derives it.
     */
    std::vector<double>
    measuredMarginal(const Circuit *prep, const Circuit &circuit,
                     const std::vector<double> &params,
                     const std::optional<PrepKey> &key = std::nullopt);

    /** Toggle prepared-state sharing (results are unaffected). */
    void setCacheEnabled(bool enabled)
    {
        cacheEnabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Whether prepared states are shared. */
    bool cacheEnabled() const
    {
        return cacheEnabled_.load(std::memory_order_relaxed);
    }

    /** Snapshot of the work counters. */
    SimEngineStats stats() const;

    /** Zero the counters and statistics (entries are kept). */
    void resetStats();

    /** Drop all completed cached states (in-flight claims survive). */
    void clearCache() { cache_.clear(); }

    /** The prepared-state cache. */
    const StateCache &cache() const { return cache_; }

  private:
    std::atomic<bool> cacheEnabled_;
    StateCache cache_;
    std::atomic<std::uint64_t> prepSimulations_{0};
    std::atomic<std::uint64_t> suffixApplications_{0};
    std::atomic<std::uint64_t> fullSimulations_{0};
    std::atomic<std::uint64_t> suffixScratchReuses_{0};
    std::atomic<std::uint64_t> suffixScratchAllocs_{0};
};

} // namespace varsaw

#endif // VARSAW_SIM_SIM_ENGINE_HH
