#include "sim/sim_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

// Prep keys come from the shared content hashing (prepKeyOf, or the
// key admission computed with prepKeyFor), so the engine's cache
// keys, the JobLedger's job keys and the batch scheduler's grouping
// keys all agree on what "the same computation" means.
#include "fault/fault_injector.hh"
#include "sim/circuit_hash.hh"
#include "sim/kernels/kernels.hh"
#include "sim/statevector.hh"
#include "telemetry/exporters.hh"
#include "telemetry/introspect.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/parse.hh"

namespace varsaw {

namespace {

/**
 * Process-wide mirror of SimEngineStats under `sim.engine.*`, plus
 * latency histograms for the three evaluation paths (the timing the
 * ad-hoc structs never had).
 */
struct EngineMetrics
{
    telemetry::Counter &prepSimulations;
    telemetry::Counter &suffixApplications;
    telemetry::Counter &fullSimulations;
    telemetry::Counter &scratchReuses;
    telemetry::Counter &scratchAllocs;
    telemetry::Histogram &prepLatencyNs;
    telemetry::Histogram &suffixLatencyNs;
    telemetry::Histogram &fullSimLatencyNs;

    static EngineMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static EngineMetrics *m = new EngineMetrics{
            reg.counter("sim.engine.prep_simulations"),
            reg.counter("sim.engine.suffix_applications"),
            reg.counter("sim.engine.full_simulations"),
            reg.counter("sim.engine.suffix_scratch_reuses"),
            reg.counter("sim.engine.suffix_scratch_allocs"),
            reg.histogram("sim.engine.prep_latency_ns"),
            reg.histogram("sim.engine.suffix_latency_ns"),
            reg.histogram("sim.engine.full_sim_latency_ns"),
        };
        return *m;
    }
};

} // namespace

namespace {

/**
 * Per-thread reusable suffix scratch. Shared by every SimEngine on
 * the thread (it is capacity, not state — each use overwrites it
 * via copyFrom) and released at thread exit. Retention is bounded:
 * when the scratch holds at least 4x the capacity the current
 * register needs AND the excess tops kScratchSlackBytes, it is
 * dropped and reallocated at the needed size — so one wide (e.g.
 * 26-qubit, 1 GiB) evaluation cannot pin that memory for the rest
 * of a narrow-register process, while same-width and
 * mildly-mixed-width workloads keep the zero-allocation steady
 * state.
 */
thread_local std::unique_ptr<Statevector> t_suffixScratch;

/** Excess capacity tolerated before the scratch is shrunk. */
constexpr std::uint64_t kScratchSlackBytes = 64ull << 20;

/** Whether a scratch of @p capacity amps should shrink to @p need. */
bool
scratchShouldShrink(std::uint64_t capacity, std::uint64_t need)
{
    return capacity >= 4 * need &&
        (capacity - need) * sizeof(Statevector::Amplitude) >
        kScratchSlackBytes;
}

} // namespace

namespace {

/** Programmatic override of the default cache budget (0 = none). */
std::atomic<std::uint64_t> g_cacheByteBudgetOverride{0};

} // namespace

void
setDefaultCacheByteBudget(std::uint64_t bytes)
{
    g_cacheByteBudgetOverride.store(bytes,
                                    std::memory_order_relaxed);
}

std::uint64_t
defaultCacheByteBudget()
{
    const std::uint64_t override_bytes =
        g_cacheByteBudgetOverride.load(std::memory_order_relaxed);
    if (override_bytes > 0)
        return override_bytes;
    static const std::uint64_t budget = [] {
        std::uint64_t bytes = 0;
        return envPositive("VARSAW_STATE_CACHE_BYTES", &bytes)
            ? bytes
            : StateCache::kDefaultByteBudget;
    }();
    return budget;
}

bool
applyRuntimeFlags(int &argc, char **argv)
{
    // Referencing the telemetry env knobs here also guarantees the
    // exporter object (with its static-init env shim) is linked
    // into every driver that parses runtime flags.
    telemetry::installTelemetryEnvKnobs();
    bool ok = true;
    int keep = 1; // argv[0] always stays
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string name = arg;
        const char *value = nullptr;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = argv[i] + eq + 1;
        }
        const bool numericFlag = name == "--cache-bytes" ||
            name == "--kernel-threads" ||
            name == "--service-threads";
        const bool pathFlag = name == "--metrics-out" ||
            name == "--trace-out" || name == "--introspect";
        const bool simdFlag = name == "--simd";
        const bool faultsFlag = name == "--faults";
        const bool bareFlag = name == "--profile";
        if (bareFlag) {
            // Value-free switch: --profile (or --profile=0 to undo
            // an env-armed VARSAW_PROFILE).
            telemetry::setProfilerEnabled(
                !(value && value[0] == '0' && value[1] == '\0'));
            continue;
        }
        if (!numericFlag && !pathFlag && !simdFlag && !faultsFlag) {
            argv[keep++] = argv[i];
            continue;
        }
        // Recognized flag: consumed (dropped from argv) whether it
        // parses or not, so positional parsing never sees it.
        if (!value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a %s value\n",
                             name.c_str(),
                             pathFlag        ? "file path"
                             : simdFlag      ? "scalar|avx2|avx512|auto"
                             : faultsFlag    ? "fault plan spec"
                                             : "positive integer");
                ok = false;
                continue;
            }
            value = argv[++i];
        }
        if (faultsFlag) {
            // Same spec language as VARSAW_FAULTS, applied on top
            // of the plan already installed (so the flag can refine
            // an env-armed plan).
            fault::FaultPlan plan =
                fault::FaultInjector::instance().plan();
            std::string error;
            if (!fault::parseFaultPlan(value, plan, error)) {
                std::fprintf(stderr, "--faults: %s\n",
                             error.c_str());
                ok = false;
                continue;
            }
            fault::FaultInjector::instance().configure(plan);
            continue;
        }
        if (simdFlag) {
            kern::SimdTier tier = kern::maxSupportedSimdTier();
            bool is_auto = false;
            if (!kern::parseSimdTier(value, &tier, &is_auto)) {
                std::fprintf(stderr,
                             "--simd: invalid value '%s' (want "
                             "scalar|avx2|avx512|auto)\n",
                             value);
                ok = false;
                continue;
            }
            // Forcing a tier is always safe: every tier is
            // bit-identical, and requests above the host/build
            // ceiling clamp inside setSimdTier.
            kern::setSimdTier(is_auto
                                  ? kern::maxSupportedSimdTier()
                                  : tier);
            continue;
        }
        if (pathFlag) {
            if (value[0] == '\0') {
                std::fprintf(stderr, "%s: empty path\n",
                             name.c_str());
                ok = false;
                continue;
            }
            if (name == "--metrics-out")
                telemetry::setMetricsOutPath(value);
            else if (name == "--trace-out")
                telemetry::setTraceOutPath(value);
            else
                telemetry::setIntrospectPath(value);
            continue;
        }
        std::uint64_t parsed = 0;
        if (!parsePositive(value, &parsed)) {
            std::fprintf(stderr,
                         "%s: invalid value '%s' (want a positive "
                         "integer)\n",
                         name.c_str(), value);
            ok = false;
            continue;
        }
        if (name == "--cache-bytes")
            setDefaultCacheByteBudget(parsed);
        else if (name == "--service-threads")
            setDefaultServiceThreads(static_cast<int>(
                std::min<std::uint64_t>(parsed, kMaxServiceThreads)));
        else
            setKernelThreads(static_cast<int>(
                std::min<std::uint64_t>(parsed, kMaxKernelThreads)));
    }
    argc = keep;
    argv[argc] = nullptr;
    return ok;
}

SimEngine::SimEngine(SimEngineConfig config)
    : cacheEnabled_(config.cacheEnabled),
      cache_(config.cacheByteBudget, config.cacheMaxEntries)
{
}

std::vector<double>
SimEngine::measuredMarginal(const Circuit *prep,
                            const Circuit &circuit,
                            const std::vector<double> &params,
                            const std::optional<PrepKey> &key)
{
    if (prep && prep->numQubits() != circuit.numQubits())
        panic("SimEngine: prep/suffix width mismatch");
    const int n = circuit.numQubits();

    // Resolve the op spans for both job shapes. The prep circuit
    // gets the same trailing-run split as a plain circuit (see
    // prepKeyOf), so its trailing H/S/Sdg gates — if any — become a
    // middle "tail" span applied after the cached prefix; for
    // typical rotation-terminated ansatze the tail is empty.
    const auto &circuitOps = circuit.ops();
    const GateOp *prefixOps;
    std::size_t prefixCount;
    const GateOp *tailOps = nullptr;
    std::size_t tailCount = 0;
    const GateOp *suffixOps;
    std::size_t suffixCount;
    if (prep) {
        const PrefixSplit split = splitPrepSuffix(*prep);
        prefixOps = prep->ops().data();
        prefixCount = split.prefixOps;
        tailOps = prep->ops().data() + split.prefixOps;
        tailCount = prep->ops().size() - split.prefixOps;
        suffixOps = circuitOps.data();
        suffixCount = circuitOps.size();
    } else {
        const PrefixSplit split = splitPrepSuffix(circuit);
        prefixOps = circuitOps.data();
        prefixCount = split.prefixOps;
        suffixOps = circuitOps.data() + split.prefixOps;
        suffixCount = circuitOps.size() - split.prefixOps;
    }

    if (!cacheEnabled()) {
        // Uncached: the identical gate sequence on one fresh state.
        telemetry::ScopedSpan span("full-sim", 0);
        Statevector sv(n);
        sv.applyOps(prefixOps, prefixCount, params);
        sv.applyOps(tailOps, tailCount, params);
        sv.applyOps(suffixOps, suffixCount, params);
        fullSimulations_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry::metricsEnabled()) {
            auto &m = EngineMetrics::get();
            m.fullSimulations.add();
            if (span.armed())
                m.fullSimLatencyNs.record(span.elapsedNs());
        }
        return sv.marginalProbabilities(circuit.measuredQubits());
    }

    const PrepKey prep_key =
        key ? *key : prepKeyOf(prep, circuit, params);
    StateCache::StatePtr prepared = cache_.getOrPrepare(prep_key, [&] {
        telemetry::ScopedSpan span("prep", 0);
        telemetry::ScopedPhase phase(telemetry::Phase::Prep);
        auto state = std::make_shared<Statevector>(n);
        state->applyOps(prefixOps, prefixCount, params);
        prepSimulations_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry::metricsEnabled()) {
            auto &m = EngineMetrics::get();
            m.prepSimulations.add();
            if (span.armed())
                m.prepLatencyNs.record(span.elapsedNs());
        }
        return StateCache::StatePtr(std::move(state));
    });

    suffixApplications_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::metricsEnabled())
        EngineMetrics::get().suffixApplications.add();
    telemetry::ScopedSpan suffixSpan("suffix-eval", 0);
    telemetry::ScopedPhase suffixPhase(telemetry::Phase::Suffix);

    // All-Z bases have no suffix gates at all: answer straight from
    // the shared immutable state, skipping the dense copy.
    if (tailCount == 0 && suffixCount == 0)
        return prepared->marginalProbabilities(
            circuit.measuredQubits());

    // Each suffix works on a copy of the prepared amplitudes (the
    // shared state itself is immutable) — but the copy lands in
    // this thread's reusable scratch, so the per-basis cost is one
    // memcpy, not a fresh 16·2^n-byte allocation.
    Statevector *sv = t_suffixScratch.get();
    if (sv && scratchShouldShrink(sv->amplitudeCapacity(),
                                  1ull << n)) {
        t_suffixScratch.reset();
        sv = nullptr;
    }
    if (!sv) {
        t_suffixScratch = std::make_unique<Statevector>(*prepared);
        sv = t_suffixScratch.get();
        suffixScratchAllocs_.fetch_add(1,
                                       std::memory_order_relaxed);
        if (telemetry::metricsEnabled())
            EngineMetrics::get().scratchAllocs.add();
    } else if (sv->copyFrom(*prepared)) {
        suffixScratchReuses_.fetch_add(1,
                                       std::memory_order_relaxed);
        if (telemetry::metricsEnabled())
            EngineMetrics::get().scratchReuses.add();
    } else {
        suffixScratchAllocs_.fetch_add(1,
                                       std::memory_order_relaxed);
        if (telemetry::metricsEnabled())
            EngineMetrics::get().scratchAllocs.add();
    }
    sv->applyOps(tailOps, tailCount, params);
    sv->applyOps(suffixOps, suffixCount, params);
    if (telemetry::metricsEnabled() && suffixSpan.armed())
        EngineMetrics::get().suffixLatencyNs.record(
            suffixSpan.elapsedNs());
    return sv->marginalProbabilities(circuit.measuredQubits());
}

SimEngineStats
SimEngine::stats() const
{
    SimEngineStats out;
    out.prepSimulations =
        prepSimulations_.load(std::memory_order_relaxed);
    out.suffixApplications =
        suffixApplications_.load(std::memory_order_relaxed);
    out.fullSimulations =
        fullSimulations_.load(std::memory_order_relaxed);
    out.suffixScratchReuses =
        suffixScratchReuses_.load(std::memory_order_relaxed);
    out.suffixScratchAllocs =
        suffixScratchAllocs_.load(std::memory_order_relaxed);
    out.cache = cache_.stats();
    return out;
}

void
SimEngine::resetStats()
{
    prepSimulations_.store(0, std::memory_order_relaxed);
    suffixApplications_.store(0, std::memory_order_relaxed);
    fullSimulations_.store(0, std::memory_order_relaxed);
    suffixScratchReuses_.store(0, std::memory_order_relaxed);
    suffixScratchAllocs_.store(0, std::memory_order_relaxed);
    cache_.resetStats();
}

} // namespace varsaw
