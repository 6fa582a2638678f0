/**
 * @file
 * The benchmark of record: one objective-evaluation-level benchmark
 * per workload (see workloads.hh), run through the public library
 * API.
 *
 *   varsaw_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--git DESCRIBE] [--trace-out PATH]
 *   varsaw_perfbench --smoke
 *
 * --trace 0 measures the end-to-end metrics with tracing off: set-up
 * is repeated and its median reported, then whole units run until S
 * seconds have passed.
 *
 * --trace 1 gives the per-layer metrics: a fixed number of units
 * (set by S) runs on an untraced and on a traced instance, in
 * alternating order. The traced pass must reproduce the untraced
 * energies bit for bit and its circuit and shot counts exactly, and
 * its span counts must equal the executor's counters.
 *
 * --smoke runs every workload at a few evaluations through the
 * --trace 1 path and exits non-zero on any failed check.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/kernels/kernels.hh"
#include "trace.hh"
#include "util/parallel.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/**
 * Set-up is sub-millisecond on the small workloads and its speed
 * follows the host's load of the moment, so it is sampled in short
 * rounds spread over the whole run: kFirstSetupRoundS before the
 * first unit, then kSetupRoundS after each kSetupRoundEveryS of
 * measured time. setup_s is the median of all samples.
 */
constexpr double kFirstSetupRoundS = 0.25;
constexpr double kSetupRoundS = 0.02;
constexpr double kSetupRoundEveryS = 1.0;
constexpr int kMinFirstSetups = 5;

/**
 * Nominal seconds per unit on the reference host. Used only to fix
 * work counts from S alone: --trace 1 runs fixedUnits() units per
 * pass, and --trace 0 reads peak RSS after fixedUnits() units, since
 * the prepared-state cache grows with every unit run.
 */
double
nominalUnitSeconds(const std::string &workload)
{
    if (workload == "ch4_vqe")
        return 1.0;
    if (workload == "wide_postprocess")
        return 3.0;
    return 0.4;
}

std::uint64_t
fixedUnits(const std::string &workload, double seconds)
{
    return static_cast<std::uint64_t>(std::max(
        1.0, std::floor(seconds / (2.0 * nominalUnitSeconds(workload)))));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string git = "unknown";
    std::string traceOut;
};

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Set-up timings of every instance built in a run. */
struct SetupSamples
{
    std::vector<double> total, estimator, service;

    /**
     * Build instances for @p seconds (at least @p min_setups of them),
     * recording each set-up; returns the last one.
     */
    std::unique_ptr<Instance> round(const Options &opt, bool smoke,
                                    double seconds, int min_setups)
    {
        std::unique_ptr<Instance> inst;
        const std::uint64_t start = nowNs();
        for (int i = 0; i < min_setups ||
             static_cast<double>(nowNs() - start) * 1e-9 < seconds;
             ++i) {
            inst.reset();
            inst = makeInstance(opt.workload, opt.seed, smoke, nullptr);
            total.push_back(inst->setup.totalS);
            estimator.push_back(inst->setup.estimatorMs);
            service.push_back(inst->setup.serviceMs);
        }
        return inst;
    }

    SetupTimes medians() const
    {
        return {median(total), median(estimator), median(service)};
    }
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Print the report, provenance, and the final result line. */
void
emit(const Options &opt, bool correct, std::uint64_t attempted,
     std::uint64_t failed, const std::vector<Metric> &metrics,
     const std::vector<std::pair<std::string, std::size_t>> &samples,
     const std::string &failure)
{
    std::printf("workload %s  seed %llu  trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0);
    for (const auto &m : metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!failure.empty())
        std::printf("  FAILED: %s\n", failure.c_str());

#if defined(__clang__)
    const char *compiler = "clang " __VERSION__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("{\"provenance\": {\"nproc\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"simd_tier\": \"%s\", "
                "\"kernel_threads\": %d, \"git\": \"%s\"}, "
                "\"samples\": {",
                std::thread::hardware_concurrency(), compiler,
                PERFBENCH_BUILD_TYPE,
                varsaw::kern::simdTierName(
                    varsaw::kern::activeSimdTier()),
                varsaw::kernelThreads(), opt.git.c_str());
    for (std::size_t i = 0; i < samples.size(); ++i)
        std::printf("%s\"%s\": %zu", i ? ", " : "",
                    samples[i].first.c_str(), samples[i].second);
    std::printf("}}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    jsonNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** All latencies of all clients, pooled. */
std::vector<double>
pooledLatencies(const Instance &inst)
{
    std::vector<double> all;
    for (const auto &log : inst.logs())
        all.insert(all.end(), log.latencyMs.begin(), log.latencyMs.end());
    return all;
}

/** --trace 0: end-to-end metrics. */
int
runEndToEnd(const Options &opt)
{
    SetupSamples setups;
    const auto kept =
        setups.round(opt, false, kFirstSetupRoundS, kMinFirstSetups);
    Instance &inst = *kept;

    std::uint64_t evals = 0, failed = 0, circuits = 0;
    double rss = 0.0;
    std::vector<double> unit_rates;
    std::string failure;
    const std::uint64_t rss_units = fixedUnits(opt.workload, opt.seconds);
    const std::uint64_t start = nowNs();
    std::uint64_t last_round = start;
    for (std::uint64_t unit = 0;; ++unit) {
        const UnitResult r = inst.runUnit(unit);
        if (unit + 1 == rss_units)
            rss = peakRssMb();
        evals += r.evals;
        failed += r.failed;
        circuits += r.circuits;
        unit_rates.push_back(static_cast<double>(r.evals) / r.wallS);
        if (failure.empty() && !r.failure.empty())
            failure = r.failure;
        if (static_cast<double>(nowNs() - start) * 1e-9 >= opt.seconds)
            break;
        if (static_cast<double>(nowNs() - last_round) * 1e-9 >=
            kSetupRoundEveryS) {
            setups.round(opt, false, kSetupRoundS, 1);
            last_round = nowNs();
        }
    }
    if (rss == 0.0)
        rss = peakRssMb();
    if (const std::string why = inst.finalCheck(); !why.empty()) {
        failure = failure.empty() ? why : failure;
        failed = evals;
    }

    const auto latencies = pooledLatencies(inst);
    const double safe_evals = std::max<double>(1.0, evals);
    std::vector<Metric> metrics = {
        {"evals_per_s", median(unit_rates), "1/s"},
        {"eval_p50_ms", percentile(latencies, 0.50), "ms"},
        {"eval_p95_ms", percentile(latencies, 0.95), "ms"},
        {"circuits_per_eval", static_cast<double>(circuits) / safe_evals,
         "count"},
        {"setup_s", setups.medians().totalS, "s"},
        {"peak_rss_mb", rss, "MB"},
        {"success_frac", 1.0 - static_cast<double>(failed) / safe_evals,
         "frac"},
    };
    emit(opt, failed == 0 && failure.empty(), std::max<std::uint64_t>(1, evals),
         failed, metrics,
         {{"eval_latency", latencies.size()},
          {"units", unit_rates.size()},
          {"setup", setups.total.size()}},
         failure);
    return 0;
}

/** Outcome of a paired untraced/traced pass. */
struct TracedRun
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string failure;
    std::size_t firstWaitSamples = 0;
    std::size_t backendSamples = 0;
    std::size_t setupSamples = 0;
};

/** --trace 1 / --smoke: paired untraced and traced passes. */
TracedRun
runTraced(const Options &opt, bool smoke, std::uint64_t units)
{
    TracedRun out;
    SetupSamples setups;
    const auto kept =
        setups.round(opt, smoke, kFirstSetupRoundS, kMinFirstSetups);
    Instance &plain = *kept;
    Tracer tracer;
    auto traced = makeInstance(opt.workload, opt.seed, smoke, &tracer);
    const auto fail = [&](const std::string &why) {
        if (out.failure.empty())
            out.failure = why;
    };

    std::uint64_t evals[2] = {0, 0};
    double wall[2] = {0, 0};
    std::uint64_t globals = 0, jobs = 0, hits = 0, cross = 0, shots = 0,
                  retries = 0, circuits = 0;
    for (std::uint64_t unit = 0; unit < units; ++unit) {
        std::vector<std::size_t> from;
        for (const auto &log : traced->logs())
            from.push_back(log.energies.size());
        // Alternate which pass goes first so order effects cancel.
        UnitResult r[2];
        const int first = static_cast<int>(unit % 2);
        r[first] = (first ? *traced : plain).runUnit(unit);
        r[1 - first] = (first ? plain : *traced).runUnit(unit);
        for (int t = 0; t < 2; ++t) {
            evals[t] += r[t].evals;
            wall[t] += r[t].wallS;
            out.attempted += r[t].evals;
            out.failed += r[t].failed;
            if (!r[t].failure.empty())
                fail(r[t].failure);
        }
        const UnitResult &rt = r[1];
        globals += rt.globalsRun;
        jobs += rt.jobs;
        hits += rt.cacheHits;
        cross += rt.crossHits;
        shots += rt.shots;
        retries += rt.retries;
        circuits += rt.circuits;
        bool same = r[0].circuits == rt.circuits &&
            r[0].shots == rt.shots && r[0].evals == rt.evals;
        for (std::size_t c = 0; c < traced->logs().size(); ++c) {
            const auto &a = plain.logs()[c].energies;
            const auto &b = traced->logs()[c].energies;
            same = same && a.size() == b.size();
            for (std::size_t i = from[c]; same && i < b.size(); ++i)
                same = sameBits(a[i], b[i]);
        }
        if (!same) {
            fail("traced run differs from the untraced run");
            out.failed += rt.evals;
        }
    }
    for (Instance *inst : {&plain, traced.get()})
        if (const std::string why = inst->finalCheck(); !why.empty()) {
            fail(why);
            out.failed = out.attempted;
        }

    const auto spans = tracer.spans();
    const LayerReport rep = analyze(spans, traced->varsawClients());
    if (rep.evalSpans != evals[1] || rep.backendSpans != circuits ||
        rep.marginalSpans != rep.backendSpans) {
        fail("span counts do not reconcile with the executor counters");
        out.failed = out.attempted;
    }
    if (!opt.traceOut.empty() && !tracer.writeCsv(opt.traceOut))
        std::fprintf(stderr, "cannot write %s\n", opt.traceOut.c_str());

    const auto engine = traced->backend().simEngine().stats();
    const double e = std::max<double>(1.0, rep.evalSpans);
    const double ms = 1e-6;
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double plain_rate = ratio(evals[0], wall[0]);
    const double traced_rate = ratio(evals[1], wall[1]);
    out.metrics = {
        {"vqa.driver.self_ms", rep.driverSelfNs * ms, "ms"},
        {"core.estimator.self_ms_per_eval",
         ratio(rep.varsawSelfNs * ms, rep.varsawEvals), "ms"},
        {"core.estimator.self_frac",
         ratio(rep.varsawSelfNs, rep.varsawEvalNs), "frac"},
        {"vqa.estimator.self_ms_per_eval",
         ratio(rep.baselineSelfNs * ms, rep.baselineEvals), "ms"},
        {"core.temporal.globals_run", static_cast<double>(globals),
         "count"},
        {"runtime.submit.calls", static_cast<double>(rep.submitCalls),
         "count"},
        {"runtime.submit.jobs", static_cast<double>(rep.submitJobs),
         "count"},
        {"runtime.submit.ms_per_eval", rep.submitNs * ms / e, "ms"},
        {"runtime.self_ms_per_eval", rep.submitSelfNs * ms / e, "ms"},
        {"runtime.dedupe.hit_ratio", ratio(hits, jobs), "frac"},
        {"service.cross_session_hits", static_cast<double>(cross),
         "count"},
        {"service.first_job_wait_us_p50",
         percentile(rep.firstWaitUs, 0.50), "us"},
        {"service.first_job_wait_us_p95",
         percentile(rep.firstWaitUs, 0.95), "us"},
        {"service.worker_busy_frac",
         ratio(rep.backendNs, traced->workers() * wall[1] * 1e9),
         "frac"},
        {"mitigation.executor.jobs", static_cast<double>(rep.backendSpans),
         "count"},
        {"mitigation.executor.shots", static_cast<double>(shots),
         "count"},
        {"mitigation.executor.busy_ms", rep.backendNs * ms, "ms"},
        {"mitigation.executor.us_per_job_p50", rep.backendP50Us, "us"},
        {"mitigation.executor.retries", static_cast<double>(retries),
         "count"},
        {"sim.marginal.busy_ms", rep.marginalNs * ms, "ms"},
        {"sim.marginal.us_per_job_p50", rep.marginalP50Us, "us"},
        {"sim.engine.prep_simulations",
         static_cast<double>(engine.prepSimulations), "count"},
        {"sim.engine.suffix_applications",
         static_cast<double>(engine.suffixApplications), "count"},
        {"sim.engine.prep_reuse_ratio",
         ratio(static_cast<double>(engine.suffixApplications) -
                   static_cast<double>(engine.prepSimulations),
               static_cast<double>(engine.suffixApplications)),
         "frac"},
        {"util.sampling.busy_ms", rep.samplingNs * ms, "ms"},
        {"util.sampling.us_per_job_p50", rep.samplingP50Us, "us"},
        {"util.sampling.frac", ratio(rep.samplingNs, rep.evalNs), "frac"},
        {"setup.estimator_ms", setups.medians().estimatorMs, "ms"},
        {"setup.service_ms", setups.medians().serviceMs, "ms"},
        {"trace.overhead_frac", 1.0 - ratio(traced_rate, plain_rate),
         "frac"},
    };
    out.firstWaitSamples = rep.firstWaitUs.size();
    out.backendSamples = rep.backendSpans;
    out.setupSamples = setups.total.size();
    return out;
}

int
runTraceMode(const Options &opt)
{
    const std::uint64_t units = fixedUnits(opt.workload, opt.seconds);
    const TracedRun run = runTraced(opt, false, units);
    emit(opt, run.failed == 0 && run.failure.empty(),
         std::max<std::uint64_t>(1, run.attempted), run.failed,
         run.metrics,
         {{"units_per_pass", units},
          {"first_job_wait", run.firstWaitSamples},
          {"backend_jobs", run.backendSamples},
          {"setup", run.setupSamples}},
         run.failure);
    return 0;
}

int
runSmoke(Options opt)
{
    int failures = 0;
    for (const auto &name : workloadNames()) {
        opt.workload = name;
        const TracedRun run = runTraced(opt, true, 1);
        const bool ok = run.failed == 0 && run.failure.empty();
        std::printf("smoke %-18s %s (%llu evaluations)%s%s\n",
                    name.c_str(), ok ? "ok" : "FAILED",
                    static_cast<unsigned long long>(run.attempted),
                    ok ? "" : ": ", run.failure.c_str());
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (arg == "--git") {
            opt.git = value;
        } else if (arg == "--trace-out") {
            opt.traceOut = value;
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--git DESCRIBE] [--trace-out PATH]\n"
                     "       %s --smoke\n",
                     argv[0], argv[0]);
        return 2;
    }
    // Threads are only what each workload states.
    varsaw::setKernelThreads(1);
    if (opt.smoke)
        return runSmoke(opt);
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) ==
        names.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    return opt.trace ? runTraceMode(opt) : runEndToEnd(opt);
}
