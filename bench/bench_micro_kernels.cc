/**
 * @file
 * Micro-benchmarks for the hot statevector kernels: SIMD-tier x
 * kernel-thread throughput (amps/s and GiB/s of estimated traffic)
 * for every dispatched kernel — apply1Q (adjacent and high-qubit
 * targets), applyCX, applyCZ, applyRZZ, applySwap, the fused
 * diagonal run, applyPauli, norm, probabilities,
 * marginalProbabilities, expectationPauli, and innerProduct — at
 * 16/20/24 qubits (VARSAW_BENCH_QUBITS overrides, e.g. "16,18").
 * Only the kernel call is inside the stopwatch; state
 * fingerprinting happens outside it.
 *
 * The sweep's outer dimension is the SIMD tier: a forced-scalar
 * row leads every (kernel, qubits) group, then each tier the host
 * supports (capped by --simd / VARSAW_SIMD when the operator
 * forced one), so speedup-vs-scalar comes from ONE run. Every cell
 * is checked bit-identical against the (scalar, 1-thread)
 * reference; the comparison uses a full-state FNV-1a fingerprint
 * plus the kernel's exact reduction outputs. VARSAW_BENCH_CHECK=1
 * turns any mismatch into a non-zero exit, which is how CI gates
 * the determinism contract across tiers AND thread counts.
 * Speedups are reported, not gated — CI runners pin cores.
 * Alongside the CSV a machine-readable summary is written to
 * BENCH_micro_kernels.json.
 *
 * A second group times the shot draws of sampling contract v2
 * (KernelTable::aliasDraws, the loop behind sim/sampling.hh) at the
 * (columns, shots) shapes the workloads run: 2-qubit subsets (k = 2,
 * 4 at 256 and 2048 shots), 3-qubit subsets (k = 8), and wider
 * tables (k = 64, 1024) that every tier runs through the scalar
 * reference. Each (k, shots) group has a forced-scalar row, then one
 * row per host tier, reporting draws/s; its Identical column covers
 * the tally and the generator's final state, and a mismatch fails
 * VARSAW_BENCH_CHECK=1 like any other cell.
 *
 * Knobs: VARSAW_BENCH_REPS (timing repetitions per row, default 3),
 * VARSAW_BENCH_THREADS (comma list, default "1,2,4,8"),
 * --cache-bytes/--kernel-threads/--simd via common.hh. When
 * --kernel-threads/VARSAW_KERNEL_THREADS raises the process
 * setting above 1 it also caps the sweep (no rows above it), so a
 * 2-core operator passing --kernel-threads=2 never runs
 * oversubscribed 8-thread rows.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/kernels/kernels.hh"
#include "sim/statevector.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "util/csv.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace varsaw;
using namespace varsaw::bench;

namespace {

/** FNV-1a over raw amplitude bytes: a bit-exact state fingerprint. */
std::uint64_t
fingerprint(const Statevector &sv)
{
    const auto &amps = sv.amplitudes();
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(amps.data());
    const std::size_t size =
        amps.size() * sizeof(Statevector::Amplitude);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Fold a double vector into an FNV-1a stream, bit-exactly. */
std::uint64_t
fingerprintDoubles(const std::vector<double> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const double d : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffull;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * One benchmarked kernel. `run` is the TIMED region: exactly the
 * kernel call, returning its reduction outputs (empty for mutating
 * kernels). `mutates` adds the post-run state fingerprint to the
 * bit-identity signature (computed outside the stopwatch).
 * `passBytes` estimates one invocation's memory traffic for the
 * GiB/s column.
 */
struct KernelCase
{
    std::string name;
    double passBytes = 0.0;
    bool mutates = true;
    std::function<std::vector<double>(Statevector &)> run;
};

/** Deterministic dense input state: layered rotations + entanglers. */
Statevector
makeInput(int n)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.h(q);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.3 + 0.11 * q);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.rz(q, 0.7 - 0.05 * q);
    Statevector sv(n);
    sv.run(c, {});
    return sv;
}

std::vector<KernelCase>
kernelCases(int n, const Statevector &input)
{
    const double amp_bytes =
        16.0 * static_cast<double>(1ull << n); // state read once
    const Matrix2 h = gates::fixedMatrix(GateKind::H);
    const Matrix2 ry = gates::ry(0.37);

    std::vector<KernelCase> cases;
    cases.push_back({"apply1Q_q0", 2.0 * amp_bytes, true,
                     [=](Statevector &sv) {
                         sv.apply1Q(0, h);
                         return std::vector<double>{};
                     }});
    cases.push_back({"apply1Q_qhi", 2.0 * amp_bytes, true,
                     [=, q = n - 1](Statevector &sv) {
                         sv.apply1Q(q, ry);
                         return std::vector<double>{};
                     }});
    cases.push_back({"applyCX", amp_bytes, true,
                     [q = n - 1](Statevector &sv) {
                         sv.applyCX(0, q);
                         return std::vector<double>{};
                     }});
    cases.push_back({"applyCZ", 0.5 * amp_bytes, true,
                     [q = n / 2](Statevector &sv) {
                         sv.applyCZ(1, q);
                         return std::vector<double>{};
                     }});
    cases.push_back({"applyRZZ", 2.0 * amp_bytes, true,
                     [q = n - 2](Statevector &sv) {
                         sv.applyRZZ(1, q, 0.83);
                         return std::vector<double>{};
                     }});
    cases.push_back({"applySwap", amp_bytes, true,
                     [q = n - 1](Statevector &sv) {
                         sv.applySwap(0, q);
                         return std::vector<double>{};
                     }});
    {
        // RZ layer + CZ + RZZ: one fused pass via applyOps.
        auto run_circuit = std::make_shared<Circuit>(n);
        for (int q = 0; q < n; ++q)
            run_circuit->rz(q, 0.21 + 0.07 * q);
        run_circuit->cz(0, n - 1);
        run_circuit->rzz(1, n - 2, 0.55);
        cases.push_back({"applyDiagonalRun", 2.0 * amp_bytes, true,
                         [run_circuit](Statevector &sv) {
                             sv.applyOps(run_circuit->ops().data(),
                                         run_circuit->ops().size(),
                                         {});
                             return std::vector<double>{};
                         }});
    }
    {
        auto pauli = std::make_shared<PauliString>(n);
        for (int q = 0; q < n; ++q)
            pauli->setOp(q, q % 3 == 0
                                ? PauliOp::X
                                : (q % 3 == 1 ? PauliOp::Y
                                              : PauliOp::Z));
        cases.push_back({"applyPauli", 2.0 * amp_bytes, true,
                         [pauli](Statevector &sv) {
                             sv.applyPauli(*pauli);
                             return std::vector<double>{};
                         }});
    }
    cases.push_back({"norm", amp_bytes, false,
                     [](Statevector &sv) {
                         return std::vector<double>{sv.norm()};
                     }});
    cases.push_back({"probabilities",
                     amp_bytes + 0.5 * amp_bytes, false,
                     [](Statevector &sv) {
                         return sv.probabilities();
                     }});
    cases.push_back(
        {"marginalProbs_8q", amp_bytes, false,
         [](Statevector &sv) {
             return sv.marginalProbabilities(
                 {0, 1, 2, 3, 4, 5, 6, 7});
         }});
    cases.push_back(
        {"marginalProbs_perm", amp_bytes, false,
         [=](Statevector &sv) {
             return sv.marginalProbabilities({n - 1, 2, 5, 0});
         }});
    {
        auto pauli = std::make_shared<PauliString>(n);
        for (int q = 0; q < n; ++q)
            pauli->setOp(q, q % 2 == 0 ? PauliOp::Z : PauliOp::X);
        cases.push_back(
            {"expectationPauli", 2.0 * amp_bytes, false,
             [pauli](Statevector &sv) {
                 return std::vector<double>{
                     sv.expectationPauli(*pauli)};
             }});
    }
    {
        // The partner state is built ONCE here; the timed region
        // is the inner product alone.
        auto other = std::make_shared<Statevector>(input);
        other->apply1Q(0, ry);
        cases.push_back(
            {"innerProduct", 2.0 * amp_bytes, false,
             [other](Statevector &sv) {
                 const auto ip = sv.innerProduct(*other);
                 return std::vector<double>{ip.real(), ip.imag()};
             }});
    }
    return cases;
}

/**
 * Telemetry-guard overhead: the same serial apply1Q sweep bare vs
 * wrapped in the library's disabled-telemetry publishing pattern
 * (ScopedSpan + two metricsEnabled() guards — strictly MORE guard
 * work than any real instrumentation site, which never wraps a
 * kernel). Telemetry is forced off for the measurement, so this is
 * exactly the "compiled in but disabled" cost the determinism
 * contract promises is near-zero. Returns the overhead percentage;
 * negative values are timing noise.
 */
double
measureGuardOverheadPercent(int n, int reps)
{
    const Statevector input = makeInput(n);
    const Matrix2 h = gates::fixedMatrix(GateKind::H);
    Statevector work(n);

    const bool metricsWere = telemetry::metricsEnabled();
    const bool tracingWas = telemetry::tracingEnabled();
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);

    auto &dummy = telemetry::MetricsRegistry::instance().counter(
        "bench.guard_overhead_probe");

    // Interleave the two variants rep by rep so frequency drift
    // hits both equally.
    double bare = 0.0, guarded = 0.0;
    for (int r = 0; r < reps; ++r) {
        work.copyFrom(input);
        {
            Stopwatch watch;
            work.apply1Q(0, h);
            bare += watch.seconds();
        }
        work.copyFrom(input);
        {
            Stopwatch watch;
            {
                telemetry::ScopedSpan span("bench-guard", 0);
                work.apply1Q(0, h);
                if (telemetry::metricsEnabled())
                    dummy.add();
            }
            if (telemetry::metricsEnabled())
                dummy.add();
            guarded += watch.seconds();
        }
    }

    telemetry::setMetricsEnabled(metricsWere);
    telemetry::setTracingEnabled(tracingWas);
    return bare > 0.0 ? 100.0 * (guarded - bare) / bare : 0.0;
}

/** One shot-draw group: a k-column alias table, `shots` per call. */
struct DrawCase
{
    std::uint64_t k;
    std::uint64_t shots;
};

const DrawCase kDrawCases[] = {{2, 2048}, {4, 256},   {4, 2048},
                               {8, 2048}, {64, 2048}, {1024, 512}};

/** Draws timed per row and rep (whole calls of `shots` draws). */
constexpr std::uint64_t kDrawsPerRep = 1ull << 20;

/**
 * Time @p calls back-to-back aliasDraws calls of @p shots draws, the
 * generator state carried from call to call as the sampler carries
 * it, from a fixed seed state. Returns the seconds; @p sig folds the
 * tally and the final state.
 */
double
timeDraws(const kern::KernelTable &table, std::uint64_t calls,
          std::uint64_t shots, const std::vector<std::uint64_t> &threshold,
          const std::vector<std::uint64_t> &alias, std::uint64_t *sig)
{
    std::uint64_t state[4] = {0x0123456789abcdefull, 0x1111,
                              0xfedcba9876543210ull, 0x2222};
    std::vector<std::uint64_t> tally(threshold.size(), 0);
    Stopwatch watch;
    for (std::uint64_t c = 0; c < calls; ++c)
        table.aliasDraws(state, shots, threshold.size(),
                         threshold.data(), alias.data(), tally.data());
    const double seconds = watch.seconds();
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint64_t w : tally)
        h = (h ^ w) * 1099511628211ull;
    for (const std::uint64_t w : state)
        h = (h ^ w) * 1099511628211ull;
    *sig = h;
    return seconds;
}

std::vector<int>
parseIntList(const char *env, const std::vector<int> &dflt)
{
    const char *text = std::getenv(env);
    if (!text)
        return dflt;
    std::vector<int> out;
    std::string token;
    for (const char *p = text;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!token.empty())
                out.push_back(std::atoi(token.c_str()));
            token.clear();
            if (*p == '\0')
                break;
        } else {
            token += *p;
        }
    }
    return out.empty() ? dflt : out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!parseStandardArgs(argc, argv))
        return 2;
    banner("Micro-kernels - SIMD-tier x kernel-thread statevector "
           "sweeps",
           ">= 1.5x serial on apply1Q/applyDiagonalRun per vector "
           "tier vs forced scalar; >= 2.5x on 22q+ at 8 kernel "
           "threads on unpinned multicore hosts; AVX-512 shot draws "
           ">= 1.5x scalar at k = 2, 4, 8 (k = 64, 1024 run the "
           "scalar body in every tier); bit-identical results in "
           "every tier x thread cell and shot-draw row");

    const int entry_threads = kernelThreads();
    // Tier sweep: forced scalar leads as the reference; then every
    // tier up to the active one (--simd / VARSAW_SIMD caps it, like
    // --kernel-threads caps the thread sweep).
    const kern::SimdTier entry_tier = kern::activeSimdTier();
    std::vector<kern::SimdTier> tiers{kern::SimdTier::Scalar};
    for (int t = static_cast<int>(kern::SimdTier::Scalar) + 1;
         t <= static_cast<int>(entry_tier); ++t)
        tiers.push_back(static_cast<kern::SimdTier>(t));
    const std::vector<int> sizes =
        parseIntList("VARSAW_BENCH_QUBITS", {16, 20, 24});
    std::vector<int> threads =
        parseIntList("VARSAW_BENCH_THREADS", {1, 2, 4, 8});
    // An explicit --kernel-threads/VARSAW_KERNEL_THREADS above 1
    // caps the sweep: never run rows wider than the operator asked
    // for. And the serial reference must be truly serial, so a
    // leading 1 is forced into the list.
    if (entry_threads > 1) {
        std::vector<int> capped;
        for (const int t : threads)
            if (t <= entry_threads)
                capped.push_back(t);
        threads = capped.empty() ? std::vector<int>{entry_threads}
                                 : capped;
    }
    if (threads.empty() || threads.front() != 1)
        threads.insert(threads.begin(), 1);
    const int reps =
        static_cast<int>(envInt("VARSAW_BENCH_REPS", 3));
    const bool check = envInt("VARSAW_BENCH_CHECK", 0) != 0;

    TablePrinter table("Statevector kernels: amps/s by SIMD tier x "
                       "kernel threads (speedup vs scalar serial)");
    table.setHeader({"Kernel", "Qubits", "SIMD", "Threads",
                     "Seconds", "Amps/s", "GiB/s", "Speedup",
                     "Identical"});
    CsvWriter csv(outPath("bench_micro_kernels.csv"));
    csv.writeRow({"kernel", "qubits", "simd_tier", "threads",
                  "seconds", "amps_per_sec", "gib_per_sec",
                  "speedup", "identical"});
    // Machine-readable twin of the CSV: one JSON object per cell
    // plus run metadata, for tooling that tracks speedup-vs-scalar
    // across commits.
    std::string json_rows;

    int mismatches = 0;
    double total_seconds = 0.0;
    double best_rate = 0.0;
    std::uint64_t cells = 0;
    for (const int n : sizes) {
        const Statevector input = makeInput(n);
        Statevector work(n);
        const double amps =
            static_cast<double>(1ull << n) *
            static_cast<double>(reps);
        for (const KernelCase &kc : kernelCases(n, input)) {
            double reference_rate = 0.0;
            std::uint64_t reference = 0;
            for (const kern::SimdTier tier : tiers) {
                kern::setSimdTier(tier);
                const char *tier_name = kern::simdTierName(tier);
                for (const int t : threads) {
                    setKernelThreads(t);
                    const bool is_reference =
                        tier == kern::SimdTier::Scalar && t == 1;
                    std::uint64_t sig = 0;
                    double seconds = 0.0;
                    for (int r = 0; r < reps; ++r) {
                        work.copyFrom(input);
                        Stopwatch watch;
                        const auto values = kc.run(work);
                        seconds += watch.seconds();
                        // Fingerprints live OUTSIDE the stopwatch
                        // (the row times the kernel, not the
                        // checksum) and EVERY rep folds into sig,
                        // so a single diverging repetition fails
                        // the gate.
                        const std::uint64_t rep_sig =
                            fingerprintDoubles(values) ^
                            (kc.mutates ? fingerprint(work) : 0);
                        sig = (sig ^ rep_sig) * 1099511628211ull;
                    }
                    const bool identical =
                        is_reference || sig == reference;
                    if (is_reference) {
                        reference = sig;
                        reference_rate = perSecond(
                            static_cast<std::uint64_t>(amps),
                            seconds);
                    }
                    if (!identical)
                        ++mismatches;
                    const double rate = perSecond(
                        static_cast<std::uint64_t>(amps), seconds);
                    const double gibs = seconds > 0.0
                        ? kc.passBytes * reps / seconds /
                            (1024.0 * 1024.0 * 1024.0)
                        : 0.0;
                    const double speedup = reference_rate > 0.0
                        ? rate / reference_rate
                        : 0.0;
                    table.addRow(
                        {kc.name,
                         TablePrinter::num(
                             static_cast<long long>(n)),
                         tier_name,
                         TablePrinter::num(
                             static_cast<long long>(t)),
                         TablePrinter::num(seconds, 4),
                         TablePrinter::num(rate, 0),
                         TablePrinter::num(gibs, 2),
                         TablePrinter::ratio(speedup),
                         identical ? "yes" : "NO"});
                    csv.writeRow(
                        {kc.name, std::to_string(n), tier_name,
                         std::to_string(t),
                         std::to_string(seconds),
                         std::to_string(rate),
                         std::to_string(gibs),
                         std::to_string(speedup),
                         identical ? "1" : "0"});
                    char row[512];
                    std::snprintf(
                        row, sizeof(row),
                        "%s    {\"kernel\": \"%s\", \"qubits\": %d,"
                        " \"simd_tier\": \"%s\", \"threads\": %d,"
                        " \"seconds\": %.6f,"
                        " \"amps_per_sec\": %.1f,"
                        " \"gib_per_sec\": %.3f,"
                        " \"speedup_vs_scalar_serial\": %.3f,"
                        " \"identical\": %s}",
                        json_rows.empty() ? "" : ",\n",
                        kc.name.c_str(), n, tier_name, t, seconds,
                        rate, gibs, speedup,
                        identical ? "true" : "false");
                    json_rows += row;
                    total_seconds += seconds;
                    best_rate = std::max(best_rate, rate);
                    ++cells;
                }
            }
        }
    }
    setKernelThreads(entry_threads);
    kern::setSimdTier(entry_tier);
    table.print();

    // Shot draws: one group per (k, shots), forced scalar first.
    TablePrinter draw_table("Shot draws (aliasDraws): draws/s by SIMD "
                            "tier (speedup vs scalar)");
    draw_table.setHeader({"Columns", "Shots", "SIMD", "Seconds",
                          "Draws/s", "Speedup", "Identical"});
    std::string draw_rows;
    for (const DrawCase &dc : kDrawCases) {
        Rng rng(dc.k * 1000003 + dc.shots);
        std::vector<std::uint64_t> threshold(dc.k), alias(dc.k);
        for (std::uint64_t c = 0; c < dc.k; ++c) {
            threshold[c] = rng.next();
            alias[c] = rng.uniformInt(dc.k);
        }
        const std::uint64_t calls =
            std::max<std::uint64_t>(1, kDrawsPerRep / dc.shots);
        const double draws = static_cast<double>(calls * dc.shots) *
            static_cast<double>(reps);
        double reference_rate = 0.0;
        std::uint64_t reference = 0;
        for (const kern::SimdTier tier : tiers) {
            const kern::KernelTable &kt = kern::kernelsFor(tier);
            const bool is_reference = tier == kern::SimdTier::Scalar;
            std::uint64_t sig = 0;
            double seconds = 0.0;
            for (int r = 0; r < reps; ++r) {
                std::uint64_t rep_sig = 0;
                seconds += timeDraws(kt, calls, dc.shots, threshold,
                                     alias, &rep_sig);
                sig = (sig ^ rep_sig) * 1099511628211ull;
            }
            const double rate = seconds > 0.0 ? draws / seconds : 0.0;
            if (is_reference) {
                reference = sig;
                reference_rate = rate;
            }
            const bool identical = is_reference || sig == reference;
            if (!identical)
                ++mismatches;
            const double speedup =
                reference_rate > 0.0 ? rate / reference_rate : 0.0;
            const char *tier_name = kern::simdTierName(tier);
            draw_table.addRow(
                {TablePrinter::num(static_cast<long long>(dc.k)),
                 TablePrinter::num(static_cast<long long>(dc.shots)),
                 tier_name, TablePrinter::num(seconds, 4),
                 TablePrinter::num(rate, 0),
                 TablePrinter::ratio(speedup),
                 identical ? "yes" : "NO"});
            char row[256];
            std::snprintf(
                row, sizeof(row),
                "%s    {\"columns\": %llu, \"shots\": %llu,"
                " \"simd_tier\": \"%s\", \"seconds\": %.6f,"
                " \"draws_per_sec\": %.1f,"
                " \"speedup_vs_scalar\": %.3f, \"identical\": %s}",
                draw_rows.empty() ? "" : ",\n",
                static_cast<unsigned long long>(dc.k),
                static_cast<unsigned long long>(dc.shots), tier_name,
                seconds, rate, speedup, identical ? "true" : "false");
            draw_rows += row;
        }
    }
    draw_table.print();

    // Per-cell detail rows (the CSV's machine-readable twin). The
    // standard perf-trajectory summary BENCH_micro_kernels.json is
    // written by emitBenchSummary() below.
    {
        const std::string cells_path =
            outPath("bench_micro_kernels_cells.json");
        std::FILE *jf = std::fopen(cells_path.c_str(), "w");
        if (jf) {
            std::fprintf(jf, "{\n  \"bench\": \"micro_kernels\",\n");
            std::fprintf(jf, "  \"max_supported_simd_tier\": \"%s\",\n",
                         kern::simdTierName(
                             kern::maxSupportedSimdTier()));
            std::fprintf(jf, "  \"tiers\": [");
            for (std::size_t i = 0; i < tiers.size(); ++i)
                std::fprintf(jf, "%s\"%s\"", i ? ", " : "",
                             kern::simdTierName(tiers[i]));
            std::fprintf(jf, "],\n  \"threads\": [");
            for (std::size_t i = 0; i < threads.size(); ++i)
                std::fprintf(jf, "%s%d", i ? ", " : "", threads[i]);
            std::fprintf(jf, "],\n  \"reps\": %d,\n", reps);
            std::fprintf(jf, "  \"mismatches\": %d,\n", mismatches);
            std::fprintf(jf, "  \"rows\": [\n%s\n  ],\n",
                         json_rows.c_str());
            std::fprintf(jf, "  \"draw_rows\": [\n%s\n  ]\n}\n",
                         draw_rows.c_str());
            std::fclose(jf);
            std::printf("wrote %s\n", cells_path.c_str());
        }
    }

    // Telemetry-guard overhead: serial apply1Q, telemetry compiled
    // in but disabled (the acceptance bound is < 1%; single runs
    // are noisy, so CI gates bit-identity, not this percentage).
    double guard_pct = 0.0;
    {
        setKernelThreads(1);
        const int guard_n =
            sizes.empty() ? 20 : std::min(sizes.front(), 22);
        guard_pct = measureGuardOverheadPercent(
            guard_n, std::max(8, 4 * reps));
        std::printf("\ntelemetry guard overhead (disabled, %dq "
                    "serial apply1Q): %+.3f%%\n",
                    guard_n, guard_pct);
        setKernelThreads(entry_threads);
    }

    BenchSummary summary;
    summary.wallSeconds = total_seconds;
    summary.executions = cells;
    summary.extra = {
        {"best_amps_per_sec", best_rate},
        {"mismatches", static_cast<double>(mismatches)},
        {"guard_overhead_pct", guard_pct},
    };
    emitBenchSummary(summary);

    if (mismatches != 0) {
        std::printf("\n%d kernel or shot-draw cell(s) diverged from "
                    "the scalar serial reference!\n",
                    mismatches);
        if (check) {
            std::printf("CHECK FAILED: kernels must be "
                        "bit-identical across SIMD tiers and "
                        "kernel threads\n");
            return 1;
        }
    } else if (check) {
        std::printf("\nCHECK PASSED: all kernels bit-identical "
                    "across SIMD tiers {%s..%s} x kernel threads "
                    "{%d..%d}, shot draws across the same tiers\n",
                    kern::simdTierName(tiers.front()),
                    kern::simdTierName(tiers.back()),
                    threads.front(), threads.back());
    }
    return 0;
}
