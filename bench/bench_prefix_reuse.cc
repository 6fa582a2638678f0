/**
 * @file
 * Prefix-reuse throughput: the prefix-shared SimEngine vs the
 * legacy per-circuit path on a VarSaw CH4-style objective
 * evaluation — a heavy 12-qubit ansatz measured in many bases, all
 * sharing one state-prep prefix.
 *
 * Legacy: every basis circuit is submitted as a full clone and
 * simulated from |0...0> (engine cache disabled). Engine: the same
 * work as (shared prep, suffix) jobs with the prepared-state cache
 * on, so each evaluation costs ONE full prep simulation plus one
 * cheap suffix + marginal per basis.
 *
 * Expected shape: about 2.8x circuits/sec on the 12-qubit /
 * 20-basis workload at the default 2048 shots (measured 2.7-2.9x on
 * a 4-thread host, g++ 12, AVX-512; about 2.9x at 256 shots). The
 * prep is ~200 gate kernels vs a handful of suffix rotations, but
 * both paths pay the per-job work in full: readout confusion over
 * the 4096-outcome marginal and the alias-table build over it,
 * which alone is about half of the prefix-shared path's time. Also
 * a prep-cache hit rate of (bases-1)/bases per evaluation, and
 * bit-identical energies on both paths.
 *
 * Knobs: VARSAW_BENCH_TICKS (evaluations), VARSAW_BENCH_SHOTS.
 * VARSAW_BENCH_CHECK=1 turns the bench into a CI gate: exit
 * non-zero unless the two paths are bit-identical, the prep-cache
 * hit rate reaches (bases-1)/bases, and preps run once per point.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "runtime/batch_executor.hh"
#include "util/csv.hh"
#include "vqa/ansatz.hh"

using namespace varsaw;
using namespace varsaw::bench;

namespace {

/** Deterministic CH4-style basis pool: dense X/Y/Z strings. */
std::vector<PauliString>
randomBases(int qubits, int count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliString> bases;
    bases.reserve(static_cast<std::size_t>(count));
    for (int b = 0; b < count; ++b) {
        PauliString s(qubits);
        for (int q = 0; q < qubits; ++q) {
            switch (rng.uniformInt(3)) {
              case 0: s.setOp(q, PauliOp::X); break;
              case 1: s.setOp(q, PauliOp::Y); break;
              default: s.setOp(q, PauliOp::Z); break;
            }
        }
        bases.push_back(std::move(s));
    }
    return bases;
}

struct Measurement
{
    double seconds = 0.0;
    std::uint64_t circuits = 0;
    std::uint64_t prepSims = 0;
    std::uint64_t suffixApps = 0;
    std::uint64_t scratchAllocs = 0;
    std::uint64_t scratchReuses = 0;
    double prepHitRate = 0.0;
    double checksum = 0.0; //!< sum over result PMFs, for identity
};

Measurement
measure(bool prefix_shared, const Circuit &ansatz,
        const std::vector<PauliString> &bases,
        const std::vector<std::vector<double>> &points,
        std::uint64_t shots, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       4321);
    exec.simEngine().setCacheEnabled(prefix_shared);
    BatchExecutor runtime(exec, RuntimeConfig{});

    auto prep = std::make_shared<const Circuit>(ansatz);
    std::vector<Circuit> suffixes;
    std::vector<Circuit> fulls;
    for (const auto &basis : bases) {
        if (prefix_shared)
            suffixes.push_back(makeGlobalSuffix(basis));
        else
            fulls.push_back(makeGlobalCircuit(ansatz, basis));
    }

    Measurement m;
    Stopwatch watch;
    for (const auto &params : points) {
        Batch batch;
        batch.reserve(bases.size());
        for (std::size_t b = 0; b < bases.size(); ++b) {
            if (prefix_shared)
                batch.addPrefixed(prep, suffixes[b], params, shots);
            else
                batch.add(fulls[b], params, shots);
        }
        for (const auto &pmf : runtime.run(batch))
            m.checksum += pmf.prob(0);
    }
    m.seconds = watch.seconds();
    m.circuits = exec.circuitsExecuted();
    const SimEngineStats stats = exec.simEngine().stats();
    m.prepSims = stats.prepSimulations;
    m.suffixApps = stats.suffixApplications;
    m.scratchAllocs = stats.suffixScratchAllocs;
    m.scratchReuses = stats.suffixScratchReuses;
    m.prepHitRate = stats.cache.hitRate();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!parseStandardArgs(argc, argv))
        return 2;
    banner("Prefix reuse - shared state-prep vs per-circuit "
           "simulation",
           "about 2.8x circuits/sec on a 12-qubit, 20-basis "
           "evaluation at 2048 shots; one prep simulation per "
           "(params) point; identical results");

    // Depth p = 3 (the paper sweeps EfficientSU2 up to p = 4 in
    // Table 4): a deep prep is exactly the regime the engine
    // targets — CH4-style many-bases evaluations of a heavy ansatz.
    const int qubits = 12;
    const int num_bases = 20;
    EfficientSU2 ansatz(AnsatzConfig{qubits, 3, Entanglement::Full});
    const auto bases = randomBases(qubits, num_bases, 99);
    const DeviceModel device = DeviceModel::uniform(
        qubits, 0.02, 0.05, 0.02, 1e-4, 1e-3);

    const int ticks =
        static_cast<int>(envInt("VARSAW_BENCH_TICKS", 8));
    const auto shots = static_cast<std::uint64_t>(
        envInt("VARSAW_BENCH_SHOTS", 2048));

    // Optimizer-style trajectory of parameter points; every point
    // is a fresh prep key, so the cache works across bases, not
    // across ticks.
    Rng rng(17);
    std::vector<std::vector<double>> points;
    std::vector<double> params = ansatz.initialParameters(17);
    for (int t = 0; t < ticks; ++t) {
        for (auto &p : params)
            p += rng.normal(0.0, 0.05);
        points.push_back(params);
    }

    const Measurement legacy = measure(
        false, ansatz.circuit(), bases, points, shots, device);
    const Measurement shared = measure(
        true, ansatz.circuit(), bases, points, shots, device);

    if (legacy.checksum != shared.checksum)
        std::printf("WARNING: prefix-shared results differ from the "
                    "legacy path!\n");

    const double legacy_rate =
        perSecond(legacy.circuits, legacy.seconds);
    const double shared_rate =
        perSecond(shared.circuits, shared.seconds);

    TablePrinter table("Prefix-shared engine vs legacy per-circuit "
                       "simulation (12q, 20 bases)");
    table.setHeader({"Path", "Circuits", "Prep sims", "Seconds",
                     "Circuits/sec", "Speedup", "Prep hits"});
    CsvWriter csv(outPath("bench_prefix_reuse.csv"));
    csv.writeRow({"path", "circuits", "prep_sims", "seconds",
                  "circuits_per_sec", "speedup", "prep_hit_rate"});

    table.addRow({"legacy",
                  TablePrinter::num(
                      static_cast<long long>(legacy.circuits)),
                  TablePrinter::num(
                      static_cast<long long>(legacy.prepSims)),
                  TablePrinter::num(legacy.seconds, 3),
                  TablePrinter::num(legacy_rate, 1),
                  TablePrinter::ratio(1.0), TablePrinter::percent(0.0)});
    csv.writeNumericRow({0.0, static_cast<double>(legacy.circuits),
                         static_cast<double>(legacy.prepSims),
                         legacy.seconds, legacy_rate, 1.0, 0.0});

    const double speedup =
        legacy_rate > 0.0 ? shared_rate / legacy_rate : 0.0;
    table.addRow({"prefix-shared",
                  TablePrinter::num(
                      static_cast<long long>(shared.circuits)),
                  TablePrinter::num(
                      static_cast<long long>(shared.prepSims)),
                  TablePrinter::num(shared.seconds, 3),
                  TablePrinter::num(shared_rate, 1),
                  TablePrinter::ratio(speedup),
                  TablePrinter::percent(shared.prepHitRate)});
    csv.writeNumericRow({1.0, static_cast<double>(shared.circuits),
                         static_cast<double>(shared.prepSims),
                         shared.seconds, shared_rate, speedup,
                         shared.prepHitRate});

    table.print();
    std::printf("\nprefix-shared prep simulations: %llu (one per "
                "parameter point over %d points)\n",
                static_cast<unsigned long long>(shared.prepSims),
                ticks);
    std::printf("suffix scratch: %llu reuses, %llu allocations "
                "(zero-copy suffix path: allocations are per "
                "worker thread, never per basis)\n",
                static_cast<unsigned long long>(
                    shared.scratchReuses),
                static_cast<unsigned long long>(
                    shared.scratchAllocs));

    BenchSummary summary;
    summary.wallSeconds = legacy.seconds + shared.seconds;
    summary.executions = legacy.circuits + shared.circuits;
    summary.cacheHits = static_cast<std::uint64_t>(
        shared.prepHitRate *
        static_cast<double>(shared.circuits));
    summary.extra = {
        {"legacy_circuits_per_sec", legacy_rate},
        {"shared_circuits_per_sec", shared_rate},
        {"speedup", speedup},
        {"prep_hit_rate", shared.prepHitRate},
    };
    emitBenchSummary(summary);

    if (envInt("VARSAW_BENCH_CHECK", 0) != 0) {
        // CI smoke gate: the engine must stay transparent and the
        // cache must keep its per-evaluation hit rate — every basis
        // after the first hits the prepared state, so the workload's
        // floor is (bases-1)/bases (95% here).
        const double min_hit_rate =
            static_cast<double>(num_bases - 1) /
            static_cast<double>(num_bases);
        int failures = 0;
        if (legacy.checksum != shared.checksum) {
            std::printf("CHECK FAILED: results differ between "
                        "paths\n");
            ++failures;
        }
        if (shared.prepHitRate + 1e-12 < min_hit_rate) {
            std::printf("CHECK FAILED: prep hit rate %.4f < %.4f\n",
                        shared.prepHitRate, min_hit_rate);
            ++failures;
        }
        if (shared.prepSims != static_cast<std::uint64_t>(ticks)) {
            std::printf("CHECK FAILED: %llu prep sims for %d "
                        "points\n",
                        static_cast<unsigned long long>(
                            shared.prepSims),
                        ticks);
            ++failures;
        }
        // Zero-copy suffix path: the runtime here is
        // single-threaded, so every suffix that copies the
        // prepared state (all of them except gate-free all-Z
        // bases) must land in ONE reusable scratch — at most one
        // allocation total, never one per basis.
        std::uint64_t copy_suffixes = 0;
        for (const auto &basis : bases)
            if (!makeGlobalSuffix(basis).ops().empty())
                ++copy_suffixes;
        copy_suffixes *= static_cast<std::uint64_t>(ticks);
        if (shared.scratchAllocs > 1) {
            std::printf("CHECK FAILED: %llu suffix scratch "
                        "allocations (max 1 on a single-threaded "
                        "runtime)\n",
                        static_cast<unsigned long long>(
                            shared.scratchAllocs));
            ++failures;
        }
        if (shared.scratchAllocs + shared.scratchReuses !=
            copy_suffixes) {
            std::printf("CHECK FAILED: scratch allocs+reuses "
                        "%llu != %llu copying suffixes\n",
                        static_cast<unsigned long long>(
                            shared.scratchAllocs +
                            shared.scratchReuses),
                        static_cast<unsigned long long>(
                            copy_suffixes));
            ++failures;
        }
        if (failures != 0)
            return 1;
        std::printf("CHECK PASSED: bit-identical, hit rate %.1f%%, "
                    "one prep per point, zero per-basis "
                    "allocations\n",
                    100.0 * shared.prepHitRate);
    }
    return 0;
}
