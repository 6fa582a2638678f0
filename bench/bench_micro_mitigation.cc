/**
 * @file
 * Micro-benchmarks for the mitigation/planning hot paths that the
 * statevector-focused bench_micro_kernels no longer covers:
 * Bayesian reconstruction, commutation cover reduction, subset
 * reduction, spatial-plan construction, ansatz simulation, and
 * end-to-end noisy execution. Plain table bench (ops/sec per
 * case), CSV via util/csv.
 *
 * bayesianReconstruct_10q fuses into a dense 1024-outcome global;
 * the *_H6-10 cases instead replay VarSaw's per-evaluation
 * post-processing on the real H6-10 plan (809 bases, 5848 windows)
 * with priors and locals from one noisy 512-shot tick, the shape of
 * the wide_postprocess workload; the *_CH4-6 cases do the same on
 * CH4-6 (66 bases) at 2048 shots, the shape of ch4_vqe.
 * reconstructAll_* calls bayesianReconstruct once per basis;
 * reconstructAllBatched_* makes the one bayesianReconstructAll call
 * VarsawEstimator makes, which the AVX-512 tier runs eight bases
 * at a time.
 *
 * Knobs: VARSAW_BENCH_REPS (default 20 timing repetitions; the
 * fastest cases run 10x that), plus the standard --cache-bytes /
 * --kernel-threads flags. VARSAW_BENCH_CHECK=1 exits non-zero unless
 * the batched results equal the per-basis ones bit for bit.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hh"
#include "core/spatial.hh"
#include "mitigation/bayesian.hh"
#include "mitigation/executor.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "sim/kernels/kernels.hh"
#include "sim/statevector.hh"
#include "util/csv.hh"
#include "util/rng.hh"
#include "vqa/ansatz.hh"

using namespace varsaw;
using namespace varsaw::bench;

namespace {

struct Case
{
    std::string name;
    int reps;
    std::function<void()> run; //!< one timed invocation
};

/** Every basis's prior and locals for one VarSaw tick. */
struct PlanTick
{
    std::vector<Pmf> priors;
    std::vector<std::vector<LocalPmf>> locals;
};

/** One noisy tick on @p plan: every executed subset and every
 * basis's Global at @p shots, then each basis's locals answered from
 * the shared subset results, as VarsawEstimator does. */
PlanTick
noisyTick(const SpatialPlan &plan, const EfficientSU2 &ansatz,
          const std::vector<double> &params, std::uint64_t shots)
{
    NoisyExecutor exec(DeviceModel::mumbai(),
                       GateNoiseMode::AnalyticDepolarizing, 5);
    std::vector<Pmf> subsets;
    for (const auto &subset : plan.executedSubsets)
        subsets.push_back(exec.execute(
            makeSubsetCircuit(ansatz.circuit(), subset), params, shots));
    PlanTick tick;
    for (const auto &basis : plan.bases.bases)
        tick.priors.push_back(exec.execute(
            makeGlobalCircuit(ansatz.circuit(), basis), params, shots));
    tick.locals.resize(tick.priors.size());
    for (std::size_t b = 0; b < tick.priors.size(); ++b)
        for (const auto &binding : plan.basisWindows[b])
            tick.locals[b].push_back(
                {binding.globalPositions,
                 subsets[binding.coverIndex].marginal(
                     binding.marginalPositions)});
    return tick;
}

/** Whether @p a and @p b hold the same PMFs down to the bits of
 * every probability (±0.0 and NaN payloads included). */
bool
sameBits(const std::vector<Pmf> &a, const std::vector<Pmf> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i].entries();
        const auto &y = b[i].entries();
        if (a[i].numBits() != b[i].numBits() || x.size() != y.size() ||
            (!x.empty() &&
             std::memcmp(x.data(), y.data(),
                         x.size() * sizeof(Pmf::Entry)) != 0))
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!parseStandardArgs(argc, argv))
        return 2;
    banner("Micro-mitigation - reconstruction, reduction, and "
           "planning hot paths",
           "throughput only; results are deterministic per fixed "
           "seed");

    const int reps =
        static_cast<int>(envInt("VARSAW_BENCH_REPS", 20));

    // ---- Fixtures (built once, outside every timed region) ------
    Rng rng(9);
    Pmf global(10);
    for (int i = 0; i < (1 << 10); ++i)
        global.set(i, rng.uniform());
    global.normalize();
    std::vector<LocalPmf> locals;
    for (int s = 0; s + 1 < 10; ++s) {
        LocalPmf local;
        local.positions = {s, s + 1};
        local.pmf = Pmf(2);
        for (int i = 0; i < 4; ++i)
            local.pmf.set(i, rng.uniform());
        local.pmf.normalize();
        locals.push_back(std::move(local));
    }

    const Hamiltonian ch4 = molecule("CH4-8");
    const Hamiltonian h6 = molecule("H6-10");
    const auto h6_pool = aggregateSubsets(h6.strings(), 2);

    EfficientSU2 ansatz(AnsatzConfig{10, 2, Entanglement::Full});
    const auto ansatz_params = ansatz.initialParameters(1);

    EfficientSU2 noisy_ansatz(AnsatzConfig{6, 2,
                                           Entanglement::Full});
    const auto noisy_params = noisy_ansatz.initialParameters(3);
    NoisyExecutor exec(DeviceModel::mumbai());
    Circuit noisy_circuit(6);
    noisy_circuit.append(noisy_ansatz.circuit());
    noisy_circuit.measureAll();

    const SpatialPlan h6_plan = buildSpatialPlan(h6, 2);
    EfficientSU2 h6_ansatz(AnsatzConfig{10, 2, Entanglement::Linear});
    const PlanTick h6_tick = noisyTick(
        h6_plan, h6_ansatz, h6_ansatz.initialParameters(5), 512);
    const SpatialPlan ch4_6_plan =
        buildSpatialPlan(molecule("CH4-6"), 2);
    EfficientSU2 ch4_6_ansatz(AnsatzConfig{6, 2, Entanglement::Full});
    const PlanTick ch4_6_tick =
        noisyTick(ch4_6_plan, ch4_6_ansatz,
                  ch4_6_ansatz.initialParameters(5), 2048);

    const auto per_basis = [](const PlanTick &tick,
                              std::vector<Pmf> &out) {
        out.resize(tick.priors.size());
        for (std::size_t b = 0; b < tick.priors.size(); ++b)
            out[b] = bayesianReconstruct(tick.priors[b],
                                         tick.locals[b], 1);
    };
    const auto batched = [](const PlanTick &tick,
                            std::vector<Pmf> &out) {
        out = bayesianReconstructAll(tick.priors, tick.locals, 1);
    };
    std::vector<Pmf> h6_mitigated;
    std::vector<Pmf> h6_batched;
    std::vector<Pmf> ch4_6_mitigated;
    std::vector<Pmf> ch4_6_batched;
    per_basis(h6_tick, h6_mitigated);
    batched(h6_tick, h6_batched);
    per_basis(ch4_6_tick, ch4_6_mitigated);
    batched(ch4_6_tick, ch4_6_batched);
    const bool batched_identical =
        sameBits(h6_mitigated, h6_batched) &&
        sameBits(ch4_6_mitigated, ch4_6_batched);

    std::vector<Case> cases;
    cases.push_back({"bayesianReconstruct_10q", reps, [&] {
                         Pmf out =
                             bayesianReconstruct(global, locals, 1);
                         (void)out.supportSize();
                     }});
    cases.push_back({"reconstructAll_H6-10", reps, [&] {
                         per_basis(h6_tick, h6_mitigated);
                         (void)h6_mitigated.back().supportSize();
                     }});
    cases.push_back({"reconstructAllBatched_H6-10", reps, [&] {
                         batched(h6_tick, h6_batched);
                         (void)h6_batched.back().supportSize();
                     }});
    cases.push_back({"reconstructAll_CH4-6", reps * 10, [&] {
                         per_basis(ch4_6_tick, ch4_6_mitigated);
                         (void)ch4_6_mitigated.back().supportSize();
                     }});
    cases.push_back({"reconstructAllBatched_CH4-6", reps * 10, [&] {
                         batched(ch4_6_tick, ch4_6_batched);
                         (void)ch4_6_batched.back().supportSize();
                     }});
    cases.push_back({"energyFromBasisPmfs_H6-10", reps, [&] {
                         const double e = energyFromBasisPmfs(
                             h6, h6_plan.bases, h6_mitigated);
                         (void)e;
                     }});
    cases.push_back({"coverReduce_CH4-8", reps, [&] {
                         (void)coverReduce(ch4.strings()).bases
                             .size();
                     }});
    cases.push_back({"coverReduce_H6-10", reps, [&] {
                         (void)coverReduce(h6.strings()).bases
                             .size();
                     }});
    cases.push_back({"reduceSubsets_H6-10", reps, [&] {
                         (void)reduceSubsets(h6_pool).size();
                     }});
    cases.push_back({"buildSpatialPlan_CH4-8", reps, [&] {
                         (void)buildSpatialPlan(ch4, 2)
                             .executedSubsets.size();
                     }});
    cases.push_back({"ansatzSimulation_10q", reps, [&] {
                         Statevector sv(10);
                         sv.run(ansatz.circuit(), ansatz_params);
                         (void)sv.norm();
                     }});
    cases.push_back({"noisyExecution_6q_1024shots", reps, [&] {
                         (void)exec.execute(noisy_circuit,
                                            noisy_params, 1024)
                             .supportSize();
                     }});

    TablePrinter table("Mitigation/planning micro-benchmarks");
    table.setHeader({"Case", "Reps", "Seconds", "Ops/sec"});
    CsvWriter csv(outPath("bench_micro_mitigation.csv"));
    csv.writeRow({"case", "reps", "seconds", "ops_per_sec"});

    BenchSummary summary;
    for (const Case &c : cases) {
        Stopwatch watch;
        for (int r = 0; r < c.reps; ++r)
            c.run();
        const double seconds = watch.seconds();
        const double rate = perSecond(
            static_cast<std::uint64_t>(c.reps), seconds);
        table.addRow({c.name,
                      TablePrinter::num(
                          static_cast<long long>(c.reps)),
                      TablePrinter::num(seconds, 4),
                      TablePrinter::num(rate, 1)});
        csv.writeRow({c.name, std::to_string(c.reps),
                      std::to_string(seconds),
                      std::to_string(rate)});
        summary.wallSeconds += seconds;
        summary.executions +=
            static_cast<std::uint64_t>(c.reps);
        summary.extra.emplace_back(c.name + "_ops_per_sec", rate);
    }
    table.print();
    emitBenchSummary(summary);

    // Compared before the timed loops, which recompute the same
    // results; the tier is whatever --simd / VARSAW_SIMD installed.
    std::printf("\nbayesianReconstructAll vs per-basis "
                "bayesianReconstruct (H6-10, CH4-6, %s tier): %s\n",
                kern::simdTierName(kern::activeSimdTier()),
                batched_identical ? "bit-identical" : "DIFFERENT");
    if (!batched_identical &&
        envInt("VARSAW_BENCH_CHECK", 0) != 0) {
        std::printf("CHECK FAILED: the batched reconstruction must "
                    "equal the per-basis one bit for bit\n");
        return 1;
    }
    return 0;
}
