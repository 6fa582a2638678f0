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
 * the wide_postprocess workload.
 *
 * Knobs: VARSAW_BENCH_REPS (default 20 timing repetitions; the
 * fastest cases run 10x that), plus the standard --cache-bytes /
 * --kernel-threads flags.
 */

#include <cstdio>
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

    // One noisy H6-10 tick: every executed subset and every basis's
    // Global at 512 shots, then each basis's locals answered from the
    // shared subset results, as VarsawEstimator does.
    const SpatialPlan h6_plan = buildSpatialPlan(h6, 2);
    EfficientSU2 h6_ansatz(AnsatzConfig{10, 2, Entanglement::Linear});
    const auto h6_params = h6_ansatz.initialParameters(5);
    NoisyExecutor h6_exec(DeviceModel::mumbai(),
                          GateNoiseMode::AnalyticDepolarizing, 5);
    std::vector<Pmf> h6_subsets;
    for (const auto &subset : h6_plan.executedSubsets)
        h6_subsets.push_back(h6_exec.execute(
            makeSubsetCircuit(h6_ansatz.circuit(), subset), h6_params,
            512));
    std::vector<Pmf> h6_priors;
    for (const auto &basis : h6_plan.bases.bases)
        h6_priors.push_back(h6_exec.execute(
            makeGlobalCircuit(h6_ansatz.circuit(), basis), h6_params,
            512));
    std::vector<std::vector<LocalPmf>> h6_locals(h6_priors.size());
    for (std::size_t b = 0; b < h6_priors.size(); ++b)
        for (const auto &binding : h6_plan.basisWindows[b])
            h6_locals[b].push_back(
                {binding.globalPositions,
                 h6_subsets[binding.coverIndex].marginal(
                     binding.marginalPositions)});
    std::vector<Pmf> h6_mitigated(h6_priors.size());
    auto reconstruct_h6 = [&] {
        for (std::size_t b = 0; b < h6_priors.size(); ++b)
            h6_mitigated[b] =
                bayesianReconstruct(h6_priors[b], h6_locals[b], 1);
    };
    reconstruct_h6();

    std::vector<Case> cases;
    cases.push_back({"bayesianReconstruct_10q", reps, [&] {
                         Pmf out =
                             bayesianReconstruct(global, locals, 1);
                         (void)out.supportSize();
                     }});
    cases.push_back({"reconstructAll_H6-10", reps, [&] {
                         reconstruct_h6();
                         (void)h6_mitigated.back().supportSize();
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
    return 0;
}
