/**
 * @file
 * Fig. 12: measurement-subset counts for all 13 Table 2 workloads.
 *
 * Orange columns (left axis): JigSaw subsets and VarSaw subsets
 * relative to the baseline Pauli count. Green line (right axis):
 * the VarSaw:JigSaw reduction ratio — paper mean ~25x, >1000x for
 * Cr2-34, growing with problem size. The geometric mean (28.6x at
 * subset size 2) is the figure compared with the paper's ~25x: the
 * arithmetic mean (221x) is dominated by the two largest rows.
 *
 * The counts are exact, so VARSAW_BENCH_CHECK=1 turns the paper's
 * claim into a gate (for the paper's subset size 2): exit non-zero
 * unless VarSaw needs fewer subsets than JigSaw on every row, the
 * geometric-mean reduction is >= 20x and the largest is >= 1000x.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "core/spatial.hh"
#include "util/statistics.hh"

using namespace varsaw;
using namespace varsaw::bench;

int
main()
{
    banner("Fig. 12 - Pauli subset reduction, VarSaw vs JigSaw",
           "reduction ratio grows with molecule size; mean ~25x "
           "(compare the geometric mean), >1000x for the largest "
           "workload");

    const int window =
        static_cast<int>(envInt("VARSAW_SUBSET_SIZE", 2));

    TablePrinter table("Fig. 12 rows (subset size " +
                       std::to_string(window) + ")");
    table.setHeader({"Workload", "Baseline Paulis", "JigSaw subsets",
                     "VarSaw subsets", "JigSaw/Base", "VarSaw/Base",
                     "Reduction"});

    std::vector<double> ratios;
    std::vector<std::string> not_reduced;
    for (const auto &spec : table2Workloads()) {
        Hamiltonian h = molecule(spec.name);
        const SubsetCounts counts = countSubsets(h, window);
        ratios.push_back(counts.reductionRatio());
        if (counts.varsawSubsets >= counts.jigsawSubsets)
            not_reduced.push_back(spec.name);
        table.addRow({spec.name,
                      TablePrinter::num(static_cast<long long>(
                          counts.baselineBases)),
                      TablePrinter::num(static_cast<long long>(
                          counts.jigsawSubsets)),
                      TablePrinter::num(static_cast<long long>(
                          counts.varsawSubsets)),
                      TablePrinter::num(counts.jigsawRatio(), 2),
                      TablePrinter::num(counts.varsawRatio(), 2),
                      TablePrinter::ratio(counts.reductionRatio())});
    }
    table.print();

    const double geo = geometricMean(ratios);
    const double max = maxOf(ratios);
    std::printf("mean reduction: %.1fx geometric (the figure compared "
                "with the paper's ~25x mean; arithmetic %.1fx), max "
                "%.0fx (paper: >1000x)\n",
                geo, mean(ratios), max);

    if (envInt("VARSAW_BENCH_CHECK", 0) == 0)
        return 0;
    int failures = 0;
    for (const auto &name : not_reduced) {
        std::printf("CHECK FAILED: %s: VarSaw subsets not below "
                    "JigSaw's\n",
                    name.c_str());
        ++failures;
    }
    if (geo < 20.0) {
        std::printf("CHECK FAILED: geometric-mean reduction %.1fx < "
                    "20x\n",
                    geo);
        ++failures;
    }
    if (max < 1000.0) {
        std::printf("CHECK FAILED: max reduction %.0fx < 1000x\n",
                    max);
        ++failures;
    }
    if (failures != 0)
        return 1;
    std::printf("CHECK PASSED: VarSaw < JigSaw on every row, "
                "geometric mean %.1fx >= 20x, max %.0fx >= 1000x\n",
                geo, max);
    return 0;
}
