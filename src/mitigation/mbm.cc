#include "mitigation/mbm.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace varsaw {

MbmCalibration::MbmCalibration(std::vector<ReadoutError> errors)
    : errors_(std::move(errors))
{
}

MbmCalibration
MbmCalibration::calibrate(Executor &executor, int num_qubits,
                          std::uint64_t shots)
{
    // |0...0>: any bit reading 1 is a p01 flip. A bare circuit has no
    // gates, but needs at least one op for clarity; use identity-free
    // construction (no gates at all is valid for the simulator).
    Circuit zeros(num_qubits, "mbm-cal-zeros");
    zeros.measureAll();
    Pmf zeros_pmf = executor.execute(zeros, {}, shots);

    // |1...1>: any bit reading 0 is a p10 flip.
    Circuit ones(num_qubits, "mbm-cal-ones");
    for (int q = 0; q < num_qubits; ++q)
        ones.x(q);
    ones.measureAll();
    Pmf ones_pmf = executor.execute(ones, {}, shots);

    MbmCalibration cal;
    cal.errors_.resize(num_qubits);
    for (int q = 0; q < num_qubits; ++q) {
        // Marginal probability of reading 1 (resp. 0) on qubit q.
        double p01 = 0.0;
        for (const Pmf::Entry &e : zeros_pmf.entries())
            if ((e.outcome >> q) & 1ull)
                p01 += e.p;
        double p10 = 0.0;
        for (const Pmf::Entry &e : ones_pmf.entries())
            if (!((e.outcome >> q) & 1ull))
                p10 += e.p;
        cal.errors_[q].p01 = p01;
        cal.errors_[q].p10 = p10;
    }
    return cal;
}

Pmf
MbmCalibration::apply(const Pmf &measured) const
{
    if (measured.numBits() != numQubits())
        panic("MbmCalibration::apply: width mismatch");

    std::vector<double> dense = measured.toDense();
    if (!applyInverseReadoutConfusion(dense, errors_)) {
        warn("MbmCalibration: singular confusion matrix; "
             "returning input unchanged");
        return measured;
    }
    for (auto &p : dense)
        p = std::max(0.0, p);

    Pmf out = Pmf::fromDense(measured.numBits(), dense, 1e-14);
    out.normalize();
    return out;
}

} // namespace varsaw
