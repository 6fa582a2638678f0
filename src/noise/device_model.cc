#include "noise/device_model.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"

namespace varsaw {

namespace {

/**
 * Synthesize a deterministic heterogeneous readout profile: mean
 * errors log-uniform in [lo, hi], asymmetry p10 ~ 1.5-2.5x p01
 * (excited-state decay during readout).
 */
std::vector<ReadoutError>
syntheticReadout(int num_qubits, double lo, double hi,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<ReadoutError> out(num_qubits);
    for (auto &e : out) {
        const double log_lo = std::log(lo);
        const double log_hi = std::log(hi);
        const double mean = std::exp(rng.uniform(log_lo, log_hi));
        const double asym = rng.uniform(1.5, 2.5);
        // mean = (p01 + p10) / 2 with p10 = asym * p01.
        e.p01 = 2.0 * mean / (1.0 + asym);
        e.p10 = asym * e.p01;
    }
    return out;
}

} // namespace

DeviceModel::DeviceModel(std::string name,
                         std::vector<ReadoutError> readout,
                         double crosstalk_slope, double gate1_error,
                         double gate2_error)
    : name_(std::move(name)), readout_(std::move(readout)),
      crosstalkSlope_(crosstalk_slope), gate1Error_(gate1_error),
      gate2Error_(gate2_error)
{
    if (readout_.empty())
        panic("DeviceModel: must have at least one qubit");
    ranking_.resize(readout_.size());
    std::iota(ranking_.begin(), ranking_.end(), 0);
    std::stable_sort(ranking_.begin(), ranking_.end(),
                     [&](int a, int b) {
                         return readout_[a].meanError() <
                             readout_[b].meanError();
                     });
}

std::vector<ReadoutError>
DeviceModel::effectiveReadout(int num_measured, bool best_mapping) const
{
    if (num_measured < 1 || num_measured > numQubits())
        panic("DeviceModel::effectiveReadout: bad measured count");

    std::vector<ReadoutError> slots;
    slots.reserve(num_measured);
    for (int i = 0; i < num_measured; ++i)
        slots.push_back(readout_[best_mapping ? ranking_[i] : i]);

    const double factor = crosstalkFactor(num_measured,
                                          crosstalkSlope_);
    for (auto &e : slots)
        e = e.scaled(factor);
    return slots;
}

std::vector<int>
DeviceModel::bestQubits(int m) const
{
    if (m < 0 || m > numQubits())
        panic("DeviceModel::bestQubits: bad qubit count");
    return std::vector<int>(ranking_.begin(), ranking_.begin() + m);
}

DeviceModel
DeviceModel::scaled(double factor) const
{
    std::ostringstream name;
    name << name_ << "-x" << factor;
    std::vector<ReadoutError> readout = readout_;
    for (auto &e : readout)
        e = e.scaled(factor);
    return DeviceModel(name.str(), std::move(readout), crosstalkSlope_,
                       std::min(0.75, gate1Error_ * factor),
                       std::min(0.75, gate2Error_ * factor));
}

DeviceModel
DeviceModel::drifted(std::uint64_t seed, double relative_sigma) const
{
    Rng rng(seed);
    std::vector<ReadoutError> readout = readout_;
    for (auto &e : readout) {
        const double factor =
            std::exp(rng.normal(0.0, relative_sigma));
        e = e.scaled(factor);
    }
    return DeviceModel(name_ + "-drift", std::move(readout),
                       crosstalkSlope_, gate1Error_, gate2Error_);
}

DeviceModel
DeviceModel::withoutCrosstalk() const
{
    return DeviceModel(name_ + "-noxtalk", readout_, 0.0, gate1Error_,
                       gate2Error_);
}

DeviceModel
DeviceModel::withoutGateNoise() const
{
    return DeviceModel(name_ + "-meas-only", readout_, crosstalkSlope_,
                       0.0, 0.0);
}

std::string
DeviceModel::summary() const
{
    std::vector<double> means;
    means.reserve(readout_.size());
    for (const auto &e : readout_)
        means.push_back(e.meanError());
    const double lo = *std::min_element(means.begin(), means.end());
    const double hi = *std::max_element(means.begin(), means.end());
    std::ostringstream out;
    out << name_ << ": " << numQubits() << " qubits, readout "
        << lo * 100 << "-" << hi * 100 << "%, crosstalk slope "
        << crosstalkSlope_ << ", gate err " << gate1Error_ << "/"
        << gate2Error_;
    return out.str();
}

DeviceModel
DeviceModel::mumbai()
{
    // 27 qubits; readout mean error log-uniform in [0.5%, 6.5%]
    // (IBM Falcon r5.1 class machines report readout errors from a
    // few tenths of a percent up to ~7%); crosstalk slope tuned so
    // full-register readout is ~2x worse than isolated, matching
    // the order-of-magnitude degradation the paper cites. Gate
    // errors are kept low enough that measurement error dominates
    // the shallow SU2 ansatz, as in the paper's setting.
    return DeviceModel("ibmq_mumbai_sim",
                       syntheticReadout(27, 0.005, 0.065, 0x4D554D42ull),
                       0.04, 1e-4, 1e-3);
}

DeviceModel
DeviceModel::lagos()
{
    // 7-qubit Falcon r5.11H-like: comparatively clean readout.
    return DeviceModel("ibm_lagos_sim",
                       syntheticReadout(7, 0.007, 0.035, 0x4C41474Full),
                       0.045, 2e-4, 1.5e-3);
}

DeviceModel
DeviceModel::jakarta()
{
    // 7-qubit Falcon r5.11L-like: noisier readout than Lagos.
    return DeviceModel("ibm_jakarta_sim",
                       syntheticReadout(7, 0.015, 0.06, 0x4A414B41ull),
                       0.055, 3e-4, 2.5e-3);
}

DeviceModel
DeviceModel::withoutReadoutError() const
{
    return DeviceModel(name_ + "-gate-only",
                       std::vector<ReadoutError>(readout_.size()), 0.0,
                       gate1Error_, gate2Error_);
}

DeviceModel
DeviceModel::ideal(int num_qubits)
{
    return DeviceModel("ideal",
                       std::vector<ReadoutError>(num_qubits),
                       0.0, 0.0, 0.0);
}

DeviceModel
DeviceModel::uniform(int num_qubits, double p01, double p10,
                     double crosstalk_slope, double gate1_error,
                     double gate2_error)
{
    std::vector<ReadoutError> readout(num_qubits);
    for (auto &e : readout) {
        e.p01 = p01;
        e.p10 = p10;
    }
    return DeviceModel("uniform", std::move(readout), crosstalk_slope,
                       gate1_error, gate2_error);
}

} // namespace varsaw
