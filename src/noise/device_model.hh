/**
 * @file
 * Simulated NISQ device models.
 *
 * The paper evaluates on noisy simulation of IBMQ Mumbai (27 qubits)
 * and on IBM Lagos / Jakarta (7 qubits). Real calibration data is not
 * redistributable, so each preset synthesizes a deterministic,
 * heterogeneous error profile within the publicly reported ranges
 * (readout error 1-7%, two-qubit gate error ~1%, readout crosstalk
 * ~1.26-2x for simultaneous measurement). What matters for VarSaw is
 * the *structure* — heterogeneous readout quality (subsets map onto
 * the best qubits) plus crosstalk that grows with the number of
 * simultaneously measured qubits — and both are preserved.
 */

#ifndef VARSAW_NOISE_DEVICE_MODEL_HH
#define VARSAW_NOISE_DEVICE_MODEL_HH

#include <string>
#include <vector>

#include "noise/readout_error.hh"

namespace varsaw {

/** How gate noise is folded into a simulated execution. */
enum class GateNoiseMode
{
    /** No gate noise (readout error only). */
    None,
    /**
     * Global depolarizing approximation: the ideal output
     * distribution is mixed with the uniform distribution with
     * weight 1 - prod(1 - e_g) over all gates. Exact for a global
     * depolarizing channel; the default, and fast.
     */
    AnalyticDepolarizing,
    /**
     * Stochastic Pauli trajectories: per trajectory, each gate is
     * followed by a random Pauli on its qubits with the gate's error
     * probability. Slower; used for cross-validation.
     */
    PauliTrajectories,
};

/** A simulated quantum device: error rates plus readout profile. */
class DeviceModel
{
  public:
    DeviceModel() = default;

    /**
     * Build a device.
     *
     * @param name           Preset name for reporting.
     * @param readout        Per-physical-qubit readout errors.
     * @param crosstalk_slope Crosstalk slope (see crosstalkFactor()).
     * @param gate1_error    Depolarizing probability per 1q gate.
     * @param gate2_error    Depolarizing probability per 2q gate.
     */
    DeviceModel(std::string name, std::vector<ReadoutError> readout,
                double crosstalk_slope, double gate1_error,
                double gate2_error);

    /** Device name. */
    const std::string &name() const { return name_; }

    /** Number of physical qubits. */
    int numQubits() const
    {
        return static_cast<int>(readout_.size());
    }

    /** Per-physical-qubit readout errors (physical order). */
    const std::vector<ReadoutError> &readout() const
    {
        return readout_;
    }

    /** Crosstalk slope. */
    double crosstalkSlope() const { return crosstalkSlope_; }

    /** Depolarizing probability per one-qubit gate. */
    double gate1Error() const { return gate1Error_; }

    /** Depolarizing probability per two-qubit gate. */
    double gate2Error() const { return gate2Error_; }

    /**
     * Readout errors for a measurement of @p num_measured qubits.
     *
     * Models the two JigSaw mechanisms: when fewer qubits are
     * measured than the device has, the measurement is mapped onto
     * the qubits with the best readout fidelity (sorted ascending by
     * mean error); crosstalk scales every flip probability by
     * crosstalkFactor(num_measured).
     *
     * @param num_measured Number of simultaneously measured qubits.
     * @param best_mapping Map onto the best qubits (subset circuits)
     *                     or keep physical order (full measurement).
     */
    std::vector<ReadoutError>
    effectiveReadout(int num_measured, bool best_mapping) const;

    /**
     * Indices of the @p m qubits with lowest mean readout error: a
     * prefix of the ranking the constructor computes. Panics unless
     * 0 <= m <= numQubits().
     */
    std::vector<int> bestQubits(int m) const;

    /**
     * Copy of this device with *all* error rates multiplied by
     * @p factor (the Appendix B noise sweep).
     */
    DeviceModel scaled(double factor) const;

    /**
     * Copy with per-qubit readout errors perturbed by independent
     * log-normal factors of relative width @p relative_sigma —
     * models calibration drift between sessions (the Section 7.1
     * discussion of calibration-aware deployment).
     */
    DeviceModel drifted(std::uint64_t seed,
                        double relative_sigma) const;

    /** Copy with measurement crosstalk disabled (ablation). */
    DeviceModel withoutCrosstalk() const;

    /** Copy with gate noise disabled (measurement-error-only). */
    DeviceModel withoutGateNoise() const;

    /**
     * Copy with readout error (and crosstalk) disabled, keeping
     * gate noise — isolates the unmitigable error floor when
     * normalizing measurement-mitigation recovery.
     */
    DeviceModel withoutReadoutError() const;

    /** One-line description. */
    std::string summary() const;

    /** @name Presets
     *  @{
     */
    /** 27-qubit IBMQ-Mumbai-like device (the paper's main model). */
    static DeviceModel mumbai();

    /** 7-qubit IBM-Lagos-like device (Fig. 16). */
    static DeviceModel lagos();

    /** 7-qubit IBM-Jakarta-like device (Fig. 16, noisier readout). */
    static DeviceModel jakarta();

    /** Noiseless device with @p num_qubits qubits. */
    static DeviceModel ideal(int num_qubits);

    /**
     * Uniform synthetic device: identical readout error on every
     * qubit (useful in unit tests).
     */
    static DeviceModel uniform(int num_qubits, double p01, double p10,
                               double crosstalk_slope = 0.0,
                               double gate1_error = 0.0,
                               double gate2_error = 0.0);
    /** @} */

  private:
    std::string name_ = "null";
    std::vector<ReadoutError> readout_;
    double crosstalkSlope_ = 0.0;
    double gate1Error_ = 0.0;
    double gate2Error_ = 0.0;
    /**
     * Every qubit, ascending by mean readout error (ties in index
     * order). Computed once by the constructor, which every factory
     * builds through, so it always matches readout_.
     */
    std::vector<int> ranking_;
};

} // namespace varsaw

#endif // VARSAW_NOISE_DEVICE_MODEL_HH
