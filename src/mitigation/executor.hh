/**
 * @file
 * Circuit execution backends.
 *
 * An Executor turns (circuit, parameters, shots) into a measured
 * probability distribution, and counts every submitted circuit —
 * the paper's quantum computational cost metric is exactly this
 * counter. Two backends are provided: an ideal one and the noisy
 * simulated-device one used throughout the evaluation.
 *
 * Both exact backends simulate through the prefix-sharing SimEngine
 * (src/sim/sim_engine.hh): each job's state-prep prefix is
 * simulated once per unique (prefix, params) key and shared across
 * every measurement suffix, whether the job arrived as an explicit
 * (prep, suffix) pair or as a plain circuit the engine splits
 * itself. Prepared states are deterministic, so the engine changes
 * cost, never results; simEngine().setCacheEnabled(false) restores
 * the one-full-simulation-per-circuit behaviour bit for bit.
 */

#ifndef VARSAW_MITIGATION_EXECUTOR_HH
#define VARSAW_MITIGATION_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
#include "noise/device_model.hh"
#include "sim/circuit.hh"
#include "sim/job.hh"
#include "sim/sim_engine.hh"
#include "sim/statevector.hh"
#include "util/pmf.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace varsaw {

/**
 * Abstract circuit-execution backend with cost accounting.
 *
 * Every execution attempt that reaches the backend increments the
 * circuit counter by one and the shot counter by the requested
 * shots, regardless of backend. Counters are atomic so concurrent
 * submissions through the batch runtime account exactly.
 *
 * Every job samples from a stream derived purely from (executor
 * seed, stream id) and touches no mutable sampling state, so any
 * number of jobs may run concurrently and results are independent
 * of execution order. Two entry points:
 *  - tryExecuteJob() runs a job view on an explicit stream and
 *    reports failures as a Status (the runtime's path);
 *  - execute() runs one circuit on its content stream,
 *    jobStream(makeJobKey(job)), and throws on failure.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /**
     * Execute a circuit and return the distribution over its
     * measured qubits (bit i of an outcome = measured qubit i).
     *
     * The throwing form of tryExecuteJob() on the job's content
     * stream: thread-safe, retried like every other job, and bit
     * for bit what a BatchExecutor or a service session returns for
     * the same (circuit, params, shots) on this backend.
     *
     * @param circuit Circuit with a non-empty measurement spec.
     * @param params  Values for the circuit's symbolic parameters.
     * @param shots   Number of samples; 0 requests the exact
     *                (infinite-shot) distribution of this backend.
     * @throws StatusError when tryExecuteJob() fails.
     */
    Pmf execute(const Circuit &circuit,
                const std::vector<double> &params,
                std::uint64_t shots);

    /**
     * Fault-tolerant execution core: validate, then run up to
     * retryPolicy().maxAttempts attempts with deterministic
     * exponential backoff (base << (attempt-1), capped) between
     * them, under the policy's per-job deadline (measured on the
     * fault-handling clock — virtual under a virtual-time plan).
     * Injected transient failures (fault::FaultSite) and detected
     * wire corruption are absorbed by the retry loop; the attempt
     * that succeeds samples from Rng::forStream(seed(), stream)
     * exactly like a first-try success, so a retried job's result
     * is bit-identical to an unfaulted run by construction.
     *
     * Error taxonomy (util/status.hh): InvalidArgument for
     * malformed submissions (checked before any attempt),
     * DeadlineExceeded when the deadline elapses, Unavailable /
     * DataLoss when every attempt failed transiently.
     *
     * Cost accounting: only attempts that actually reach the
     * backend are counted (an injected transient fails BEFORE
     * execution), so at chaos-CI rates (transient + latency only)
     * circuit/shot counters match the fault-free run exactly.
     */
    StatusOr<Pmf> tryExecuteJob(const JobView &job,
                                std::uint64_t stream);

    /**
     * Override the retry policy for this executor (defaults to
     * fault::defaultRetryPolicy(), i.e. the installed FaultPlan's
     * retry fields, re-read at every call so late plan changes
     * apply). NOT thread-safe: call before submitting jobs.
     */
    void setRetryPolicy(fault::RetryPolicy policy)
    {
        retry_ = policy;
    }

    /** Drop the per-executor override (back to the plan default). */
    void clearRetryPolicy() { retry_.reset(); }

    /** The effective retry policy (override or plan default). */
    fault::RetryPolicy retryPolicy() const
    {
        return retry_ ? *retry_ : fault::defaultRetryPolicy();
    }

    /** Retry attempts performed since construction / reset — every
     * attempt after a job's first (successful or not). */
    std::uint64_t retriesPerformed() const
    {
        return retries_.load(std::memory_order_relaxed);
    }

    /** Total circuits submitted since construction / reset. */
    std::uint64_t circuitsExecuted() const
    {
        return circuits_.load(std::memory_order_relaxed);
    }

    /** Total shots submitted since construction / reset. */
    std::uint64_t shotsExecuted() const
    {
        return shots_.load(std::memory_order_relaxed);
    }

    /** Reset the cost counters. */
    void resetCounters();

    /** The base seed of this executor's sampling streams. */
    std::uint64_t seed() const { return seed_; }

    /**
     * The prefix-sharing simulation engine backing exact state
     * evolution (prep cache, work counters). Shared by every job
     * this executor runs; internally synchronized.
     */
    SimEngine &simEngine() { return *simEngine_; }
    const SimEngine &simEngine() const { return *simEngine_; }

    /**
     * Replace the engine with one built from @p config — the way to
     * size the prepared-state cache for the register width in play
     * (each entry is a dense 2^n-amplitude vector). Discards the
     * current engine's cache and counters. NOT thread-safe: call
     * before submitting jobs, never concurrently with them.
     */
    void configureSimEngine(SimEngineConfig config)
    {
        simEngine_ = std::make_shared<SimEngine>(config);
    }

    /**
     * Shared handle on the engine, so a holder (the shared
     * ExecutionService, a cross-backend prep-sharing setup) can
     * outlive this executor or install the same engine into several
     * executors via setSimEngine(). Prepared states are pure
     * functions of (prefix, params) — independent of any backend's
     * noise or seed — so sharing one engine across backends shares
     * the StateCache without ever being able to change a result.
     */
    std::shared_ptr<SimEngine> sharedSimEngine() const
    {
        return simEngine_;
    }

    /**
     * Adopt @p engine as this executor's simulation engine (see
     * sharedSimEngine()). NOT thread-safe: call before submitting
     * jobs, never concurrently with them.
     */
    void setSimEngine(std::shared_ptr<SimEngine> engine)
    {
        if (!engine)
            return;
        simEngine_ = std::move(engine);
    }

  protected:
    /** @param seed Base seed for all sampling streams. */
    explicit Executor(std::uint64_t seed);

    /**
     * Backend-specific execution over a non-owning view (no job
     * copy is ever made on the way down). Must be const w.r.t.
     * backend state apart from @p rng and the (internally
     * synchronized) SimEngine: tryExecuteJob() calls this
     * concurrently from multiple threads.
     */
    virtual Pmf executeImpl(const JobView &job, Rng &rng) = 0;

    /**
     * Backend-specific submission validation, run once per job
     * before any execution attempt (data-dependent checks belong
     * here, as Status returns, never as panics: a malformed job
     * must fail ITS future, not the process).
     */
    virtual Status validateJob(const JobView &job) const;

  private:
    std::atomic<std::uint64_t> circuits_{0};
    std::atomic<std::uint64_t> shots_{0};
    std::atomic<std::uint64_t> retries_{0};
    std::optional<fault::RetryPolicy> retry_;
    std::uint64_t seed_;
    std::shared_ptr<SimEngine> simEngine_;
};

/** Noise-free backend: exact simulation plus optional sampling. */
class IdealExecutor : public Executor
{
  public:
    /** @param seed Seed for the shot-sampling stream. */
    explicit IdealExecutor(std::uint64_t seed = 1);

  protected:
    Pmf executeImpl(const JobView &job, Rng &rng) override;
};

/**
 * Noisy simulated-device backend.
 *
 * Pipeline: exact state-vector evolution (prefix-shared through the
 * SimEngine) -> gate-noise channel (analytic depolarizing mix or
 * stochastic Pauli trajectories) -> per-qubit readout confusion
 * with crosstalk scaling and best-qubit mapping for partial
 * measurements -> finite-shot sampling. The trajectory mode cannot
 * share prepared states (noise is injected inside the prefix), but
 * keeps the per-trajectory RNG stream structure.
 */
class NoisyExecutor : public Executor
{
  public:
    /**
     * @param device Device model supplying all error rates.
     * @param mode   Gate-noise treatment (default analytic).
     * @param seed   Seed for sampling / trajectory streams.
     * @param trajectories Trajectory count for PauliTrajectories.
     */
    explicit NoisyExecutor(
        DeviceModel device,
        GateNoiseMode mode = GateNoiseMode::AnalyticDepolarizing,
        std::uint64_t seed = 1, int trajectories = 64);

    /** The device model in use. */
    const DeviceModel &device() const { return device_; }

    /** The gate-noise mode in use. */
    GateNoiseMode gateNoiseMode() const { return mode_; }

    /**
     * Enable/disable mapping of partial measurements onto the
     * device's best-readout qubits (on by default; disabling is an
     * ablation that removes one of the two subset-fidelity
     * mechanisms).
     */
    void setBestMapping(bool enabled) { bestMapping_ = enabled; }

    /** Whether best-qubit subset mapping is enabled. */
    bool bestMapping() const { return bestMapping_; }

  protected:
    Pmf executeImpl(const JobView &job, Rng &rng) override;

    /** Adds the device-width check (InvalidArgument when the job is
     * wider than the device). */
    Status validateJob(const JobView &job) const override;

  protected:
    /** Exact measured-qubit distribution with gate noise folded in. */
    virtual std::vector<double> noisyMarginal(const JobView &job);

  private:

    /** Trajectory-averaged measured-qubit distribution. */
    std::vector<double> trajectoryMarginal(const JobView &job,
                                           Rng &rng);

    DeviceModel device_;
    GateNoiseMode mode_;
    int trajectories_;
    bool bestMapping_ = true;
};

/**
 * Exact open-system backend: identical to NoisyExecutor except that
 * gate noise is simulated exactly as per-qubit depolarizing
 * channels on a density matrix (the channel the trajectory mode
 * samples) instead of the global-depolarizing approximation.
 * Quadratically more memory — use for cross-validation and small
 * registers (<= 12 qubits).
 */
class DensityMatrixExecutor : public NoisyExecutor
{
  public:
    /** @param device Device model; @param seed sampling stream. */
    explicit DensityMatrixExecutor(DeviceModel device,
                                   std::uint64_t seed = 1);

  protected:
    std::vector<double> noisyMarginal(const JobView &job) override;
};

} // namespace varsaw

#endif // VARSAW_MITIGATION_EXECUTOR_HH
