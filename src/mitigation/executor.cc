#include "mitigation/executor.hh"

#include <cmath>
#include <cstring>
#include <utility>

#include "sim/density_matrix.hh"
#include "sim/sampling.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "util/logging.hh"

namespace varsaw {

namespace {

/** Retry/deadline mirror under `service.*`. */
struct RetryMetrics
{
    telemetry::Counter &retries;
    telemetry::Counter &deadlineExceeded;

    static RetryMetrics &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::instance();
        static RetryMetrics *m = new RetryMetrics{
            reg.counter("service.retries"),
            reg.counter("service.deadline_exceeded"),
        };
        return *m;
    }
};

/**
 * Content digest of a Pmf — the "wire" integrity check of the
 * corruption fault point. A chained fold over the support in its
 * (sorted) outcome order; any single flipped probability bit
 * changes it.
 */
std::uint64_t
pmfDigest(const Pmf &pmf)
{
    std::uint64_t acc = static_cast<std::uint64_t>(pmf.numBits());
    for (const Pmf::Entry &e : pmf.entries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.p, sizeof bits);
        acc = mix64(acc, mix64(e.outcome, bits));
    }
    return acc;
}

/**
 * Simulated wire corruption: flip the low mantissa bit of the most
 * probable outcome's probability. The corrupted copy exists only to
 * be caught by the digest check — it is dropped either way, so the
 * corruption shape can never reach a consumer.
 */
Pmf
corruptPmf(const Pmf &pmf)
{
    Pmf copy = pmf;
    if (copy.supportSize() == 0) {
        copy.set(0, 1e-12);
        return copy;
    }
    const std::uint64_t target = copy.argmax();
    double p = copy.prob(target);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    bits ^= 1ull;
    std::memcpy(&p, &bits, sizeof p);
    copy.set(target, p);
    return copy;
}

/** Deterministic exponential backoff: base << (attempt-1), capped. */
std::uint64_t
backoffNs(const fault::RetryPolicy &policy, int attempt)
{
    std::uint64_t wait = policy.baseBackoffNs;
    for (int k = 1; k < attempt && wait < policy.maxBackoffNs; ++k)
        wait <<= 1;
    return wait < policy.maxBackoffNs ? wait : policy.maxBackoffNs;
}

} // namespace

Executor::Executor(std::uint64_t seed)
    : seed_(seed), simEngine_(std::make_shared<SimEngine>())
{
}

Pmf
Executor::execute(const Circuit &circuit,
                  const std::vector<double> &params,
                  std::uint64_t shots)
{
    // Non-owning view: the caller's circuit and params are borrowed
    // for the duration of the call, never deep-copied into a
    // transient job. value() throws a failed job's StatusError.
    const JobView job{circuit, params, shots, nullptr, std::nullopt};
    return tryExecuteJob(job, jobStream(makeJobKey(job))).value();
}

Status
Executor::validateJob(const JobView &) const
{
    return Status{};
}

StatusOr<Pmf>
Executor::tryExecuteJob(const JobView &job, std::uint64_t stream)
{
    // Malformed submissions fail fast, before any attempt: these
    // are permanent (InvalidArgument), never retried. They used to
    // panic — a typed error keeps one bad job from taking down a
    // multi-tenant service.
    if (job.numMeasured() == 0)
        return invalidArgumentError(
            "Executor::tryExecuteJob: circuit has no measurements");
    if (job.prep && job.prep->numQubits() != job.circuit.numQubits())
        return invalidArgumentError(
            "Executor::tryExecuteJob: prep/suffix width mismatch");
    if (Status invalid = validateJob(job); !invalid.ok())
        return invalid;

    auto &injector = fault::FaultInjector::instance();
    const fault::RetryPolicy policy = retryPolicy();
    const int attempts =
        policy.maxAttempts < 1 ? 1 : policy.maxAttempts;
    const std::uint64_t start =
        policy.deadlineNs > 0 ? injector.nowNs() : 0;
    Status last = unavailableError("no execution attempt ran");
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            retries_.fetch_add(1, std::memory_order_relaxed);
            if (telemetry::metricsEnabled())
                RetryMetrics::get().retries.add();
            telemetry::ScopedPhase phase(
                telemetry::Phase::RetryBackoff);
            injector.sleepFor(backoffNs(policy, attempt));
        }
        if (policy.deadlineNs > 0 &&
            injector.nowNs() - start > policy.deadlineNs) {
            if (telemetry::metricsEnabled())
                RetryMetrics::get().deadlineExceeded.add();
            return deadlineExceededError(
                "per-job deadline elapsed after " +
                std::to_string(attempt) + " attempt(s); last: " +
                last.toString());
        }
        const bool faults = injector.enabled();
        if (faults &&
            injector.shouldInject(fault::FaultSite::LatencySpike,
                                  stream, attempt))
            injector.sleepFor(injector.plan().latencySpikeNs);
        if (faults &&
            injector.shouldInject(
                fault::FaultSite::ExecutorTransient, stream,
                attempt)) {
            // The attempt fails BEFORE the backend runs: no circuit
            // executed, so the cost counters stay exact under
            // injection (chaos CI depends on this).
            last = unavailableError(
                "injected transient executor failure");
            continue;
        }
        circuits_.fetch_add(1, std::memory_order_relaxed);
        shots_.fetch_add(job.shots, std::memory_order_relaxed);
        // A fresh stream-derived Rng per attempt: the attempt that
        // succeeds draws exactly the samples a first-try success
        // would have — retry idempotence by construction.
        Rng rng = Rng::forStream(seed_, stream);
        Pmf result = executeImpl(job, rng);
        if (faults &&
            injector.shouldInject(
                fault::FaultSite::ResultCorruption, stream,
                attempt)) {
            // Corrupt a copy "on the wire" and verify the digest
            // catches it; the corrupted copy is dropped either way
            // (a corruption the digest misses would be a real DataLoss
            // escape — surface it as Internal, loudly).
            if (pmfDigest(corruptPmf(result)) != pmfDigest(result)) {
                last = dataLossError("result corruption detected "
                                     "on the wire (digest "
                                     "mismatch)");
                continue;
            }
            return internalError(
                "injected corruption evaded the result digest");
        }
        return result;
    }
    return last;
}

void
Executor::resetCounters()
{
    circuits_.store(0, std::memory_order_relaxed);
    shots_.store(0, std::memory_order_relaxed);
    retries_.store(0, std::memory_order_relaxed);
}

IdealExecutor::IdealExecutor(std::uint64_t seed) : Executor(seed)
{
}

Pmf
IdealExecutor::executeImpl(const JobView &job, Rng &rng)
{
    auto probs = simEngine().measuredMarginal(
        job.prep, job.circuit, job.params, job.prepKey);
    Pmf exact = Pmf::fromDense(job.numMeasured(), probs, 1e-14);
    if (job.shots == 0)
        return exact;
    telemetry::ScopedPhase phase(telemetry::Phase::Sampling);
    return sampleShots(exact, rng, job.shots);
}

NoisyExecutor::NoisyExecutor(DeviceModel device, GateNoiseMode mode,
                             std::uint64_t seed, int trajectories)
    : Executor(seed), device_(std::move(device)), mode_(mode),
      trajectories_(trajectories)
{
    if (trajectories_ < 1)
        panic("NoisyExecutor: trajectory count must be >= 1");
}

std::vector<double>
NoisyExecutor::noisyMarginal(const JobView &job)
{
    auto probs = simEngine().measuredMarginal(
        job.prep, job.circuit, job.params, job.prepKey);

    if (mode_ == GateNoiseMode::AnalyticDepolarizing) {
        // Survival probability of the whole gate sequence (prep +
        // suffix); the lost weight becomes the maximally mixed
        // state, which marginalizes to the uniform distribution
        // over the measured bits.
        const double survive =
            std::pow(1.0 - device_.gate1Error(),
                     job.oneQubitGateCount()) *
            std::pow(1.0 - device_.gate2Error(),
                     job.twoQubitGateCount());
        const double lambda = 1.0 - survive;
        if (lambda > 0.0) {
            const double uniform =
                1.0 / static_cast<double>(probs.size());
            for (auto &p : probs)
                p = (1.0 - lambda) * p + lambda * uniform;
        }
    }
    return probs;
}

std::vector<double>
NoisyExecutor::trajectoryMarginal(const JobView &job, Rng &rng)
{
    const auto &measured = job.measuredQubits();
    std::vector<double> acc(1ull << measured.size(), 0.0);

    // Noise kicks are injected inside the prep too, so trajectories
    // cannot share a prepared state; the statevector itself is
    // still reused across trajectories via reset() instead of
    // reconstructing (and re-allocating 2^n amplitudes) every time.
    Statevector sv(job.numQubits());
    const auto applyNoisy = [&](const GateOp &op) {
        sv.applyOp(op, job.params);
        const double err = isTwoQubitGate(op.kind)
            ? device_.gate2Error() : device_.gate1Error();
        if (err <= 0.0)
            return;
        // Independent per-touched-qubit depolarizing: with
        // probability err insert a uniformly random X/Y/Z.
        // This is exactly the channel DensityMatrixExecutor
        // applies, so the two backends agree in the limit.
        auto kick = [&](int q) {
            if (!rng.bernoulli(err))
                return;
            switch (rng.uniformInt(3)) {
              case 0:
                sv.apply1Q(q, gates::fixedMatrix(GateKind::X));
                break;
              case 1:
                sv.apply1Q(q, gates::fixedMatrix(GateKind::Y));
                break;
              default:
                sv.apply1Q(q, gates::fixedMatrix(GateKind::Z));
                break;
            }
        };
        kick(op.q0);
        if (isTwoQubitGate(op.kind))
            kick(op.q1);
    };

    for (int t = 0; t < trajectories_; ++t) {
        if (t > 0)
            sv.reset();
        if (job.prep)
            for (const auto &op : job.prep->ops())
                applyNoisy(op);
        for (const auto &op : job.circuit.ops())
            applyNoisy(op);
        auto probs = sv.marginalProbabilities(measured);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += probs[i];
    }
    const double inv = 1.0 / static_cast<double>(trajectories_);
    for (auto &p : acc)
        p *= inv;
    return acc;
}

Status
NoisyExecutor::validateJob(const JobView &job) const
{
    // Data-dependent, so a Status (not a fatal): one oversized job
    // must fail its own future, not exit the process under every
    // other tenant.
    if (job.numQubits() > device_.numQubits())
        return invalidArgumentError(
            "NoisyExecutor: circuit is wider than device '" +
            device_.name() + "'");
    return Status{};
}

Pmf
NoisyExecutor::executeImpl(const JobView &job, Rng &rng)
{
    std::vector<double> probs =
        mode_ == GateNoiseMode::PauliTrajectories
            ? trajectoryMarginal(job, rng)
            : noisyMarginal(job);

    // Readout error: subsets (partial measurement) are mapped onto
    // the device's best-readout qubits; full measurement keeps the
    // default physical assignment. Crosstalk scales with the number
    // of simultaneously measured qubits in both cases.
    const int m = job.numMeasured();
    const bool partial = bestMapping_ && m < job.numQubits();
    auto errors = device_.effectiveReadout(m, partial);
    applyReadoutConfusion(probs, errors);

    Pmf noisy = Pmf::fromDense(m, probs, 1e-14);
    if (job.shots == 0)
        return noisy;
    telemetry::ScopedPhase phase(telemetry::Phase::Sampling);
    return sampleShots(noisy, rng, job.shots);
}

DensityMatrixExecutor::DensityMatrixExecutor(DeviceModel device,
                                             std::uint64_t seed)
    : NoisyExecutor(std::move(device),
                    GateNoiseMode::AnalyticDepolarizing, seed)
{
}

std::vector<double>
DensityMatrixExecutor::noisyMarginal(const JobView &job)
{
    // The density-matrix evolution interleaves noise channels with
    // every gate, so it cannot reuse a pure prepared state; run the
    // flattened circuit.
    const Circuit full = job.flattened();
    DensityMatrix dm(full.numQubits());
    dm.runNoisy(full, job.params, device().gate1Error(),
                device().gate2Error());
    return dm.marginalProbabilities(full.measuredQubits());
}

} // namespace varsaw
