#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "chem/exact_solver.hh"
#include "chem/molecules.hh"
#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "noise/device_model.hh"
#include "service/execution_service.hh"
#include "vqa/ansatz.hh"
#include "vqa/optimizer.hh"
#include "vqa/vqe.hh"

namespace perfbench {

using namespace varsaw;

namespace {

/**
 * The benchmark's own input generator (SplitMix64), so inputs stay
 * fixed even if the library's Rng changes.
 */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    double uniform(double lo, double hi)
    {
        const double u =
            static_cast<double>(next() >> 11) * 0x1.0p-53;
        return lo + (hi - lo) * u;
    }

    double sign() { return (next() & 1) ? 1.0 : -1.0; }

  private:
    std::uint64_t state_;
};

/** Input streams derived from the workload seed. */
enum class Stream : std::uint64_t
{
    Backend = 1,
    InitialParams = 2,
    Spsa = 3,
    Sweep = 4,
};

std::uint64_t
derive(std::uint64_t seed, Stream stream, std::uint64_t unit = 0)
{
    InputRng rng(seed * 0x100000001b3ull +
                 static_cast<std::uint64_t>(stream) * 0x9e3779b9ull +
                 unit);
    return rng.next();
}

/** Small initial angles, the range EfficientSU2::initialParameters
 * uses. */
std::vector<double>
initialParams(int count, std::uint64_t seed)
{
    InputRng rng(seed);
    std::vector<double> x(static_cast<std::size_t>(count));
    for (auto &v : x)
        v = rng.uniform(-0.4, 0.4);
    return x;
}

double
msSince(std::uint64_t start)
{
    return static_cast<double>(nowNs() - start) * 1e-6;
}

std::unique_ptr<NoisyExecutor>
makeBackend(Tracer *tracer, std::uint64_t seed)
{
    if (tracer)
        return std::make_unique<TracedNoisyExecutor>(
            *tracer, DeviceModel::mumbai(),
            GateNoiseMode::AnalyticDepolarizing, seed);
    return std::make_unique<NoisyExecutor>(
        DeviceModel::mumbai(), GateNoiseMode::AnalyticDepolarizing,
        seed);
}

/** Counters of one unit, taken before it runs. */
struct Before
{
    std::uint64_t circuits, shots, retries, start;
    std::vector<std::uint64_t> attempted;
};

Before
snapshot(const Executor &backend, const std::vector<EvalLog> &logs)
{
    Before b{backend.circuitsExecuted(), backend.shotsExecuted(),
             backend.retriesPerformed(), nowNs(), {}};
    for (const auto &log : logs)
        b.attempted.push_back(log.attempted);
    return b;
}

/** Fill the generic part of @p r from the counters since @p b. */
void
finish(UnitResult &r, const Before &b, const Executor &backend,
       const std::vector<EvalLog> &logs)
{
    r.wallS = static_cast<double>(nowNs() - b.start) * 1e-9;
    r.circuits = backend.circuitsExecuted() - b.circuits;
    r.shots = backend.shotsExecuted() - b.shots;
    r.retries = backend.retriesPerformed() - b.retries;
    for (std::size_t c = 0; c < logs.size(); ++c) {
        const auto &log = logs[c];
        r.evals += log.attempted - b.attempted[c];
        for (std::size_t i = b.attempted[c]; i < log.energies.size();
             ++i)
            if (!std::isfinite(log.energies[i]) && r.failure.empty())
                r.failure = "non-finite energy";
        if (log.energies.size() != log.attempted && r.failure.empty())
            r.failure = "an evaluation threw";
    }
    if (!r.failure.empty())
        r.failed = r.evals;
}

// ---------------------------------------------------------------
// ch4_vqe and wide_postprocess: one VarSaw client under SPSA.

struct VqeSpec
{
    const char *molecule;
    Entanglement entanglement;
    std::uint64_t subsetShots;
    std::uint64_t globalShots;
    std::uint64_t budget;      //!< circuits per VQE run
    std::uint64_t smokeBudget; //!< circuits per VQE run, smoke
    /** Fixed Global interval in iterations; 0 keeps the adaptive
     * hill-climb. */
    int pinnedGlobalInterval;
};

class VqeInstance : public Instance
{
  public:
    VqeInstance(const VqeSpec &spec, std::uint64_t seed, bool smoke,
                Tracer *tracer)
        : spec_(spec), seed_(seed),
          budget_(smoke ? spec.smokeBudget : spec.budget),
          tracer_(tracer)
    {
        const std::uint64_t start = nowNs();
        h_ = std::make_unique<Hamiltonian>(molecule(spec.molecule));
        ansatz_ = std::make_unique<EfficientSU2>(
            AnsatzConfig{h_->numQubits(), 2, spec.entanglement});
        exec_ = makeBackend(tracer, derive(seed, Stream::Backend));
        VarsawConfig config;
        config.subsetShots = spec.subsetShots;
        config.globalShots = spec.globalShots;
        if (spec.pinnedGlobalInterval > 0) {
            config.temporal.initialInterval = spec.pinnedGlobalInterval;
            config.temporal.minInterval = spec.pinnedGlobalInterval;
            config.temporal.maxInterval = spec.pinnedGlobalInterval;
        }
        if (tracer) {
            backplane_ =
                std::make_unique<TracingBackplane>(*tracer, 0, nullptr);
            config.runtime.service = backplane_.get();
        }
        const std::uint64_t est_start = nowNs();
        est_ = std::make_unique<VarsawEstimator>(
            *h_, ansatz_->circuit(), *exec_, config);
        setup.estimatorMs = msSince(est_start);
        setup.totalS = msSince(start) * 1e-3;
        recorder_ =
            std::make_unique<EvalRecorder>(*est_, logs_[0], tracer, 0);
    }

    UnitResult runUnit(std::uint64_t unit) override
    {
        UnitResult r;
        const Before before = snapshot(*exec_, logs_);
        const std::uint64_t jobs_before = est_->runtime().jobsSubmitted();
        const std::uint64_t hits_before = est_->runtime().cacheStats().hits;
        est_->resetTemporalState();
        const auto x0 = initialParams(ansatz_->numParams(),
                                      derive(seed_, Stream::InitialParams,
                                             unit));
        Spsa::Config sc;
        sc.seed = derive(seed_, Stream::Spsa, unit);
        Spsa spsa(sc);
        VqeDriver driver(*recorder_, spsa, exec_.get());
        VqeConfig vc;
        vc.maxIterations = 1 << 20;
        vc.circuitBudget = budget_;
        VqeResult result;
        try {
            if (tracer_) {
                ScopedSpan span(*tracer_, Layer::Driver);
                result = driver.run(x0, vc);
            } else {
                result = driver.run(x0, vc);
            }
        } catch (const std::exception &e) {
            r.failure = std::string("VQE run threw: ") + e.what();
        }
        r.globalsRun = est_->scheduler().globalsRun();
        r.jobs = est_->runtime().jobsSubmitted() - jobs_before;
        r.cacheHits = est_->runtime().cacheStats().hits - hits_before;
        finish(r, before, *exec_, logs_);
        if (r.failure.empty())
            r.failure = checkResult(x0, result);
        if (!r.failure.empty())
            r.failed = r.evals;
        return r;
    }

    const std::vector<EvalLog> &logs() const override { return logs_; }
    Executor &backend() override { return *exec_; }
    int workers() const override { return 1; }
    std::vector<bool> varsawClients() const override { return {true}; }

  private:
    /** The optimizer must have improved on x0 without breaking the
     * variational bound. */
    std::string checkResult(const std::vector<double> &x0,
                            const VqeResult &result)
    {
        ExactEstimator exact(*h_, ansatz_->circuit());
        const double at_x0 = exact.estimate(x0);
        const double at_best = exact.estimate(result.bestParams);
        if (!groundEnergy_)
            groundEnergy_ = groundStateEnergy(*h_);
        if (!std::isfinite(result.bestEnergy) || !std::isfinite(at_best))
            return "non-finite VQE result";
        if (!(at_best < at_x0))
            return "exact energy at the best parameters (" +
                std::to_string(at_best) + ") is not below its value at x0 (" +
                std::to_string(at_x0) + ")";
        if (at_best < *groundEnergy_ - 1e-9)
            return "exact energy below the ground-state energy";
        return {};
    }

    VqeSpec spec_;
    std::uint64_t seed_;
    std::uint64_t budget_;
    Tracer *tracer_;
    std::unique_ptr<Hamiltonian> h_;
    std::optional<double> groundEnergy_; //!< computed at first check
    std::unique_ptr<EfficientSU2> ansatz_;
    std::unique_ptr<NoisyExecutor> exec_;
    std::unique_ptr<TracingBackplane> backplane_;
    std::unique_ptr<VarsawEstimator> est_;
    std::vector<EvalLog> logs_{1};
    std::unique_ptr<EvalRecorder> recorder_;
};

// ---------------------------------------------------------------
// shared_sweep: VarSaw and Baseline clients on one ExecutionService.

constexpr int kSweepQubits = 8;
constexpr int kSweepWorkers = 2;
constexpr std::uint64_t kSweepSubsetShots = 256;
constexpr std::uint64_t kSweepGlobalShots = 512;
constexpr std::uint64_t kSweepBaselineShots = 512;
constexpr std::size_t kSweepPoints = 400;
constexpr std::size_t kSmokeSweepPoints = 16;
/** Sweep points replayed through private serial runtimes. */
constexpr std::size_t kReplayPoints = 8;

Hamiltonian
sweepHamiltonian()
{
    return tfim(kSweepQubits, 1.0, 1.0);
}

AnsatzConfig
sweepAnsatz()
{
    return AnsatzConfig{kSweepQubits, 2, Entanglement::Linear};
}

VarsawConfig
sweepVarsawConfig()
{
    VarsawConfig config;
    config.subsetShots = kSweepSubsetShots;
    config.globalShots = kSweepGlobalShots;
    return config;
}

/** SPSA-style +- pairs along a seeded random walk. */
std::vector<std::vector<double>>
sweepPoints(int num_params, std::uint64_t seed, std::size_t count)
{
    InputRng rng(seed);
    std::vector<double> x = initialParams(num_params, rng.next());
    std::vector<std::vector<double>> points;
    points.reserve(count);
    for (std::size_t k = 0; points.size() < count; ++k) {
        const double ck = 0.15 / std::pow(k + 1.0, 0.101);
        std::vector<double> plus = x, minus = x;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = rng.sign();
            plus[i] += ck * d;
            minus[i] -= ck * d;
        }
        points.push_back(std::move(plus));
        points.push_back(std::move(minus));
        for (auto &v : x)
            v += 0.02 * rng.sign();
    }
    points.resize(count);
    return points;
}

/** Client A's loop: one iteration boundary per +- pair. */
void
walkVarsaw(EnergyEstimator &est,
           const std::vector<std::vector<double>> &points,
           std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 2 == 0)
            est.onIterationBoundary();
        est.estimate(points[i]);
    }
}

void
walkBaseline(EnergyEstimator &est,
             const std::vector<std::vector<double>> &points,
             std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        est.estimate(points[i]);
}

class SweepInstance : public Instance
{
  public:
    SweepInstance(std::uint64_t seed, bool smoke, Tracer *tracer)
        : seed_(seed),
          points_(smoke ? kSmokeSweepPoints : kSweepPoints)
    {
        const std::uint64_t start = nowNs();
        h_ = std::make_unique<Hamiltonian>(sweepHamiltonian());
        ansatz_ = std::make_unique<EfficientSU2>(sweepAnsatz());
        exec_ = makeBackend(tracer, derive(seed, Stream::Backend));
        const std::uint64_t svc_start = nowNs();
        ServiceConfig sc;
        sc.threads = kSweepWorkers;
        sc.kernelThreads = 1;
        svc_ = std::make_unique<ExecutionService>(*exec_, sc);
        setup.serviceMs = msSince(svc_start);

        RuntimeConfig rt[2];
        for (int c = 0; c < 2; ++c) {
            rt[c].cacheResults = true;
            rt[c].service = svc_.get();
            if (tracer) {
                backplanes_[c] = std::make_unique<TracingBackplane>(
                    *tracer, c, svc_.get());
                rt[c].service = backplanes_[c].get();
            }
        }
        const std::uint64_t est_start = nowNs();
        VarsawConfig vc = sweepVarsawConfig();
        vc.runtime = rt[0];
        varsaw_ = std::make_unique<VarsawEstimator>(
            *h_, ansatz_->circuit(), *exec_, vc);
        baseline_ = std::make_unique<BaselineEstimator>(
            *h_, ansatz_->circuit(), *exec_, kSweepBaselineShots,
            BasisMode::Cover, ShotAllocation::Uniform, rt[1]);
        setup.estimatorMs = msSince(est_start);
        setup.totalS = msSince(start) * 1e-3;
        recorders_[0] =
            std::make_unique<EvalRecorder>(*varsaw_, logs_[0], tracer, 0);
        recorders_[1] = std::make_unique<EvalRecorder>(
            *baseline_, logs_[1], tracer, 1);
    }

    UnitResult runUnit(std::uint64_t unit) override
    {
        UnitResult r;
        // Each unit is a fresh sweep: no dedupe across units, so the
        // work per unit does not depend on how many ran before.
        svc_->clearSharedCaches();
        varsaw_->resetTemporalState();
        const ServiceStats svc_before = svc_->stats();
        const std::uint64_t jobs_before =
            varsaw_->runtime().jobsSubmitted() +
            baseline_->runtime().jobsSubmitted();
        const std::uint64_t hits_before =
            varsaw_->runtime().cacheStats().hits +
            baseline_->runtime().cacheStats().hits;
        const auto points = sweepPoints(
            ansatz_->numParams(), derive(seed_, Stream::Sweep, unit),
            points_);
        if (unit == 0)
            firstPoints_ = points;
        const Before before = snapshot(*exec_, logs_);

        std::string b_error;
        std::thread client_b([&] {
            try {
                walkBaseline(*recorders_[1], points, points.size());
            } catch (const std::exception &e) {
                b_error = e.what();
            }
        });
        try {
            walkVarsaw(*recorders_[0], points, points.size());
        } catch (const std::exception &e) {
            r.failure = std::string("VarSaw client threw: ") + e.what();
        }
        client_b.join();
        if (r.failure.empty() && !b_error.empty())
            r.failure = "Baseline client threw: " + b_error;

        r.globalsRun = varsaw_->scheduler().globalsRun();
        r.jobs = varsaw_->runtime().jobsSubmitted() +
            baseline_->runtime().jobsSubmitted() - jobs_before;
        r.cacheHits = varsaw_->runtime().cacheStats().hits +
            baseline_->runtime().cacheStats().hits - hits_before;
        r.crossHits =
            svc_->stats().crossSessionHits - svc_before.crossSessionHits;
        finish(r, before, *exec_, logs_);
        if (r.failure.empty() && r.crossHits == 0)
            r.failure = "no cross-session hits";
        if (!r.failure.empty())
            r.failed = r.evals;
        return r;
    }

    /**
     * The first sweep points, replayed through private serial
     * runtimes on a backend with the same seed, must reproduce the
     * service run's energies bit for bit.
     */
    std::string finalCheck() override
    {
        const std::size_t n = std::min(kReplayPoints, firstPoints_.size());
        if (n == 0 || logs_[0].energies.size() < n ||
            logs_[1].energies.size() < n)
            return "too few evaluations to replay";
        NoisyExecutor exec(DeviceModel::mumbai(),
                           GateNoiseMode::AnalyticDepolarizing,
                           exec_->seed());
        VarsawEstimator varsaw(*h_, ansatz_->circuit(), exec,
                               sweepVarsawConfig());
        BaselineEstimator baseline(*h_, ansatz_->circuit(), exec,
                                   kSweepBaselineShots);
        EvalLog va, ba;
        EvalRecorder rva(varsaw, va, nullptr, 0);
        EvalRecorder rba(baseline, ba, nullptr, 1);
        walkVarsaw(rva, firstPoints_, n);
        walkBaseline(rba, firstPoints_, n);
        for (std::size_t i = 0; i < n; ++i)
            if (!sameBits(va.energies[i], logs_[0].energies[i]) ||
                !sameBits(ba.energies[i], logs_[1].energies[i]))
                return "private serial replay differs from the "
                       "service run";
        return {};
    }

    const std::vector<EvalLog> &logs() const override { return logs_; }
    Executor &backend() override { return *exec_; }
    int workers() const override { return kSweepWorkers; }
    std::vector<bool> varsawClients() const override
    {
        return {true, false};
    }

  private:
    std::uint64_t seed_;
    std::size_t points_;
    std::unique_ptr<Hamiltonian> h_;
    std::unique_ptr<EfficientSU2> ansatz_;
    std::unique_ptr<NoisyExecutor> exec_;
    /** Declared before the estimators: their sessions borrow it and
     * close first. */
    std::unique_ptr<ExecutionService> svc_;
    std::unique_ptr<TracingBackplane> backplanes_[2];
    std::unique_ptr<VarsawEstimator> varsaw_;
    std::unique_ptr<BaselineEstimator> baseline_;
    std::vector<EvalLog> logs_{2};
    std::unique_ptr<EvalRecorder> recorders_[2];
    std::vector<std::vector<double>> firstPoints_;
};

const VqeSpec kCh4{"CH4-6", Entanglement::Full, 2048, 2048, 10000, 1500,
                   0};
/**
 * On H6-10 one Global tick costs about three evaluations' worth of
 * circuits, so the adaptive interval's seed-to-seed random walk would
 * dominate every figure of this workload. It measures the classical
 * side, so the interval is pinned; ch4_vqe measures the scheduler.
 */
const VqeSpec kWide{"H6-10", Entanglement::Linear, 512, 512, 10000, 2000,
                    4};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ch4_vqe", "shared_sweep", "wide_postprocess"};
    return names;
}

std::unique_ptr<Instance>
makeInstance(const std::string &name, std::uint64_t seed, bool smoke,
             Tracer *tracer)
{
    if (name == "ch4_vqe")
        return std::make_unique<VqeInstance>(kCh4, seed, smoke, tracer);
    if (name == "wide_postprocess")
        return std::make_unique<VqeInstance>(kWide, seed, smoke, tracer);
    if (name == "shared_sweep")
        return std::make_unique<SweepInstance>(seed, smoke, tracer);
    return nullptr;
}

} // namespace perfbench
