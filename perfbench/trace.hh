/**
 * @file
 * Outside-in tracing for the benchmark of record.
 *
 * Spans are recorded only by the benchmark's own wrappers around the
 * library's public seams, never inside the library:
 *
 *  - EvalRecorder: an EnergyEstimator decorator around estimate()
 *    (layer Estimate; the VqeDriver::run call is a Driver span);
 *  - TracingBackplane: an ExecutionBackplane passed in
 *    RuntimeConfig::service whose sessions wrap the submitter the
 *    estimator would otherwise get and time submit-to-results
 *    (layer Submit);
 *  - TracedNoisyExecutor: a NoisyExecutor whose executeImpl and
 *    noisyMarginal time calls through to the base class (layers
 *    Backend and Marginal).
 *
 * Spans live in memory until the pass ends. Backend spans that run
 * on service workers are attributed to their client through the
 * job's prep pointer: every estimator snapshots its own ansatz, so
 * the pointer names exactly one client.
 */

#ifndef VARSAW_PERFBENCH_TRACE_HH
#define VARSAW_PERFBENCH_TRACE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mitigation/executor.hh"
#include "runtime/submitter.hh"
#include "vqa/estimator.hh"

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Linear-interpolated quantile @p q of @p v; 0 when empty. */
double percentile(std::vector<double> v, double q);

/** Bitwise equality (distinguishes -0.0, matches NaN payloads). */
bool sameBits(double a, double b);

/** The layer boundary a span was recorded at. */
enum class Layer : std::uint8_t
{
    Driver,   //!< VqeDriver::run
    Estimate, //!< EnergyEstimator::estimate
    Submit,   //!< JobSubmitter::submit until every result is ready
    Backend,  //!< Executor backend executeImpl
    Marginal, //!< NoisyExecutor::noisyMarginal (sim + gate noise)
};

/** Printable layer name. */
const char *layerName(Layer layer);

/** One recorded interval. Ids start at 1; parent 0 means root. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    Layer layer = Layer::Driver;
    int client = 0;
    /** Evaluation index of the client (the request id); -1 outside
     * any evaluation. */
    std::int64_t request = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Jobs in the batch for Submit spans, 0 otherwise. */
    std::uint32_t items = 0;
};

/** In-memory span store shared by all wrappers of one traced pass. */
class Tracer
{
  public:
    static constexpr int kMaxClients = 4;

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Fresh span id. */
    std::uint32_t nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Store a closed span. */
    void record(const Span &span);

    /** Note that jobs with this prep circuit belong to @p client. */
    void bindPrep(const varsaw::Circuit *prep, int client);

    /** Client a prep circuit was bound to (0 when unknown). */
    int clientOf(const varsaw::Circuit *prep) const;

    /** Per-client state read by backend spans on any thread. */
    struct ClientState
    {
        std::atomic<std::uint32_t> openSubmit{0};
        std::atomic<std::int64_t> request{-1};
    };
    ClientState &client(int c) { return clients_.at(c); }

    /** Every span recorded so far, in id order. */
    std::vector<Span> spans() const;

    /** Write the spans as CSV (one line per span). */
    bool writeCsv(const std::string &path) const;

  private:
    std::atomic<std::uint32_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::pair<const varsaw::Circuit *, int>> preps_;
    std::array<ClientState, kMaxClients> clients_;
};

/**
 * RAII span. Nests under the span open on this thread, inheriting its
 * client and request, unless an explicit parent is given.
 */
class ScopedSpan
{
  public:
    /** Child of this thread's open span (root when none). */
    ScopedSpan(Tracer &tracer, Layer layer);

    /** Explicit attribution (backend spans on service workers). */
    ScopedSpan(Tracer &tracer, Layer layer, int client,
               std::int64_t request, std::uint32_t parent);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return span_.id; }
    void setItems(std::uint32_t items) { span_.items = items; }
    /** Attribute this span to evaluation @p request of @p client. */
    void setClient(int client, std::int64_t request);

  private:
    void open();

    Tracer &tracer_;
    Span span_;
    Span *saved_ = nullptr;
};

/** Per-client evaluation log: what the client saw, in order. */
struct EvalLog
{
    std::vector<double> energies;
    std::vector<double> latencyMs;
    std::uint64_t attempted = 0;
};

/**
 * Decorator around an estimator: times every estimate() into an
 * EvalLog and, when a tracer is given, records an Estimate span whose
 * request id is the client's evaluation index.
 */
class EvalRecorder : public varsaw::EnergyEstimator
{
  public:
    EvalRecorder(varsaw::EnergyEstimator &inner, EvalLog &log,
                 Tracer *tracer, int client)
        : inner_(inner), log_(log), tracer_(tracer), client_(client)
    {
    }

    double estimate(const std::vector<double> &params) override;
    void onIterationBoundary() override
    {
        inner_.onIterationBoundary();
    }
    std::string name() const override { return inner_.name(); }

  private:
    varsaw::EnergyEstimator &inner_;
    EvalLog &log_;
    Tracer *tracer_;
    int client_;
};

/**
 * Backplane handed to one client's estimator through
 * RuntimeConfig::service. Its sessions wrap what the estimator gets
 * without it: a session of @p service when one is given, the private
 * runtime makeSubmitter() builds otherwise.
 */
class TracingBackplane : public varsaw::ExecutionBackplane
{
  public:
    TracingBackplane(Tracer &tracer, int client,
                     varsaw::ExecutionBackplane *service)
        : tracer_(tracer), client_(client), service_(service)
    {
    }

    std::unique_ptr<varsaw::JobSubmitter>
    openSession(varsaw::Executor &backend,
                const varsaw::RuntimeConfig &config) override;

  private:
    Tracer &tracer_;
    int client_;
    varsaw::ExecutionBackplane *service_;
};

/**
 * NoisyExecutor that records Backend and Marginal spans around the
 * base implementation. Results are the base class's, bit for bit.
 */
class TracedNoisyExecutor : public varsaw::NoisyExecutor
{
  public:
    TracedNoisyExecutor(Tracer &tracer, varsaw::DeviceModel device,
                        varsaw::GateNoiseMode mode, std::uint64_t seed)
        : NoisyExecutor(std::move(device), mode, seed), tracer_(tracer)
    {
    }

  protected:
    varsaw::Pmf executeImpl(const varsaw::JobView &job,
                            varsaw::Rng &rng) override;
    std::vector<double>
    noisyMarginal(const varsaw::JobView &job) override;

  private:
    Tracer &tracer_;
};

/** Per-layer figures of one traced pass (see analyze()). */
struct LayerReport
{
    std::uint64_t evalSpans = 0;
    std::uint64_t backendSpans = 0;
    std::uint64_t marginalSpans = 0;
    std::uint64_t submitCalls = 0;
    std::uint64_t submitJobs = 0;

    double evalNs = 0;          //!< all Estimate spans
    double driverSelfNs = 0;    //!< Driver minus its Estimates
    /** Estimate self time split by the client's estimator kind. */
    double varsawEvalNs = 0, varsawSelfNs = 0;
    std::uint64_t varsawEvals = 0;
    double baselineSelfNs = 0;
    std::uint64_t baselineEvals = 0;
    double submitNs = 0;     //!< Submit spans
    double submitSelfNs = 0; //!< Submit minus its client's Backends
    double backendNs = 0;
    double marginalNs = 0;
    double samplingNs = 0; //!< Backend minus its Marginal
    double backendP50Us = 0, marginalP50Us = 0, samplingP50Us = 0;
    /** Submit start to first Backend start of the same batch. */
    std::vector<double> firstWaitUs;
};

/**
 * Reduce a traced pass's spans to per-layer figures. Self time is a
 * span's duration minus the union of its children's intervals.
 * @p is_varsaw tells, per client id, which estimator kind it runs.
 */
LayerReport analyze(const std::vector<Span> &spans,
                    const std::vector<bool> &is_varsaw);

} // namespace perfbench

#endif // VARSAW_PERFBENCH_TRACE_HH
