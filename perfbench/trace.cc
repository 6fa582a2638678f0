#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

namespace {

/** The span open on this thread (innermost), or null. */
thread_local Span *tlsOpen = nullptr;

double
durationNs(const Span &s)
{
    return static_cast<double>(s.endNs - s.startNs);
}

/** Length of the union of @p intervals clipped to [lo, hi). */
double
coveredNs(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
          std::uint64_t lo, std::uint64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    std::uint64_t cursor = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, hi);
        if (end > start) {
            covered += static_cast<double>(end - start);
            cursor = end;
        }
    }
    return covered;
}

/**
 * Wraps the estimator's submitter: every submit() is one Submit span
 * that stays open until all of the batch's results are ready, so it
 * covers ledger, placement, queueing, retries and hand-off.
 */
class TracedSubmitter : public varsaw::JobSubmitter
{
  public:
    TracedSubmitter(std::unique_ptr<varsaw::JobSubmitter> inner,
                    Tracer &tracer, int client)
        : inner_(std::move(inner)), tracer_(tracer), client_(client)
    {
    }

    std::vector<std::future<varsaw::Pmf>>
    submit(const varsaw::Batch &batch) override
    {
        for (const auto &job : batch.jobs())
            if (job.prep && job.prep.get() != lastPrep_) {
                lastPrep_ = job.prep.get();
                tracer_.bindPrep(lastPrep_, client_);
            }
        ScopedSpan span(tracer_, Layer::Submit);
        span.setItems(static_cast<std::uint32_t>(batch.size()));
        auto &state = tracer_.client(client_);
        const std::uint32_t outer = state.openSubmit.exchange(span.id());
        auto futures = inner_->submit(batch);
        for (auto &future : futures)
            future.wait();
        state.openSubmit.store(outer);
        return futures;
    }

    varsaw::Executor &backend() override { return inner_->backend(); }
    const varsaw::Executor &backend() const override
    {
        return inner_->backend();
    }
    varsaw::CacheStats cacheStats() const override
    {
        return inner_->cacheStats();
    }
    std::uint64_t jobsSubmitted() const override
    {
        return inner_->jobsSubmitted();
    }

  private:
    std::unique_ptr<varsaw::JobSubmitter> inner_;
    Tracer &tracer_;
    int client_;
    const varsaw::Circuit *lastPrep_ = nullptr;
};

} // namespace

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Driver:
        return "vqa.driver";
      case Layer::Estimate:
        return "estimate";
      case Layer::Submit:
        return "runtime.submit";
      case Layer::Backend:
        return "mitigation.executor";
      case Layer::Marginal:
        return "sim.marginal";
    }
    return "unknown";
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
Tracer::bindPrep(const varsaw::Circuit *prep, int client)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : preps_)
        if (entry.first == prep) {
            entry.second = client;
            return;
        }
    preps_.emplace_back(prep, client);
}

int
Tracer::clientOf(const varsaw::Circuit *prep) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : preps_)
        if (entry.first == prep)
            return entry.second;
    return 0;
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id,parent,layer,client,request,start_ns,end_ns,"
                    "items\n");
    for (const Span &s : spans())
        std::fprintf(f, "%u,%u,%s,%d,%lld,%llu,%llu,%u\n", s.id,
                     s.parent, layerName(s.layer), s.client,
                     static_cast<long long>(s.request),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs), s.items);
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer &tracer, Layer layer) : tracer_(tracer)
{
    span_.layer = layer;
    if (tlsOpen) {
        span_.parent = tlsOpen->id;
        span_.client = tlsOpen->client;
        span_.request = tlsOpen->request;
    }
    open();
}

ScopedSpan::ScopedSpan(Tracer &tracer, Layer layer, int client,
                       std::int64_t request, std::uint32_t parent)
    : tracer_(tracer)
{
    span_.layer = layer;
    span_.client = client;
    span_.request = request;
    span_.parent = parent;
    open();
}

void
ScopedSpan::open()
{
    span_.id = tracer_.nextId();
    saved_ = tlsOpen;
    tlsOpen = &span_;
    span_.startNs = nowNs();
}

void
ScopedSpan::setClient(int client, std::int64_t request)
{
    span_.client = client;
    span_.request = request;
}

ScopedSpan::~ScopedSpan()
{
    span_.endNs = nowNs();
    tlsOpen = saved_;
    tracer_.record(span_);
}

double
EvalRecorder::estimate(const std::vector<double> &params)
{
    // A throw leaves attempted ahead of energies, which the unit's
    // checks report.
    const auto index = static_cast<std::int64_t>(log_.attempted);
    ++log_.attempted;
    const std::uint64_t start = nowNs();
    double energy = 0.0;
    if (tracer_) {
        tracer_->client(client_).request.store(index);
        ScopedSpan span(*tracer_, Layer::Estimate);
        span.setClient(client_, index);
        energy = inner_.estimate(params);
    } else {
        energy = inner_.estimate(params);
    }
    log_.latencyMs.push_back(static_cast<double>(nowNs() - start) *
                             1e-6);
    log_.energies.push_back(energy);
    return energy;
}

std::unique_ptr<varsaw::JobSubmitter>
TracingBackplane::openSession(varsaw::Executor &backend,
                              const varsaw::RuntimeConfig &config)
{
    varsaw::RuntimeConfig inner = config;
    inner.service = service_;
    return std::make_unique<TracedSubmitter>(
        varsaw::makeSubmitter(backend, inner), tracer_, client_);
}

varsaw::Pmf
TracedNoisyExecutor::executeImpl(const varsaw::JobView &job,
                                 varsaw::Rng &rng)
{
    const int client = tracer_.clientOf(job.prep);
    auto &state = tracer_.client(client);
    ScopedSpan span(tracer_, Layer::Backend, client,
                    state.request.load(), state.openSubmit.load());
    return NoisyExecutor::executeImpl(job, rng);
}

std::vector<double>
TracedNoisyExecutor::noisyMarginal(const varsaw::JobView &job)
{
    ScopedSpan span(tracer_, Layer::Marginal);
    return NoisyExecutor::noisyMarginal(job);
}

LayerReport
analyze(const std::vector<Span> &spans,
        const std::vector<bool> &is_varsaw)
{
    LayerReport r;
    std::uint32_t max_id = 0;
    for (const Span &s : spans)
        max_id = std::max(max_id, s.id);
    std::vector<std::vector<const Span *>> children(max_id + 1);
    for (const Span &s : spans)
        if (s.parent != 0 && s.parent <= max_id)
            children[s.parent].push_back(&s);

    const auto self_ns = [&](const Span &s, Layer child_layer) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (const Span *c : children[s.id])
            if (c->layer == child_layer)
                iv.emplace_back(c->startNs, c->endNs);
        return durationNs(s) - coveredNs(std::move(iv), s.startNs,
                                         s.endNs);
    };

    std::vector<double> backend_us, marginal_us, sampling_us;
    for (const Span &s : spans) {
        const double d = durationNs(s);
        switch (s.layer) {
          case Layer::Driver:
            r.driverSelfNs += self_ns(s, Layer::Estimate);
            break;
          case Layer::Estimate: {
            ++r.evalSpans;
            r.evalNs += d;
            const double self = self_ns(s, Layer::Submit);
            const bool varsaw =
                s.client >= 0 &&
                static_cast<std::size_t>(s.client) < is_varsaw.size() &&
                is_varsaw[static_cast<std::size_t>(s.client)];
            if (varsaw) {
                ++r.varsawEvals;
                r.varsawEvalNs += d;
                r.varsawSelfNs += self;
            } else {
                ++r.baselineEvals;
                r.baselineSelfNs += self;
            }
            break;
          }
          case Layer::Submit: {
            ++r.submitCalls;
            r.submitJobs += s.items;
            r.submitNs += d;
            r.submitSelfNs += self_ns(s, Layer::Backend);
            std::uint64_t first = 0;
            for (const Span *c : children[s.id])
                if (c->layer == Layer::Backend &&
                    (first == 0 || c->startNs < first))
                    first = c->startNs;
            if (first != 0)
                r.firstWaitUs.push_back(
                    static_cast<double>(first - s.startNs) * 1e-3);
            break;
          }
          case Layer::Backend: {
            ++r.backendSpans;
            r.backendNs += d;
            const double sampling = self_ns(s, Layer::Marginal);
            r.samplingNs += sampling;
            backend_us.push_back(d * 1e-3);
            sampling_us.push_back(sampling * 1e-3);
            break;
          }
          case Layer::Marginal:
            ++r.marginalSpans;
            r.marginalNs += d;
            marginal_us.push_back(d * 1e-3);
            break;
        }
    }
    r.backendP50Us = percentile(std::move(backend_us), 0.5);
    r.marginalP50Us = percentile(std::move(marginal_us), 0.5);
    r.samplingP50Us = percentile(std::move(sampling_us), 0.5);
    return r;
}

} // namespace perfbench
