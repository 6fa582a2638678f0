/**
 * @file
 * The telemetry layer's core contract: results are bit-identical
 * with tracing/metrics off, on, or on with a tiny ring that wraps
 * constantly. Telemetry observes; it never perturbs a result bit.
 *
 * Runs the same fixed-seed TFIM workload three ways — telemetry off,
 * telemetry fully on (default ring), telemetry on with an 8-slot
 * ring — through a serial private BatchExecutor, a one-session
 * 4-worker ExecutionService, and a shared service with two sessions,
 * and requires exact (double ==) equality of every PMF entry.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chem/spin_models.hh"
#include "core/varsaw.hh"
#include "mitigation/jigsaw.hh"
#include "noise/device_model.hh"
#include "pauli/subsetting.hh"
#include "runtime/batch_executor.hh"
#include "service/execution_service.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "vqa/ansatz.hh"

namespace varsaw {
namespace {

/** Save/restore both telemetry flags and the ring capacity. */
class TelemetryStateGuard
{
  public:
    TelemetryStateGuard()
        : metrics_(telemetry::metricsEnabled()),
          tracing_(telemetry::tracingEnabled()),
          capacity_(telemetry::SpanTracer::instance().capacity())
    {
    }
    ~TelemetryStateGuard()
    {
        telemetry::setMetricsEnabled(metrics_);
        telemetry::setTracingEnabled(tracing_);
        telemetry::SpanTracer::instance().setCapacity(capacity_);
    }

  private:
    bool metrics_;
    bool tracing_;
    std::size_t capacity_;
};

Batch
workload(const Hamiltonian &h, const Circuit &ansatz,
         const std::vector<double> &params)
{
    Batch batch;
    BasisReduction reduction = coverReduce(h.strings());
    for (const auto &basis : reduction.bases)
        batch.add(makeGlobalCircuit(ansatz, basis), params, 2048);
    for (const auto &basis : reduction.bases)
        for (const auto &w : windowSubsets(basis, 2))
            batch.add(makeSubsetCircuit(ansatz, w), params, 1024);
    return batch;
}

/** Run the workload through a serial private BatchExecutor. */
std::vector<Pmf>
runPrivate(const Batch &batch, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       7);
    RuntimeConfig config;
    config.cacheResults = true;
    BatchExecutor runtime(exec, config);
    return runtime.run(batch);
}

/** Run the workload through one session of a 4-worker service,
 * opened the way estimators open it (RuntimeConfig::service). */
std::vector<Pmf>
runOneSession(const Batch &batch, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       7);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(exec, sc);
    RuntimeConfig config;
    config.cacheResults = true;
    config.service = &service;
    return makeSubmitter(exec, config)->run(batch);
}

/** Run the workload through two sessions of a shared service (the
 * full enqueue → dedupe → complete span path, cross-session). */
std::vector<Pmf>
runShared(const Batch &batch, const DeviceModel &device)
{
    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       7);
    ServiceConfig sc;
    sc.threads = 4;
    ExecutionService service(exec, sc);
    auto a = service.createSession("ident-a");
    auto b = service.createSession("ident-b");

    auto futures_a = a->submit(batch);
    auto futures_b = b->submit(batch); // pure cross-session dupes
    std::vector<Pmf> out;
    out.reserve(futures_a.size() + futures_b.size());
    for (auto &f : futures_a)
        out.push_back(f.get());
    for (auto &f : futures_b)
        out.push_back(f.get());
    return out;
}

template <typename Runner>
void
checkIdentityAcrossTelemetryModes(Runner run)
{
    TelemetryStateGuard guard;
    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(17);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);
    const Batch batch = workload(h, ansatz.circuit(), params);
    ASSERT_GT(batch.size(), 2u);

    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);
    const auto off = run(batch, device);

    telemetry::setMetricsEnabled(true);
    telemetry::setTracingEnabled(true);
    const auto on = run(batch, device);

    // An 8-slot ring wraps on nearly every span: constant
    // overwriting must be just as invisible.
    telemetry::SpanTracer::instance().setCapacity(8);
    const auto tiny = run(batch, device);

    ASSERT_EQ(off.size(), on.size());
    ASSERT_EQ(off.size(), tiny.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i], on[i]);
        EXPECT_EQ(off[i], tiny[i]);
    }
}

TEST(TelemetryBitIdentity, PrivateRuntime)
{
    checkIdentityAcrossTelemetryModes(runPrivate);
}

TEST(TelemetryBitIdentity, OneSessionService)
{
    checkIdentityAcrossTelemetryModes(runOneSession);
}

TEST(TelemetryBitIdentity, SharedServiceTwoSessions)
{
    checkIdentityAcrossTelemetryModes(runShared);
}

TEST(TelemetryBitIdentity, MetricsMirrorSessionStats)
{
    // The registry's cross-session counter must agree exactly with
    // the service's own SessionStats-derived number — same events,
    // same accounting point.
    TelemetryStateGuard guard;
    telemetry::setMetricsEnabled(true);

    const Hamiltonian h = tfim(4, 1.0, 0.7);
    EfficientSU2 ansatz(AnsatzConfig{4, 2, Entanglement::Linear});
    const auto params = ansatz.initialParameters(17);
    const DeviceModel device = DeviceModel::uniform(4, 0.02, 0.05);
    const Batch batch = workload(h, ansatz.circuit(), params);

    auto &reg = telemetry::MetricsRegistry::instance();
    const auto before = static_cast<std::uint64_t>(
        reg.snapshot().value("service.cross_session_hits"));

    NoisyExecutor exec(device, GateNoiseMode::AnalyticDepolarizing,
                       7);
    ServiceConfig sc;
    sc.threads = 2;
    ExecutionService service(exec, sc);
    auto a = service.createSession();
    auto b = service.createSession();
    for (auto &f : a->submit(batch))
        f.get();
    for (auto &f : b->submit(batch))
        f.get();

    const auto stats = service.stats();
    EXPECT_GT(stats.crossSessionHits, 0u);
    const auto after = static_cast<std::uint64_t>(
        reg.snapshot().value("service.cross_session_hits"));
    EXPECT_EQ(after - before, stats.crossSessionHits);
}

} // namespace
} // namespace varsaw
