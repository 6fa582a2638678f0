#include "telemetry/exporters.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>

#include "telemetry/introspect.hh"
#include "telemetry/profiler.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace varsaw::telemetry {

namespace {

/** JSON-escape @p s (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Format a double without trailing-zero noise for integral values. */
std::string
numberToJson(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -1e18 && v < 1e18) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

/** Split `base{k=v,...}` into base and the label list text. */
void
splitLabels(const std::string &name, std::string &base,
            std::string &labels)
{
    const auto brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}') {
        base = name;
        labels.clear();
        return;
    }
    base = name.substr(0, brace);
    labels = name.substr(brace + 1, name.size() - brace - 2);
}

/** Map a metric base name to a Prometheus-legal one. */
std::string
promName(const std::string &base)
{
    std::string out = base;
    for (char &c : out)
        if (c == '.' || c == '-')
            c = '_';
    return out;
}

/**
 * Escape a label VALUE per the Prometheus text exposition format:
 * backslash, double-quote, and newline must be escaped inside the
 * quoted value (session names are caller-supplied strings).
 */
std::string
promEscapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** Re-quote `k1=v1,k2=v2` as `k1="v1",k2="v2"` (values escaped). */
std::string
promLabels(const std::string &labels)
{
    if (labels.empty())
        return {};
    std::string out;
    std::size_t pos = 0;
    while (pos < labels.size()) {
        const auto comma = labels.find(',', pos);
        const std::string pair =
            labels.substr(pos, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - pos);
        const auto eq = pair.find('=');
        if (!out.empty())
            out += ',';
        if (eq == std::string::npos) {
            out += pair;
        } else {
            out += pair.substr(0, eq);
            out += "=\"";
            out += promEscapeLabelValue(pair.substr(eq + 1));
            out += '"';
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

} // namespace

std::string
metricsToJson(const MetricsSnapshot &snap)
{
    std::string out = "{\n  \"metrics\": {\n";
    bool first = true;
    for (const auto &m : snap.metrics) {
        if (!first)
            out += ",\n";
        first = false;
        out += "    \"";
        out += jsonEscape(m.name);
        out += "\": ";
        if (m.kind == MetricValue::Kind::Histogram) {
            out += "{\"count\": ";
            out += numberToJson(static_cast<double>(m.count));
            out += ", \"sum_ns\": ";
            out += numberToJson(static_cast<double>(m.sumNs));
            out += ", \"buckets\": [";
            for (std::size_t b = 0; b < m.bucketCounts.size();
                 ++b) {
                if (b)
                    out += ", ";
                out += numberToJson(
                    static_cast<double>(m.bucketCounts[b]));
            }
            out += "]}";
        } else {
            out += numberToJson(m.value);
        }
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
metricsToPrometheus(const MetricsSnapshot &snap)
{
    std::string out;
    for (const auto &m : snap.metrics) {
        std::string base, labels;
        splitLabels(m.name, base, labels);
        const std::string name = promName(base);
        const std::string lab = promLabels(labels);
        if (m.kind == MetricValue::Kind::Histogram) {
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < m.bucketCounts.size();
                 ++b) {
                cumulative += m.bucketCounts[b];
                out += name;
                out += "_bucket{";
                if (!lab.empty()) {
                    out += lab;
                    out += ',';
                }
                out += "le=\"";
                if (b + 1 < m.bucketCounts.size()) {
                    out += numberToJson(static_cast<double>(
                        Histogram::kBucketBoundsNs[b]));
                } else {
                    out += "+Inf";
                }
                out += "\"} ";
                out += numberToJson(static_cast<double>(cumulative));
                out += '\n';
            }
            out += name;
            out += "_sum";
            if (!lab.empty())
                out += '{' + lab + '}';
            out += ' ';
            out += numberToJson(static_cast<double>(m.sumNs));
            out += '\n';
            out += name;
            out += "_count";
            if (!lab.empty())
                out += '{' + lab + '}';
            out += ' ';
            out += numberToJson(static_cast<double>(m.count));
            out += '\n';
        } else {
            out += name;
            if (!lab.empty())
                out += '{' + lab + '}';
            out += ' ';
            out += numberToJson(m.value);
            out += '\n';
        }
    }
    return out;
}

std::string
traceToChromeJson(const std::vector<TraceEvent> &events)
{
    // Chrome's trace viewer wants microsecond timestamps; rebase to
    // the earliest event so numbers stay small and positive.
    std::uint64_t epoch = ~std::uint64_t{0};
    for (const auto &ev : events)
        if (ev.beginNs < epoch)
            epoch = ev.beginNs;
    if (events.empty())
        epoch = 0;

    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    char buf[160];
    for (const auto &ev : events) {
        if (!first)
            out += ",\n";
        first = false;
        const double tsUs =
            static_cast<double>(ev.beginNs - epoch) / 1000.0;
        out += "  {\"name\": \"";
        out += jsonEscape(ev.name);
        out += "\", \"cat\": \"varsaw\", \"ph\": \"";
        out += ev.kind == TraceEvent::Kind::Span ? 'X' : 'i';
        out += '"';
        std::snprintf(buf, sizeof(buf),
                      ", \"ts\": %.3f, \"pid\": 1, \"tid\": %u",
                      tsUs, ev.threadId);
        out += buf;
        if (ev.kind == TraceEvent::Kind::Span) {
            const double durUs =
                static_cast<double>(ev.endNs - ev.beginNs) / 1000.0;
            std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                          durUs);
            out += buf;
        } else {
            out += ", \"s\": \"t\"";
        }
        out += ", \"args\": {\"job\": ";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(ev.jobId));
        out += buf;
        if (ev.detail[0] != '\0') {
            out += ", \"detail\": \"";
            out += jsonEscape(ev.detail);
            out += '"';
        }
        out += "}}";
    }
    out += "\n]}\n";
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("telemetry: cannot open '" + path + "' for writing");
        return false;
    }
    const std::size_t n =
        std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size()) {
        warn("telemetry: short write to '" + path + "'");
        return false;
    }
    return true;
}

bool
writeMetricsJson(const std::string &path)
{
    return writeTextFile(
        path, metricsToJson(MetricsRegistry::instance().snapshot()));
}

bool
writeMetricsPrometheus(const std::string &path)
{
    return writeTextFile(
        path,
        metricsToPrometheus(MetricsRegistry::instance().snapshot()));
}

bool
writeTraceJson(const std::string &path)
{
    return writeTextFile(
        path, traceToChromeJson(SpanTracer::instance().drain()));
}

namespace {

std::mutex &
outPathMutex()
{
    static std::mutex m;
    return m;
}

std::string &
metricsOutSlot()
{
    static std::string *s = new std::string();
    return *s;
}

std::string &
traceOutSlot()
{
    static std::string *s = new std::string();
    return *s;
}

void
exitDump()
{
    flushTelemetryOutputs();
}

void
ensureExitHook()
{
    static bool registered = [] {
        std::atexit(exitDump);
        return true;
    }();
    (void)registered;
}

} // namespace

void
setMetricsOutPath(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(outPathMutex());
        metricsOutSlot() = path;
    }
    if (!path.empty()) {
        setMetricsEnabled(true);
        ensureExitHook();
    }
}

void
setTraceOutPath(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(outPathMutex());
        traceOutSlot() = path;
    }
    if (!path.empty()) {
        setTracingEnabled(true);
        ensureExitHook();
    }
}

std::string
metricsOutPath()
{
    std::lock_guard<std::mutex> lock(outPathMutex());
    return metricsOutSlot();
}

std::string
traceOutPath()
{
    std::lock_guard<std::mutex> lock(outPathMutex());
    return traceOutSlot();
}

void
flushTelemetryOutputs()
{
    // The observer observing itself: serialization/IO cost lands in
    // the `export` phase so a chatty flusher can't hide.
    ScopedPhase phase(Phase::Export);
    const std::string metricsPath = metricsOutPath();
    const std::string tracePath = traceOutPath();
    if (!metricsPath.empty())
        writeMetricsJson(metricsPath);
    if (!tracePath.empty())
        writeTraceJson(tracePath);
}

struct PeriodicFlusher::Impl
{
    std::mutex mutex;
    std::condition_variable cv;
    bool stopping = false;
    std::thread thread;
};

PeriodicFlusher::PeriodicFlusher(unsigned periodMs)
    : impl_(new Impl)
{
    const auto period =
        std::chrono::milliseconds(periodMs == 0 ? 1000 : periodMs);
    impl_->thread = std::thread([this, period] {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        for (;;) {
            if (impl_->cv.wait_for(
                    lock, period,
                    [this] { return impl_->stopping; }))
                return;
            lock.unlock();
            flushTelemetryOutputs();
            lock.lock();
        }
    });
}

void
PeriodicFlusher::stop()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->stopping)
            return;
        impl_->stopping = true;
    }
    impl_->cv.notify_all();
    if (impl_->thread.joinable())
        impl_->thread.join();
}

PeriodicFlusher::~PeriodicFlusher()
{
    stop();
    delete impl_;
}

void
installTelemetryEnvKnobs()
{
    static bool done = [] {
        if (const char *env = std::getenv("VARSAW_TELEMETRY")) {
            if (env[0] != '\0' && env[0] != '0') {
                setMetricsEnabled(true);
                setTracingEnabled(true);
            }
        }
        std::uint64_t events = 0;
        if (envPositive("VARSAW_TRACE_EVENTS", &events))
            SpanTracer::instance().setCapacity(
                static_cast<std::size_t>(events));
        if (const char *env = std::getenv("VARSAW_METRICS_OUT")) {
            if (env[0] != '\0')
                setMetricsOutPath(env);
        }
        if (const char *env = std::getenv("VARSAW_TRACE_OUT")) {
            if (env[0] != '\0')
                setTraceOutPath(env);
        }
        if (const char *env = std::getenv("VARSAW_PROFILE")) {
            if (env[0] != '\0' && env[0] != '0')
                setProfilerEnabled(true);
        }
        if (const char *env = std::getenv("VARSAW_INTROSPECT")) {
            if (env[0] != '\0')
                setIntrospectPath(env);
        }
        std::uint64_t flush_ms = 0;
        if (envPositive("VARSAW_TELEMETRY_FLUSH_MS", &flush_ms)) {
            // Immortal by design: flushes until process exit.
            static PeriodicFlusher *flusher =
                new PeriodicFlusher(static_cast<unsigned>(
                    std::min<std::uint64_t>(
                        flush_ms, std::numeric_limits<unsigned>::max())));
            (void)flusher;
        }
        return true;
    }();
    (void)done;
}

namespace {

/** Static-init shim: apply env knobs in every linked binary. */
struct TelemetryEnvShim
{
    TelemetryEnvShim() { installTelemetryEnvKnobs(); }
};

TelemetryEnvShim s_telemetryEnvShim;

} // namespace

} // namespace varsaw::telemetry
