/**
 * @file
 * benchdiff: compare two perf-trajectory summaries and flag
 * regressions.
 *
 * The benches write schema-versioned BENCH_<name>.json files
 * (bench::emitBenchSummary). This tool compares a BASELINE against
 * a CANDIDATE — each either a single file or a directory scanned
 * for BENCH_*.json — and exits nonzero when any gated metric
 * regressed beyond the threshold:
 *
 *   metrics.wall_seconds   up by more than the threshold = slower
 *   metrics.executions     up by more than the threshold = the
 *                          dedupe/caching machinery lost work
 *
 * Every other shared numeric key is reported informationally. A
 * bench present on only one side is reported and skipped (new and
 * retired benches are not regressions).
 *
 * Usage:
 *   benchdiff BASELINE CANDIDATE [--threshold=PCT] [--report-only]
 *
 * --threshold=PCT   allowed relative growth of a gated metric
 *                   before it counts as a regression (default 10)
 * --report-only     always exit 0 (CI trend job: record, don't gate)
 *
 * Standalone: parses the summaries with its own minimal JSON reader
 * (numbers flattened to dotted keys), so it builds and runs without
 * the library — a perf report must never depend on the code whose
 * performance it judges.
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/** Numeric leaves of one summary, keyed "metrics.wall_seconds". */
using FlatMetrics = std::map<std::string, double>;

/**
 * Minimal JSON reader for the summaries benchdiff consumes: objects,
 * arrays, numbers, strings, true/false/null. Numbers are flattened
 * into @p out under dotted keys (array elements indexed); strings
 * and booleans are ignored — comparisons are numeric. Tolerant by
 * design: a malformed file yields whatever prefix parsed, and the
 * caller treats an empty map as "no data".
 */
class FlatJsonParser
{
  public:
    explicit FlatJsonParser(const std::string &text) : text_(text) {}

    FlatMetrics
    parse()
    {
        FlatMetrics out;
        pos_ = 0;
        value("", &out);
        return out;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        std::string out;
        if (!consume('"'))
            return out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size())
                ++pos_; // keep the escaped char, drop the backslash
            out += text_[pos_++];
        }
        if (pos_ < text_.size())
            ++pos_; // closing quote
        return out;
    }

    void
    value(const std::string &key, FlatMetrics *out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            skipWs();
            if (consume('}'))
                return;
            for (;;) {
                const std::string name = string();
                consume(':');
                value(key.empty() ? name : key + "." + name, out);
                if (!consume(','))
                    break;
            }
            consume('}');
        } else if (c == '[') {
            ++pos_;
            skipWs();
            if (consume(']'))
                return;
            for (std::size_t i = 0;; ++i) {
                value(key + "." + std::to_string(i), out);
                if (!consume(','))
                    break;
            }
            consume(']');
        } else if (c == '"') {
            (void)string();
        } else if (c == 't' || c == 'f' || c == 'n') {
            while (pos_ < text_.size() &&
                   std::isalpha(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        } else {
            char *end = nullptr;
            const double v =
                std::strtod(text_.c_str() + pos_, &end);
            if (end == text_.c_str() + pos_) {
                ++pos_; // unparsable: skip a char, stay tolerant
                return;
            }
            pos_ = static_cast<std::size_t>(end - text_.c_str());
            if (!key.empty())
                (*out)[key] = v;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

FlatMetrics
loadSummary(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string content = text.str();
    return FlatJsonParser(content).parse();
}

/** Bench name → summary path, from a file or a scanned directory. */
std::map<std::string, std::filesystem::path>
collect(const std::filesystem::path &where)
{
    std::map<std::string, std::filesystem::path> out;
    const auto nameOf =
        [](const std::filesystem::path &p) -> std::string {
        std::string stem = p.stem().string(); // BENCH_foo
        if (stem.rfind("BENCH_", 0) == 0)
            stem = stem.substr(6);
        return stem;
    };
    std::error_code ec;
    if (std::filesystem::is_directory(where, ec)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(where, ec)) {
            const auto &p = entry.path();
            const std::string file = p.filename().string();
            if (file.rfind("BENCH_", 0) == 0 &&
                p.extension() == ".json")
                out.emplace(nameOf(p), p);
        }
    } else if (std::filesystem::exists(where, ec)) {
        out.emplace(nameOf(where), where);
    }
    return out;
}

/** Metrics whose growth beyond the threshold gates the exit code. */
bool
isGated(const std::string &key)
{
    return key == "metrics.wall_seconds" ||
        key == "metrics.executions";
}

struct Comparison
{
    int regressions = 0;
    int compared = 0;
};

void
compareBench(const std::string &bench, const FlatMetrics &base,
             const FlatMetrics &cand, double threshold_pct,
             Comparison *totals)
{
    std::printf("== %s ==\n", bench.c_str());
    for (const auto &[key, base_value] : base) {
        const auto it = cand.find(key);
        if (it == cand.end())
            continue;
        if (key.rfind("metrics.", 0) != 0 &&
            key.rfind("phases.", 0) != 0)
            continue; // build provenance, schema version, ...
        const double cand_value = it->second;
        ++totals->compared;
        const double delta_pct = std::abs(base_value) > 1e-12
            ? 100.0 * (cand_value - base_value) / base_value
            : (cand_value == 0.0 ? 0.0 : 100.0);
        const bool gated = isGated(key);
        const bool regressed =
            gated && delta_pct > threshold_pct;
        if (regressed)
            ++totals->regressions;
        std::printf("  %-44s %14.6g -> %14.6g  %+8.2f%%%s\n",
                    key.c_str(), base_value, cand_value, delta_pct,
                    regressed       ? "  REGRESSION"
                        : gated     ? "  (gated)"
                                    : "");
    }
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s BASELINE CANDIDATE [--threshold=PCT] "
                 "[--report-only]\n"
                 "  BASELINE/CANDIDATE: a BENCH_<name>.json file "
                 "or a directory of them\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    double threshold_pct = 10.0;
    bool report_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threshold=", 0) == 0) {
            // The whole value must be a finite, non-negative number:
            // atof read "abc" as 0, which gated every growth.
            const char *text = arg.c_str() + 12;
            char *end = nullptr;
            threshold_pct = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                !std::isfinite(threshold_pct) || threshold_pct < 0.0) {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--report-only") {
            report_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 2;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        usage(argv[0]);
        return 2;
    }

    const auto baselines = collect(positional[0]);
    const auto candidates = collect(positional[1]);
    if (baselines.empty()) {
        std::fprintf(stderr, "no BENCH_*.json under %s\n",
                     positional[0].c_str());
        return 2;
    }
    if (candidates.empty()) {
        std::fprintf(stderr, "no BENCH_*.json under %s\n",
                     positional[1].c_str());
        return 2;
    }

    std::printf("benchdiff: %s -> %s (threshold %+.1f%%)\n\n",
                positional[0].c_str(), positional[1].c_str(),
                threshold_pct);

    Comparison totals;
    for (const auto &[bench, base_path] : baselines) {
        const auto it = candidates.find(bench);
        if (it == candidates.end()) {
            std::printf("== %s == only in baseline (skipped)\n",
                        bench.c_str());
            continue;
        }
        compareBench(bench, loadSummary(base_path),
                     loadSummary(it->second), threshold_pct,
                     &totals);
    }
    for (const auto &[bench, path] : candidates)
        if (!baselines.count(bench))
            std::printf("== %s == only in candidate (skipped)\n",
                        bench.c_str());

    std::printf("\n%d metric(s) compared, %d regression(s)\n",
                totals.compared, totals.regressions);
    if (totals.regressions > 0 && !report_only)
        return 1;
    return 0;
}
