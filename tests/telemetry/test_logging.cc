/**
 * @file
 * Tests for the logging helpers: line composition, cross-thread
 * serialization (no interleaved fragments), and the level filter
 * plumbing that VARSAW_LOG_LEVEL selects.
 *
 * The public helpers write to stdout/stderr, which a unit test can't
 * sanely capture; these tests drive logdetail::emitLine with a
 * temporary file, which is the single serialization point every
 * helper funnels through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace varsaw {
namespace {

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(Logging, EmitLineComposesPrefixAndNewline)
{
    const std::string path = "test_logging_compose.tmp";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    logdetail::emitLine(f, "warn", "something odd");
    std::fclose(f);
    EXPECT_EQ(slurp(path), "warn: something odd\n");
    std::remove(path.c_str());
}

TEST(Logging, ConcurrentEmittersNeverInterleaveMidLine)
{
    // N threads each write distinctive lines through emitLine; the
    // file must contain exactly the expected multiset of complete
    // lines — a torn write would leave a malformed line.
    const std::string path = "test_logging_serial.tmp";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);

    constexpr int kThreads = 8;
    constexpr int kLines = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string msg(20 + 10 * t,
                                  static_cast<char>('a' + t));
            for (int i = 0; i < kLines; ++i)
                logdetail::emitLine(f, "log", msg);
        });
    }
    for (auto &th : threads)
        th.join();
    std::fclose(f);

    const std::string text = slurp(path);
    int counts[kThreads] = {};
    std::size_t pos = 0;
    int total = 0;
    while (pos < text.size()) {
        const auto nl = text.find('\n', pos);
        ASSERT_NE(nl, std::string::npos) << "unterminated line";
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++total;
        ASSERT_EQ(line.compare(0, 5, "log: "), 0) << line;
        const std::string body = line.substr(5);
        ASSERT_FALSE(body.empty());
        const int t = body[0] - 'a';
        ASSERT_GE(t, 0);
        ASSERT_LT(t, kThreads);
        // The whole body is one thread's character at its length —
        // any interleaving breaks one of these.
        EXPECT_EQ(body.size(),
                  static_cast<std::size_t>(20 + 10 * t));
        for (char c : body)
            ASSERT_EQ(c, 'a' + t);
        ++counts[t];
    }
    EXPECT_EQ(total, kThreads * kLines);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(counts[t], kLines);
    std::remove(path.c_str());
}

TEST(Logging, LevelOrderingMatchesSeverity)
{
    EXPECT_LT(static_cast<int>(LogLevel::Debug),
              static_cast<int>(LogLevel::Info));
    EXPECT_LT(static_cast<int>(LogLevel::Info),
              static_cast<int>(LogLevel::Warn));
    EXPECT_LT(static_cast<int>(LogLevel::Warn),
              static_cast<int>(LogLevel::None));
}

TEST(Logging, NoneIsNeverEmitted)
{
    // Whatever VARSAW_LOG_LEVEL the test environment set, the None
    // pseudo-level itself must never count as an emittable severity.
    EXPECT_FALSE(logEnabled(LogLevel::None));
}

TEST(Logging, FilterIsMonotonic)
{
    // If a level is enabled, every more-severe level (below None)
    // must be too — the filter is a threshold, not a set.
    const LogLevel levels[] = {LogLevel::Debug, LogLevel::Info,
                               LogLevel::Warn};
    bool seen_enabled = false;
    for (LogLevel level : levels) {
        if (seen_enabled) {
            EXPECT_TRUE(logEnabled(level));
        }
        seen_enabled = seen_enabled || logEnabled(level);
    }
}

TEST(LoggingDeathTest, UnknownLevelWarnsAndMeansInfo)
{
    // The level is read once per process, so the check runs in a
    // freshly executed child ("threadsafe" death-test style).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::setenv("VARSAW_LOG_LEVEL", "verbose", 1);
    EXPECT_EXIT(std::exit(logEnabled(LogLevel::Info) &&
                                  !logEnabled(LogLevel::Debug)
                              ? 0
                              : 1),
                ::testing::ExitedWithCode(0),
                "warn: VARSAW_LOG_LEVEL: unknown level 'verbose'");
    ::unsetenv("VARSAW_LOG_LEVEL");
}

TEST(Logging, DebugMacroCompilesAndRespectsBuildType)
{
    // The macro must be usable as a statement; under NDEBUG its
    // argument is not evaluated.
    int evaluations = 0;
    const auto touch = [&evaluations] {
        ++evaluations;
        return std::string("dbg");
    };
    (void)touch; // unused when VARSAW_DEBUG compiles out (NDEBUG)
    VARSAW_DEBUG(touch());
#if defined(NDEBUG)
    EXPECT_EQ(evaluations, 0);
#else
    EXPECT_EQ(evaluations, 1);
#endif
}

} // namespace
} // namespace varsaw
