/**
 * @file
 * Minimal status/error reporting helpers.
 *
 * Follows the gem5 convention: inform() for status, warn() for
 * suspicious-but-survivable conditions, fatal() for user errors
 * (clean exit) and panic() for internal invariant violations (abort).
 *
 * Output is serialized: each message is composed into one buffer and
 * written with a single stdio call under a process-wide mutex, so
 * concurrent warn() calls from scheduler/kernel workers can never
 * interleave mid-line (they used to).
 *
 * Filtering: VARSAW_LOG_LEVEL selects the minimum emitted severity
 * — "debug", "info" (default), "warn", or "none"/"fatal" (suppress
 * warn too; fatal/panic always print, they precede process death).
 * Any other value warns once and means "info".
 * The debug level additionally compiles out entirely in release
 * (NDEBUG) builds: use the VARSAW_DEBUG(msg) macro, whose argument
 * is not evaluated when compiled out.
 */

#ifndef VARSAW_UTIL_LOGGING_HH
#define VARSAW_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

namespace varsaw {

/** Message severities, ordered; VARSAW_LOG_LEVEL names these. */
enum class LogLevel : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    None = 3, ///< Suppress everything suppressible.
};

namespace logdetail {

/** Serializes every emitted line across all threads. */
inline std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

/**
 * Compose "prefix: msg\n" and write it with ONE stdio call under
 * the log mutex — the serialization point for every helper below.
 */
inline void
emitLine(std::FILE *stream, const char *prefix,
         const std::string &msg)
{
    std::string line;
    line.reserve(std::strlen(prefix) + msg.size() + 3);
    line += prefix;
    line += ": ";
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lock(logMutex());
    std::fwrite(line.data(), 1, line.size(), stream);
    std::fflush(stream);
}

/** Minimum emitted severity (VARSAW_LOG_LEVEL, read once). */
inline LogLevel
logLevel()
{
    static const LogLevel level = [] {
        const char *env = std::getenv("VARSAW_LOG_LEVEL");
        if (!env)
            return LogLevel::Info;
        if (!std::strcmp(env, "debug") || !std::strcmp(env, "0"))
            return LogLevel::Debug;
        if (!std::strcmp(env, "info") || !std::strcmp(env, "1"))
            return LogLevel::Info;
        if (!std::strcmp(env, "warn") || !std::strcmp(env, "2"))
            return LogLevel::Warn;
        if (!std::strcmp(env, "none") ||
            !std::strcmp(env, "fatal") || !std::strcmp(env, "3"))
            return LogLevel::None;
        // Straight to emitLine: warn() would re-enter this
        // initializer.
        emitLine(stderr, "warn",
                 std::string("VARSAW_LOG_LEVEL: unknown level '") +
                     env + "' (want debug, info, warn or none); "
                     "using info");
        return LogLevel::Info;
    }();
    return level;
}

} // namespace logdetail

/** Whether messages at @p level are emitted under the current
 * VARSAW_LOG_LEVEL filter. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
        static_cast<int>(logdetail::logLevel()) &&
        level != LogLevel::None;
}

/** Print an informational message to stdout. */
inline void
inform(const std::string &msg)
{
    if (logEnabled(LogLevel::Info))
        logdetail::emitLine(stdout, "info", msg);
}

/** Print a warning message to stderr; execution continues. */
inline void
warn(const std::string &msg)
{
    if (logEnabled(LogLevel::Warn))
        logdetail::emitLine(stderr, "warn", msg);
}

/**
 * Print a debug message to stderr (debug builds only — release
 * builds compile the body away; prefer the VARSAW_DEBUG macro,
 * which also skips evaluating the message argument).
 */
inline void
debugLog(const std::string &msg)
{
#if !defined(NDEBUG)
    if (logEnabled(LogLevel::Debug))
        logdetail::emitLine(stderr, "debug", msg);
#else
    (void)msg;
#endif
}

/**
 * Report an unrecoverable user-level error (bad configuration,
 * invalid argument) and exit with status 1. Never filtered.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    logdetail::emitLine(stderr, "fatal", msg);
    std::exit(1);
}

/**
 * Report an internal invariant violation (a library bug) and abort,
 * so a debugger or core dump can capture the state. Never filtered.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    logdetail::emitLine(stderr, "panic", msg);
    std::abort();
}

} // namespace varsaw

/**
 * Debug-build-only logging whose argument is not evaluated in
 * release builds: VARSAW_DEBUG("chunk " + std::to_string(i)).
 */
#if !defined(NDEBUG)
#define VARSAW_DEBUG(msg) ::varsaw::debugLog(msg)
#else
#define VARSAW_DEBUG(msg) ((void)0)
#endif

#endif // VARSAW_UTIL_LOGGING_HH
