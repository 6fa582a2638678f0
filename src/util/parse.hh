/**
 * @file
 * Strict parsing of the numeric VARSAW_* environment knobs and
 * command-line flags.
 *
 * A malformed value is rejected whole, never partially parsed: "4x"
 * is not 4, "3.9" is not 3. Env readers warn once and fall back to
 * their default; flag parsers report the error and fail.
 */

#ifndef VARSAW_UTIL_PARSE_HH
#define VARSAW_UTIL_PARSE_HH

#include <cstdint>

namespace varsaw {

/**
 * Parse @p text as an unsigned decimal integer: one or more digits
 * and nothing else, naming a value in [0, 2^64). Rejects null,
 * empty, signs, whitespace, trailing junk and overflow. Stores the
 * value in @p out and returns true on success; leaves @p out
 * untouched otherwise.
 */
bool parseU64(const char *text, std::uint64_t *out);

/** parseU64(), also rejecting zero. */
bool parsePositive(const char *text, std::uint64_t *out);

/**
 * Read the environment variable @p name through parsePositive().
 * Returns false when it is unset, and also — after one warn() naming
 * the variable — when it is set but malformed, so the caller uses
 * its default.
 */
bool envPositive(const char *name, std::uint64_t *out);

} // namespace varsaw

#endif // VARSAW_UTIL_PARSE_HH
