#include "util/parse.hh"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace varsaw {

bool
parseU64(const char *text, std::uint64_t *out)
{
    // strtoull alone would skip whitespace, accept a sign (and wrap
    // a negative) and stop at the first non-digit; require a leading
    // digit and a full-length parse instead.
    if (!text || text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<std::uint64_t>(parsed);
    return true;
}

bool
parsePositive(const char *text, std::uint64_t *out)
{
    std::uint64_t value = 0;
    if (!parseU64(text, &value) || value == 0)
        return false;
    *out = value;
    return true;
}

bool
envPositive(const char *name, std::uint64_t *out)
{
    const char *env = std::getenv(name);
    if (!env)
        return false;
    if (parsePositive(env, out))
        return true;
    std::string msg(name);
    msg += ": invalid value '";
    msg += env;
    msg += "' (want a positive integer); using the default";
    warn(msg);
    return false;
}

} // namespace varsaw
