/**
 * @file
 * Tests for the strict numeric knob parser (util/parse.hh) and the
 * service-thread cap it feeds: a malformed value is rejected whole,
 * never partially parsed, and the env knob and the flag share one
 * cap.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/sim_engine.hh"
#include "util/parallel.hh"
#include "util/parse.hh"

namespace varsaw {
namespace {

TEST(ParsePositive, AcceptsOnlyWholePositiveDecimals)
{
    std::uint64_t value = 0;
    EXPECT_TRUE(parsePositive("4", &value));
    EXPECT_EQ(value, 4u);
    EXPECT_TRUE(parsePositive("18446744073709551615", &value));
    EXPECT_EQ(value, 18446744073709551615ull);

    for (const char *bad :
         {"4x", "3.9", "-2", "0", "", " 4", "+4",
          "18446744073709551616"}) {
        value = 7;
        EXPECT_FALSE(parsePositive(bad, &value)) << "'" << bad << "'";
        EXPECT_EQ(value, 7u) << "'" << bad << "'";
    }
    EXPECT_FALSE(parsePositive(nullptr, &value));
}

TEST(ParseU64, AcceptsZeroAndOtherwiseMatchesParsePositive)
{
    std::uint64_t value = 7;
    EXPECT_TRUE(parseU64("0", &value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", &value));
    EXPECT_EQ(value, 18446744073709551615ull);

    for (const char *bad :
         {"-1", "4x", "3.9", "", " 4", "+4", "0x10",
          "18446744073709551616"}) {
        value = 7;
        EXPECT_FALSE(parseU64(bad, &value)) << "'" << bad << "'";
        EXPECT_EQ(value, 7u) << "'" << bad << "'";
    }
    EXPECT_FALSE(parseU64(nullptr, &value));
}

TEST(ParsePositive, EnvKnobFallsBackOnMalformedValue)
{
    const char *name = "VARSAW_TEST_PARSE_KNOB";
    std::uint64_t value = 0;
    ::unsetenv(name);
    EXPECT_FALSE(envPositive(name, &value));
    ::setenv(name, "2junk", 1);
    EXPECT_FALSE(envPositive(name, &value));
    EXPECT_EQ(value, 0u);
    ::setenv(name, "12", 1);
    EXPECT_TRUE(envPositive(name, &value));
    EXPECT_EQ(value, 12u);
    ::unsetenv(name);
}

/** Restores the default service worker count. */
struct ServiceThreadsGuard
{
    int saved = defaultServiceThreads();
    ~ServiceThreadsGuard() { setDefaultServiceThreads(saved); }
};

TEST(ServiceThreads, DefaultIsCapped)
{
    ServiceThreadsGuard guard;
    setDefaultServiceThreads(5000);
    EXPECT_EQ(resolveServiceThreads(0), kMaxServiceThreads);
    setDefaultServiceThreads(3);
    EXPECT_EQ(resolveServiceThreads(0), 3);
}

/** applyRuntimeFlags over one flag; returns its verdict. */
bool
applyFlag(const std::string &flag)
{
    std::vector<std::string> args = {"program", flag};
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    int argc = 2;
    return applyRuntimeFlags(argc, argv.data());
}

TEST(ServiceThreads, FlagIsStrictAndSharesTheCap)
{
    ServiceThreadsGuard guard;
    ASSERT_TRUE(applyFlag("--service-threads=5000"));
    EXPECT_EQ(resolveServiceThreads(0), kMaxServiceThreads);
    ASSERT_TRUE(applyFlag("--service-threads=2"));
    EXPECT_FALSE(applyFlag("--service-threads=4x"));
    EXPECT_EQ(resolveServiceThreads(0), 2);
}

} // namespace
} // namespace varsaw
