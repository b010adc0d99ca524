/**
 * @file
 * Tests for the logging level machinery (output routing is exercised
 * implicitly everywhere; here we verify level switching and death on
 * panic).
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"

namespace microscale
{
namespace
{

TEST(Logging, SetLevelReturnsPrevious)
{
    const LogLevel prev = setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    const LogLevel quiet = setLogLevel(LogLevel::Verbose);
    EXPECT_EQ(quiet, LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Verbose);
    setLogLevel(prev);
}

TEST(Logging, ConcatFormatsMixedArgs)
{
    EXPECT_EQ(detail::concat("a=", 1, " b=", 2.5), "a=1 b=2.5");
    EXPECT_EQ(detail::concat(), "");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH({ MS_PANIC("boom ", 42); }, "boom 42");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT({ fatal("bad config ", 7); },
                ::testing::ExitedWithCode(1), "bad config 7");
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    const LogLevel prev = setLogLevel(LogLevel::Quiet);
    warn("suppressed warning");
    inform("suppressed info");
    verbose("suppressed debug");
    setLogLevel(prev);
}

TEST(Logging, LogScopeSetsAndRestoresTag)
{
    EXPECT_EQ(logTag(), "");
    {
        LogScope outer("sweep-point");
        EXPECT_EQ(logTag(), "sweep-point");
        {
            LogScope inner("nested");
            EXPECT_EQ(logTag(), "nested");
        }
        EXPECT_EQ(logTag(), "sweep-point");
    }
    EXPECT_EQ(logTag(), "");
}

TEST(Logging, LogTagIsPerThread)
{
    LogScope scope("main-thread");
    std::vector<std::string> seen(4);
    std::vector<std::thread> pool;
    for (int i = 0; i < 4; ++i) {
        pool.emplace_back([i, &seen]() {
            LogScope scope("worker-" + std::to_string(i));
            seen[i] = logTag();
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i], "worker-" + std::to_string(i));
    EXPECT_EQ(logTag(), "main-thread");
}

TEST(Logging, ConcurrentLoggingIsSafe)
{
    // Hammer the logger from several tagged threads while another
    // flips the level. The atomic level plus the single guarded write
    // per line must keep this free of races and crashes.
    const LogLevel prev = setLogLevel(LogLevel::Quiet);
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([t]() {
            LogScope scope(std::string("w").append(std::to_string(t)));
            for (int i = 0; i < 200; ++i)
                inform("tick ", i);
        });
    }
    pool.emplace_back([]() {
        for (int i = 0; i < 100; ++i) {
            setLogLevel(LogLevel::Quiet);
            (void)logLevel();
        }
    });
    for (std::thread &t : pool)
        t.join();
    setLogLevel(prev);
}

} // namespace
} // namespace microscale
