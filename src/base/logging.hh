/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a bug in this library.
 *            Aborts (may dump core).
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, impossible parameters). Exits cleanly
 *            with status 1.
 * warn()   - something is questionable but the run continues.
 * inform() - plain status output.
 *
 * All functions accept printf-free, iostream-free variadic arguments
 * that are stringified with operator<<.
 */

#ifndef MICROSCALE_BASE_LOGGING_HH
#define MICROSCALE_BASE_LOGGING_HH

#include <sstream>
#include <string>

namespace microscale
{

/**
 * Tag every log line emitted by the current thread with "[label]"
 * until the scope ends (the previous tag is restored). Used by
 * core::SweepRunner so that interleaved output from parallel sweep
 * points stays attributable to its point.
 */
class LogScope
{
  public:
    explicit LogScope(std::string label);
    ~LogScope();
    LogScope(const LogScope &) = delete;
    LogScope &operator=(const LogScope &) = delete;

  private:
    std::string prev_;
};

/** The current thread's log tag; empty when no LogScope is active. */
const std::string &logTag();

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Quiet,   ///< Only fatal/panic output.
    Normal,  ///< warn() and inform() also print.
    Verbose, ///< verbose() also prints.
};

/** Set the global verbosity; returns the previous level. */
LogLevel setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

namespace detail
{

/** Concatenate arguments with operator<< into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void verboseImpl(const std::string &msg);

} // namespace detail

/** Report a library bug and abort. */
#define MS_PANIC(...)                                                     \
    ::microscale::detail::panicImpl(__FILE__, __LINE__,                   \
        ::microscale::detail::concat(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious condition; execution continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report normal status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report chatty diagnostics (only at LogLevel::Verbose). */
template <typename... Args>
void
verbose(Args &&...args)
{
    if (logLevel() == LogLevel::Verbose)
        detail::verboseImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace microscale

#endif // MICROSCALE_BASE_LOGGING_HH
