/**
 * @file
 * gem5-style status and error reporting: panic() for internal invariant
 * violations (simulator bug), fatal() for user errors (bad configuration),
 * warn() for status messages that never stop the run.
 */

#ifndef INFS_SIM_LOGGING_HH
#define INFS_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace infs {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace infs

/** Abort on a condition that should never happen (simulator bug). */
#define infs_panic(...) \
    ::infs::detail::panicImpl(__FILE__, __LINE__, \
                              ::infs::detail::formatMessage(__VA_ARGS__))

/** Exit on a condition that is the user's fault (bad configuration). */
#define infs_fatal(...) \
    ::infs::detail::fatalImpl(__FILE__, __LINE__, \
                              ::infs::detail::formatMessage(__VA_ARGS__))

/** Panic when a required invariant does not hold. */
#define infs_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::infs::detail::panicImpl( \
                __FILE__, __LINE__, \
                std::string("assertion failed: " #cond " — ") + \
                    ::infs::detail::formatMessage(__VA_ARGS__)); \
        } \
    } while (0)

/** Non-fatal diagnostic about questionable behaviour. */
#define infs_warn(...) \
    ::infs::detail::warnImpl(::infs::detail::formatMessage(__VA_ARGS__))

#endif // INFS_SIM_LOGGING_HH
