/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 * warn()   - something is off but the simulation can continue.
 */

#ifndef CXLMEMO_SIM_LOGGING_HH
#define CXLMEMO_SIM_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cxlmemo
{

namespace logging_detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void assertFailImpl(const char *file, int line,
                                 const char *cond, const std::string &msg);
void warnImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace logging_detail

#define CXLMEMO_PANIC(...)                                                   \
    ::cxlmemo::logging_detail::panicImpl(                                    \
        __FILE__, __LINE__, ::cxlmemo::logging_detail::format(__VA_ARGS__))

#define CXLMEMO_FATAL(...)                                                   \
    ::cxlmemo::logging_detail::fatalImpl(                                    \
        __FILE__, __LINE__, ::cxlmemo::logging_detail::format(__VA_ARGS__))

#define CXLMEMO_WARN(...)                                                    \
    ::cxlmemo::logging_detail::warnImpl(                                     \
        ::cxlmemo::logging_detail::format(__VA_ARGS__))

/**
 * Warn at most once per call site for the process lifetime. Per-request
 * conditions (retry budget exhausted, poison delivered uncached) can
 * fire millions of times in a sweep; the first occurrence carries all
 * the signal. Atomic because SweepRunner executes machines on several
 * host threads that may share a call site.
 */
#define CXLMEMO_WARN_ONCE(...)                                               \
    do {                                                                     \
        static ::std::atomic<bool> cxlmemo_warned_{false};                   \
        if (!cxlmemo_warned_.exchange(true, ::std::memory_order_relaxed)) {  \
            CXLMEMO_WARN(__VA_ARGS__);                                       \
        }                                                                    \
    } while (0)

/**
 * Warn for the first @p limit occurrences per call site, then announce
 * suppression once and stay silent. Use where a handful of instances
 * are diagnostic (which requests hit the condition) but an unbounded
 * stream would flood a multi-million-request sweep.
 */
#define CXLMEMO_WARN_RATELIMITED(limit, ...)                                 \
    do {                                                                     \
        static ::std::atomic<std::uint64_t> cxlmemo_warn_count_{0};          \
        const std::uint64_t cxlmemo_n_ = cxlmemo_warn_count_.fetch_add(      \
            1, ::std::memory_order_relaxed);                                 \
        if (cxlmemo_n_ < (limit)) {                                          \
            CXLMEMO_WARN(__VA_ARGS__);                                       \
            if (cxlmemo_n_ + 1 == (limit)) {                                 \
                CXLMEMO_WARN("further warnings from %s:%d suppressed",      \
                             __FILE__, __LINE__);                            \
            }                                                                \
        }                                                                    \
    } while (0)

/**
 * Assert an internal invariant; compiled in all build types. The
 * stringified condition is passed as *data*, never as a format string
 * (conditions routinely contain '%'). The message is optional.
 */
#define CXLMEMO_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::cxlmemo::logging_detail::assertFailImpl(                       \
                __FILE__, __LINE__, #cond,                                   \
                ::std::string(__VA_OPT__(                                    \
                    ::cxlmemo::logging_detail::format(__VA_ARGS__))));       \
        }                                                                    \
    } while (0)

} // namespace cxlmemo

#endif // CXLMEMO_SIM_LOGGING_HH
