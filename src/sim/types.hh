/**
 * @file
 * Fundamental simulation types: simulated time (ticks), data sizes and
 * conversion helpers shared by every cxlmemo module.
 *
 * The simulator counts time in integer picoseconds. Picosecond
 * resolution keeps every timing constant exactly representable (DDR
 * device timings are sub-nanosecond multiples) while a 64-bit counter
 * still covers ~106 days of simulated time, far beyond any experiment
 * in this repository.
 */

#ifndef CXLMEMO_SIM_TYPES_HH
#define CXLMEMO_SIM_TYPES_HH

#include <cstdint>

namespace cxlmemo
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Physical or virtual byte address inside the simulated machine. */
using Addr = std::uint64_t;

/** One simulated nanosecond expressed in ticks. */
constexpr Tick tickPerNs = 1000;

/** Sentinel for "no time" / "never". */
constexpr Tick maxTick = ~Tick(0);

/** Convert nanoseconds (possibly fractional) to ticks. */
constexpr Tick
ticksFromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(tickPerNs) + 0.5);
}

/** Convert microseconds to ticks. */
constexpr Tick
ticksFromUs(double us)
{
    return ticksFromNs(us * 1e3);
}

/** Convert seconds to ticks. */
constexpr Tick
ticksFromSec(double sec)
{
    return ticksFromNs(sec * 1e9);
}

/** Convert ticks to (fractional) nanoseconds. */
constexpr double
nsFromTicks(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickPerNs);
}

/** Convert ticks to (fractional) microseconds. */
constexpr double
usFromTicks(Tick t)
{
    return nsFromTicks(t) / 1e3;
}

/** Convert ticks to (fractional) seconds. */
constexpr double
secFromTicks(Tick t)
{
    return nsFromTicks(t) / 1e9;
}

/** Size literals. */
constexpr std::uint64_t kiB = 1024;
constexpr std::uint64_t miB = 1024 * kiB;
constexpr std::uint64_t giB = 1024 * miB;

/** Cache line size used throughout the simulated machine. */
constexpr std::uint32_t cachelineBytes = 64;

/** OS page size used by the NUMA allocation policies. */
constexpr std::uint64_t pageBytes = 4 * kiB;

/**
 * Bandwidth helper: bytes moved over a duration, reported in GB/s
 * (decimal gigabytes, matching how the paper reports bandwidth).
 */
constexpr double
gbPerSec(std::uint64_t bytes, Tick duration)
{
    if (duration == 0)
        return 0.0;
    return static_cast<double>(bytes) / secFromTicks(duration) / 1e9;
}

/**
 * Convert a GB/s figure (decimal) into bytes per tick, the unit link
 * and channel models use internally.
 */
constexpr double
bytesPerTickFromGBps(double gbps)
{
    return gbps * 1e9 / 1e12; // bytes per second -> bytes per picosecond
}

/** Serialization delay in ticks for @p bytes at @p gbps GB/s. */
constexpr Tick
serializationTicks(std::uint64_t bytes, double gbps)
{
    return static_cast<Tick>(
        static_cast<double>(bytes) / bytesPerTickFromGBps(gbps) + 0.5);
}

} // namespace cxlmemo

#endif // CXLMEMO_SIM_TYPES_HH
