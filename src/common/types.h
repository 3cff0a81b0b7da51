/**
 * @file
 * Fundamental typed quantities used throughout the C4 simulator.
 *
 * All simulation time is kept in integer nanoseconds to avoid floating
 * point drift in the event queue; bandwidth is kept in bits per second.
 * Helper constructors and converters keep call sites readable
 * (e.g. `seconds(2.5)`, `gbps(200)`).
 */

#ifndef C4_COMMON_TYPES_H
#define C4_COMMON_TYPES_H

#include <cstdint>
#include <limits>
#include <string>

namespace c4 {

/** Simulation time in integer nanoseconds. */
using Time = std::int64_t;

/** A span of simulation time, also in nanoseconds. */
using Duration = std::int64_t;

/** Sentinel for "no time" / "never". */
constexpr Time kTimeNever = std::numeric_limits<Time>::max();

/** @name Duration constructors @{ */
constexpr Duration
nanoseconds(double ns)
{
    return static_cast<Duration>(ns);
}

constexpr Duration
microseconds(double us)
{
    return static_cast<Duration>(us * 1e3);
}

constexpr Duration
milliseconds(double ms)
{
    return static_cast<Duration>(ms * 1e6);
}

constexpr Duration
seconds(double s)
{
    return static_cast<Duration>(s * 1e9);
}

constexpr Duration
minutes(double m)
{
    return seconds(m * 60.0);
}

constexpr Duration
hours(double h)
{
    return seconds(h * 3600.0);
}

constexpr Duration
days(double d)
{
    return hours(d * 24.0);
}
/** @} */

/** @name Duration converters @{ */
constexpr double
toSeconds(Duration d)
{
    return static_cast<double>(d) * 1e-9;
}

constexpr double
toMilliseconds(Duration d)
{
    return static_cast<double>(d) * 1e-6;
}

constexpr double
toHours(Duration d)
{
    return toSeconds(d) / 3600.0;
}
/** @} */

/** Bandwidth in bits per second (fluid model rates). */
using Bandwidth = double;

/** @name Bandwidth constructors @{ */
constexpr Bandwidth
gbps(double g)
{
    return g * 1e9;
}

constexpr double
toGbps(Bandwidth bw)
{
    return bw * 1e-9;
}
/** @} */

/** Data sizes in bytes. */
using Bytes = std::int64_t;

/** @name Byte-size constructors @{ */
constexpr Bytes
kib(double k)
{
    return static_cast<Bytes>(k * 1024.0);
}

constexpr Bytes
mib(double m)
{
    return static_cast<Bytes>(m * 1024.0 * 1024.0);
}

constexpr Bytes
gib(double g)
{
    return static_cast<Bytes>(g * 1024.0 * 1024.0 * 1024.0);
}
/** @} */

/**
 * Time a transfer of @p bytes takes at rate @p bw, in nanoseconds.
 * Returns kTimeNever for a non-positive rate (stalled flow).
 */
constexpr Duration
transferTime(Bytes bytes, Bandwidth bw)
{
    if (bw <= 0.0)
        return kTimeNever;
    return static_cast<Duration>(static_cast<double>(bytes) * 8.0 / bw * 1e9);
}

/** @name Entity identifiers @{ */
using NodeId = std::int32_t;
using GpuId = std::int32_t;
using NicId = std::int32_t;
using PortId = std::int32_t;
using SwitchId = std::int32_t;
using LinkId = std::int32_t;
using Rank = std::int32_t;
using JobId = std::int32_t;
using FlowId = std::int64_t;
using QpId = std::int64_t;
using CommId = std::int32_t;

constexpr std::int32_t kInvalidId = -1;
/** @} */

/** Pretty "12.3 GiB"-style size string. */
std::string formatBytes(Bytes bytes);

/** Pretty "123.4 Gbps"-style bandwidth string. */
std::string formatBandwidth(Bandwidth bw);

/** Pretty duration string choosing ns/us/ms/s units. */
std::string formatDuration(Duration d);

} // namespace c4

#endif // C4_COMMON_TYPES_H
