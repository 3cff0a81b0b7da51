/**
 * @file
 * Process-wide heap-allocation counters.
 *
 * Linking c4::perf replaces the global operator new family with
 * counting wrappers (see alloc_hooks.cc). The end-to-end benchmark
 * (`perfbench/`) reports its `heap_allocs` from these counters, and
 * the `*DoNotAllocate` tests assert that steady-state hot paths make
 * zero allocations.
 */

#ifndef C4_PERF_PERF_H
#define C4_PERF_PERF_H

#include <cstdint>

namespace c4::perf {

/**
 * Process-wide allocation counters. Monotonic: callers snapshot
 * before and after a region and subtract.
 */
struct AllocStats
{
    std::uint64_t count = 0; ///< operator-new calls since start
    std::uint64_t bytes = 0; ///< bytes requested since start
};

/** Current allocation counters for this process. */
AllocStats allocStatsNow();

} // namespace c4::perf

#endif // C4_PERF_PERF_H
