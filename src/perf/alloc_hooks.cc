/**
 * @file
 * Process-wide allocation counters behind perf/perf.h.
 *
 * Replaces the global operator new/delete family with thin malloc/
 * free wrappers that bump two relaxed atomics, so the end-to-end
 * benchmark can report heap allocations and tests can assert that a
 * steady-state hot path allocates nothing. malloc-based (not a custom
 * arena) so the sanitizer builds keep their heap instrumentation
 * underneath.
 *
 * The counters are monotonic and process-wide; callers measure
 * deltas around the region of interest. The hooks land in every
 * binary that links c4::perf and references allocStatsNow(), which
 * pulls this archive member in.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "perf/perf.h"

namespace {

std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void *
countedAlloc(std::size_t size)
{
    // malloc(0) may return null; operator new must not.
    void *p = std::malloc(size > 0 ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(size, std::memory_order_relaxed);
    return p;
}

void *
countedAllocAligned(std::size_t size, std::size_t align)
{
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size > 0 ? size : align) != 0)
        throw std::bad_alloc();
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(size, std::memory_order_relaxed);
    return p;
}

} // namespace

namespace c4::perf {

AllocStats
allocStatsNow()
{
    AllocStats stats;
    stats.count = gAllocCount.load(std::memory_order_relaxed);
    stats.bytes = gAllocBytes.load(std::memory_order_relaxed);
    return stats;
}

} // namespace c4::perf

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size,
                               static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size,
                               static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAllocAligned(size,
                                   static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    try {
        return countedAllocAligned(size,
                                   static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
