/**
 * @file
 * Heap-allocation counting for tests and benches.
 *
 * Include this header in exactly ONE translation unit of an
 * executable (it defines the replaceable global operator new and
 * delete) and read allocations() before and after the region to
 * measure. The library never includes it.
 */

#ifndef QUMA_COMMON_ALLOC_COUNT_HH
#define QUMA_COMMON_ALLOC_COUNT_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace quma {

inline std::atomic<std::size_t> g_heapAllocations{0};

/** Calls of the global operator new so far, in any thread. */
inline std::size_t
allocations()
{
    return g_heapAllocations.load(std::memory_order_relaxed);
}

} // namespace quma

// The array and nothrow forms forward to this one by default.
void *
operator new(std::size_t size)
{
    quma::g_heapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // QUMA_COMMON_ALLOC_COUNT_HH
