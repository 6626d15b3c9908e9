/**
 * @file
 * The flat functional backing store for the simulated global address
 * space, plus a bump allocator workloads use to lay out their data.
 *
 * Timing and data are deliberately decoupled in cmpmem: caches and
 * local stores model *timing and coherence metadata*, while values
 * live here. All paper workloads are data-race-free (they
 * synchronize through locks/barriers/task queues), so functional
 * accesses applied in core-issue order observe the same values a
 * data-carrying cache hierarchy would.
 *
 * Every simulated load/store lands here, so the lookup cost is part
 * of the host-time access fast path (DESIGN.md §13). The
 * bump-allocated range lives in one contiguous, page-aligned region,
 * so an access inside it is a bounds check and a memcpy. Any other
 * access (a probe before the first alloc(), an address no allocation
 * covers, a tail past the region's end) goes to the sparse page map.
 * Workloads touch only what they allocated, so that path is cold.
 * The region is not architecturally visible: values and zero-fill
 * semantics are identical to the plain map.
 */

#ifndef CMPMEM_MEM_FUNCTIONAL_MEMORY_HH
#define CMPMEM_MEM_FUNCTIONAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

/**
 * Sparse, page-granular byte-addressable memory.
 *
 * Pages materialize zero-filled on first touch; the simulated address
 * space is effectively 2^64 bytes while host memory usage tracks the
 * workload footprint.
 */
class FunctionalMemory
{
  public:
    static constexpr Addr pageBytes = 4096;

    FunctionalMemory() = default;
    FunctionalMemory(const FunctionalMemory &) = delete;
    FunctionalMemory &operator=(const FunctionalMemory &) = delete;

    void
    read(Addr addr, void *dst, std::size_t size) const
    {
        // Fast path: wholly inside the contiguous bump region.
        if (addr >= allocBase && addr - allocBase < region.size() &&
            size <= region.size() - (addr - allocBase)) {
            std::memcpy(dst, region.data() + (addr - allocBase), size);
            return;
        }
        readSlow(addr, dst, size);
    }

    void
    write(Addr addr, const void *src, std::size_t size)
    {
        if (addr >= allocBase && addr - allocBase < region.size() &&
            size <= region.size() - (addr - allocBase)) {
            std::memcpy(region.data() + (addr - allocBase), src, size);
            return;
        }
        writeSlow(addr, src, size);
    }

    /** Typed convenience accessors for trivially copyable values. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &value, sizeof(T));
    }

    /**
     * Allocate @p size bytes aligned to @p align from the bump
     * allocator.
     *
     * The first allocation starts at a non-zero base so that address
     * zero can serve as a null sentinel in workload data structures.
     * The allocated range is backed by the contiguous region; sparse
     * pages a workload already wrote inside the newly covered range
     * migrate into it, so growth never changes observed values.
     */
    Addr alloc(std::size_t size, std::size_t align = 64);

    /** Total bytes handed out by alloc(). */
    Addr allocated() const { return brk - allocBase; }

    /**
     * Number of materialized pages, counting the contiguous region
     * at page granularity (for tests / footprint checks).
     */
    std::size_t
    pageCount() const
    {
        return pages.size() + region.size() / pageBytes;
    }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    /** Page-granular chunk loops for accesses outside the region. */
    void readSlow(Addr addr, void *dst, std::size_t size) const;
    void writeSlow(Addr addr, const void *src, std::size_t size);

    std::uint8_t *pageFor(Addr addr);
    const std::uint8_t *pageForRead(Addr addr) const;

    static constexpr Addr allocBase = 0x10000;

    std::unordered_map<Addr, Page> pages;

    /** Contiguous backing for [allocBase, allocBase+region.size()). */
    std::vector<std::uint8_t> region;
    Addr brk = allocBase;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_FUNCTIONAL_MEMORY_HH
