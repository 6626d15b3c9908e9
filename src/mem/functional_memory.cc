#include "mem/functional_memory.hh"

#include <algorithm>
#include <cassert>

namespace cmpmem
{

std::uint8_t *
FunctionalMemory::pageFor(Addr addr)
{
    Addr base = addr & ~(pageBytes - 1);
    if (base >= allocBase && base - allocBase < region.size())
        return region.data() + (base - allocBase);

    auto it = pages.find(base);
    if (it == pages.end()) {
        auto page = std::make_unique<std::uint8_t[]>(pageBytes);
        std::memset(page.get(), 0, pageBytes);
        it = pages.emplace(base, std::move(page)).first;
    }
    return it->second.get();
}

const std::uint8_t *
FunctionalMemory::pageForRead(Addr addr) const
{
    Addr base = addr & ~(pageBytes - 1);
    if (base >= allocBase && base - allocBase < region.size())
        return region.data() + (base - allocBase);

    auto it = pages.find(base);
    return it == pages.end() ? nullptr : it->second.get();
}

void
FunctionalMemory::readSlow(Addr addr, void *dst, std::size_t size) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        Addr offset = addr & (pageBytes - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes - offset);
        const std::uint8_t *page = pageForRead(addr);
        if (page)
            std::memcpy(out, page + offset, chunk);
        else
            std::memset(out, 0, chunk); // untouched memory reads zero
        out += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
FunctionalMemory::writeSlow(Addr addr, const void *src, std::size_t size)
{
    auto *in = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        Addr offset = addr & (pageBytes - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes - offset);
        std::memcpy(pageFor(addr) + offset, in, chunk);
        in += chunk;
        addr += chunk;
        size -= chunk;
    }
}

Addr
FunctionalMemory::alloc(std::size_t size, std::size_t align)
{
    assert(align > 0 && (align & (align - 1)) == 0 &&
           "alignment must be a power of two");
    Addr base = (brk + align - 1) & ~Addr(align - 1);
    brk = base + size;

    if (brk - allocBase > region.size()) {
        // Grow geometrically, page-granular, so repeated small allocs
        // amortize the copy the vector resize implies.
        std::size_t need = brk - allocBase;
        std::size_t grown = std::max(need, 2 * region.size());
        grown = (grown + pageBytes - 1) & ~std::size_t(pageBytes - 1);
        region.resize(grown); // zero-fills: untouched memory reads zero

        // Migrate sparse pages the region now covers, so addresses a
        // workload wrote before this alloc keep their values.
        Addr end = allocBase + region.size();
        for (auto it = pages.begin(); it != pages.end();) {
            if (it->first >= allocBase && it->first < end) {
                std::memcpy(region.data() + (it->first - allocBase),
                            it->second.get(), pageBytes);
                it = pages.erase(it);
            } else {
                ++it;
            }
        }
    }
    return base;
}

} // namespace cmpmem
