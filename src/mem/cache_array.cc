#include "mem/cache_array.hh"

#include <cassert>

#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{
bool
isPow2(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

std::uint32_t
log2Exact(std::uint32_t x)
{
    std::uint32_t shift = 0;
    while ((std::uint32_t(1) << shift) < x)
        ++shift;
    return shift;
}
} // namespace

CacheArray::CacheArray(const CacheGeometry &g, const ReplacementConfig &r)
    : geom(g), repl(r), rng(r.seed)
{
    if (repl.bipThrottle == 0)
        throwSimError(SimErrorKind::Config,
                      "BIP throttle must be at least 1");
    // Each field must be a power of two individually: pow2 sets can
    // emerge from a non-pow2 size/assoc pair only via the silently
    // truncating division in sets(), which would index a different
    // cache than the one configured.
    if (!isPow2(geom.sizeBytes) || !isPow2(geom.assoc) ||
        !isPow2(geom.lineBytes) ||
        geom.sizeBytes < geom.assoc * geom.lineBytes)
        throwSimError(SimErrorKind::Config,
                      "cache geometry must have power-of-two size, "
                      "associativity, and line size, with at least one "
                      "set (size=%u assoc=%u line=%u)",
                      geom.sizeBytes, geom.assoc, geom.lineBytes);
    lineShift = log2Exact(geom.lineBytes);
    setMask = geom.sets() - 1;
    assocShift = log2Exact(geom.assoc);
    lines.resize(std::size_t(geom.sets()) * geom.assoc);
}

const CacheArray::Line *
CacheArray::lookup(Addr addr) const
{
    Addr la = lineAddr(addr);
    const Line *set = &lines[std::size_t(setIndex(addr)) << assocShift];
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (set[w].valid() && set[w].tag == la)
            return &set[w];
    }
    return nullptr;
}

template <typename Traits>
CacheArray::Line &
CacheArray::allocateImpl(Addr addr, Victim &victim)
{
    assert(lookup(addr) == nullptr && "allocating a duplicate tag");

    Line *set = &lines[std::size_t(setIndex(addr)) << assocShift];
    Line *pick = &set[Traits::victimWay(set, geom.assoc)];

    victim.valid = pick->valid();
    victim.dirty = pick->dirty();
    victim.addr = pick->tag;
    victim.state = pick->state;

    pick->tag = lineAddr(addr);
    pick->state = MesiState::Invalid;
    pick->flags = 0;
    pick->lruStamp = Traits::insertionStamp(lruClock, rng, repl);
    return *pick;
}

CacheArray::Line &
CacheArray::allocate(Addr addr, Victim &victim)
{
    switch (repl.policy) {
      case ReplacementPolicy::LRU:
        return allocateImpl<LruTraits>(addr, victim);
      case ReplacementPolicy::MIP:
        return allocateImpl<MipTraits>(addr, victim);
      case ReplacementPolicy::LIP:
        return allocateImpl<LipTraits>(addr, victim);
      case ReplacementPolicy::BIP:
        return allocateImpl<BipTraits>(addr, victim);
    }
    return allocateImpl<LruTraits>(addr, victim); // unreachable
}

void
CacheArray::invalidateAll()
{
    for (auto &line : lines)
        line.state = MesiState::Invalid;
}

std::size_t
CacheArray::validLines() const
{
    std::size_t n = 0;
    for (const auto &line : lines)
        n += line.valid();
    return n;
}

} // namespace cmpmem
