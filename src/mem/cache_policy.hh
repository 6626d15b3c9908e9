/**
 * @file
 * Replacement/insertion policy traits for CacheArray (DESIGN.md §15).
 *
 * The paper fixes true-LRU replacement; the neighbouring design space
 * (insertion-policy variants in the DIP family) differs only in where
 * a newly allocated line lands in the recency stack:
 *
 *  - LRU: insert at MRU, evict the LRU way (the paper's policy).
 *  - MIP: MRU insertion, LRU eviction — identical behaviour to true
 *    LRU in this recency-stamp implementation; kept as its own trait
 *    so the conventional DIP-family name is selectable by sweeps.
 *  - LIP: LRU insertion, LRU eviction — a new line is the next victim
 *    of its set until a demand hit promotes it, which protects the
 *    resident working set from scans.
 *  - BIP: bimodal insertion — LIP, except 1 in bipThrottle insertions
 *    goes to MRU, chosen by a deterministic seeded RNG so runs stay
 *    bit-reproducible.
 *
 * Every trait shares LRU (min recency stamp) *eviction* and MRU
 * promotion on demand hit; only the insertion stamp differs. That is
 * why CacheArray::touch() — and with it the memory-access fast path's
 * per-core micro path — stays policy-agnostic: a demand hit means
 * "promote to MRU" under all four policies.
 */

#ifndef CMPMEM_MEM_CACHE_POLICY_HH
#define CMPMEM_MEM_CACHE_POLICY_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"

namespace cmpmem
{

/** Insertion/replacement policy of one CacheArray. */
enum class ReplacementPolicy : std::uint8_t
{
    LRU, ///< MRU insertion, LRU eviction (true LRU; the default)
    MIP, ///< MRU insertion, LRU eviction (DIP-family baseline name)
    LIP, ///< LRU insertion, LRU eviction
    BIP, ///< bimodal: LIP with 1-in-N MRU insertions (seeded RNG)
};

inline const char *
to_string(ReplacementPolicy p)
{
    switch (p) {
      case ReplacementPolicy::LRU: return "LRU";
      case ReplacementPolicy::MIP: return "MIP";
      case ReplacementPolicy::LIP: return "LIP";
      case ReplacementPolicy::BIP: return "BIP";
    }
    return "?";
}

/** Parse a policy name; @return false when @p s is not a policy. */
inline bool
parseReplacementPolicy(const std::string &s, ReplacementPolicy &out)
{
    for (ReplacementPolicy p :
         {ReplacementPolicy::LRU, ReplacementPolicy::MIP,
          ReplacementPolicy::LIP, ReplacementPolicy::BIP}) {
        if (s == to_string(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

/** Replacement policy plus its (BIP-only) tuning knobs. */
struct ReplacementConfig
{
    ReplacementPolicy policy = ReplacementPolicy::LRU;

    /** BIP: one in this many insertions goes to MRU. Must be >= 1. */
    std::uint32_t bipThrottle = 32;

    /** Seed of the BIP bimodal RNG (salted per array by the wiring). */
    std::uint64_t seed = 1;
};

/**
 * Compile-time policy traits. Each trait supplies the two dispatch
 * points CacheArray::allocate() needs:
 *
 *  - victimWay(): which way of a full set to displace. All supported
 *    policies evict the minimum recency stamp (first invalid way
 *    wins; stamp ties break to the lowest way index), so the shared
 *    implementation lives in LruEvictionBase.
 *  - insertionStamp(): the recency stamp of a freshly allocated
 *    line. This is the only point where the four policies differ.
 *
 * Demand-hit promotion is deliberately *not* a trait hook: all four
 * policies promote to MRU on a hit, so CacheArray::touch() stays a
 * single inline function and the fast path never pays a dispatch.
 */
struct LruEvictionBase
{
    /** Hits promote to MRU under every supported policy. */
    static constexpr bool promoteOnHit = true;

    template <typename Line>
    static std::uint32_t
    victimWay(const Line *set, std::uint32_t assoc)
    {
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (!set[w].valid())
                return w;
        }
        // A full set: a running minimum held in registers, with no
        // data-dependent branch (the selects compile to cmov); the
        // strict < keeps ties on the lowest way.
        std::uint64_t oldest = set[0].lruStamp;
        std::uint32_t pick = 0;
        for (std::uint32_t w = 1; w < assoc; ++w) {
            bool older = set[w].lruStamp < oldest;
            oldest = older ? set[w].lruStamp : oldest;
            pick = older ? w : pick;
        }
        return pick;
    }
};

struct LruTraits : LruEvictionBase
{
    static std::uint64_t
    insertionStamp(std::uint64_t &clock, Rng &, const ReplacementConfig &)
    {
        return ++clock;
    }
};

/** MIP is MRU-insert / LRU-evict: identical to true LRU here. */
struct MipTraits : LruTraits
{
};

struct LipTraits : LruEvictionBase
{
    static std::uint64_t
    insertionStamp(std::uint64_t &, Rng &, const ReplacementConfig &)
    {
        // Stamp 0 is the stack bottom: the line stays the set's next
        // victim until a demand hit touch()es it to MRU.
        return 0;
    }
};

struct BipTraits : LruEvictionBase
{
    static std::uint64_t
    insertionStamp(std::uint64_t &clock, Rng &rng,
                   const ReplacementConfig &cfg)
    {
        return rng.nextBelow(cfg.bipThrottle) == 0 ? ++clock : 0;
    }
};

} // namespace cmpmem

#endif // CMPMEM_MEM_CACHE_POLICY_HH
