/**
 * @file
 * Set-associative tag/state array with trait-dispatched replacement
 * (true LRU by default; see mem/cache_policy.hh for the policy
 * space).
 *
 * cmpmem caches carry timing and coherence *metadata* only; data
 * values live in FunctionalMemory (see functional_memory.hh for the
 * rationale). The array is shared by L1 D-caches, the streaming
 * model's small 8 KB caches, I-cache footprint modelling, and the L2.
 */

#ifndef CMPMEM_MEM_CACHE_ARRAY_HH
#define CMPMEM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/cache_policy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace cmpmem
{

/** MESI coherence states. Non-coherent caches use only I/E/M. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

inline const char *
to_string(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

/**
 * Geometry and identity of a cache array.
 *
 * Every field must be a power of two (CacheArray's constructor
 * raises SimErrorKind::Config otherwise), so sets() is exact and
 * set selection reduces to a shift and a mask.
 */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;

    std::uint32_t sets() const { return sizeBytes / (assoc * lineBytes); }
};

/**
 * The tag/state array.
 */
class CacheArray
{
  public:
    struct Line
    {
        Addr tag = 0; ///< line-aligned address of the cached block
        MesiState state = MesiState::Invalid;
        std::uint8_t flags = 0; ///< client-defined (e.g. prefetched)
        std::uint64_t lruStamp = 0;

        bool valid() const { return state != MesiState::Invalid; }
        bool dirty() const { return state == MesiState::Modified; }
    };

    /** Description of a line displaced by allocate(). */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr addr = 0;
        MesiState state = MesiState::Invalid; ///< state when displaced
    };

    explicit CacheArray(const CacheGeometry &geom,
                        const ReplacementConfig &repl = {});

    const CacheGeometry &geometry() const { return geom; }
    const ReplacementConfig &replacement() const { return repl; }

    /** Line-align an address. */
    Addr lineAddr(Addr a) const { return a & ~Addr(geom.lineBytes - 1); }

    /**
     * Find the line holding @p addr, or nullptr: a plain scan of the
     * set's ways that changes nothing. Only touch() moves recency, so
     * callers on timing paths decide whether the probe counts as a
     * use (demand access: lookup + touch) or not (snoop, checker
     * audit, test assertion: lookup alone).
     */
    const Line *lookup(Addr addr) const;

    Line *
    lookup(Addr addr)
    {
        return const_cast<Line *>(std::as_const(*this).lookup(addr));
    }

    /**
     * Mark @p line most recently used.
     *
     * Deliberately policy-agnostic: every supported replacement
     * policy (cache_policy.hh) promotes to MRU on a demand hit, so
     * the hit path — including the memory-access fast path built on
     * this inline function — never pays a policy dispatch.
     */
    void
    touch(Line &line)
    {
        static_assert(LruEvictionBase::promoteOnHit,
                      "touch() assumes hit promotion is policy-agnostic");
        line.lruStamp = ++lruClock;
    }

    /**
     * Claim a frame for @p addr, evicting a victim chosen by the
     * configured replacement policy if necessary (LRU way under
     * every supported policy). The displaced line (if any) is
     * described in @p victim. The returned line is re-tagged to
     * @p addr, left Invalid (the caller sets the state), and stamped
     * by the policy's insertion rule — MRU for LRU/MIP, stack bottom
     * for LIP, bimodal for BIP.
     *
     * @pre lookup(addr) == nullptr (no duplicate tags).
     */
    Line &allocate(Addr addr, Victim &victim);

    /** Invalidate every line (used between runs in tests). */
    void invalidateAll();

    /** Count of currently valid lines. */
    std::size_t validLines() const;

    /**
     * Invoke @p fn with the address of every Modified line and
     * downgrade it to Exclusive (clean). Used by end-of-run drains.
     * @return the number of dirty lines visited.
     */
    template <typename Fn>
    std::size_t
    forEachDirty(Fn &&fn)
    {
        std::size_t n = 0;
        for (auto &line : lines) {
            if (line.state == MesiState::Modified) {
                fn(line.tag);
                line.state = MesiState::Exclusive;
                ++n;
            }
        }
        return n;
    }

    /** Invoke @p fn with every valid line, read-only (checker audits). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &line : lines) {
            if (line.valid())
                fn(line);
        }
    }

  private:
    std::uint32_t
    setIndex(Addr addr) const
    {
        return std::uint32_t(addr >> lineShift) & setMask;
    }

    /** allocate() body, instantiated per policy trait. */
    template <typename Traits>
    Line &allocateImpl(Addr addr, Victim &victim);

    CacheGeometry geom;
    ReplacementConfig repl;
    Rng rng; ///< drawn only by BIP's bimodal insertion choice
    std::uint32_t lineShift = 0;  ///< log2(lineBytes)
    std::uint32_t setMask = 0;    ///< sets - 1
    std::uint32_t assocShift = 0; ///< log2(assoc)
    std::vector<Line> lines; ///< sets * assoc, set-major
    std::uint64_t lruClock = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_CACHE_ARRAY_HH
