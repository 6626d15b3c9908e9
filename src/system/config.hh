/**
 * @file
 * Whole-system configuration: the paper's Table 2 in one struct.
 */

#ifndef CMPMEM_SYSTEM_CONFIG_HH
#define CMPMEM_SYSTEM_CONFIG_HH

#include <cstdint>

#include "core/context.hh"
#include "core/icache_model.hh"
#include "energy/energy_params.hh"
#include "faults/fault_config.hh"
#include "mem/cache_policy.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2_cache.hh"
#include "prefetch/prefetcher.hh"
#include "sim/clock.hh"
#include "sim/types.hh"
#include "stream/dma_engine.hh"

namespace cmpmem
{

/**
 * Cache-policy descriptors (DESIGN.md §15): the replacement/
 * insertion policy of each cache level and the hardware-prefetch
 * algorithm, plus their sizing knobs. The defaults reproduce the
 * paper's fixed policy point — true LRU everywhere and the tagged
 * sequential stream prefetcher — bit-identically (pinned by the
 * baseline gates, DESIGN.md §14).
 */
struct CachePolicyConfig
{
    ReplacementPolicy l1Replacement = ReplacementPolicy::LRU;
    ReplacementPolicy l2Replacement = ReplacementPolicy::LRU;

    /** Prefetch algorithm used when hwPrefetch is on (CC model). */
    PrefetchPolicy prefetch = PrefetchPolicy::Stream;

    /** BIP: one in this many insertions goes to MRU. */
    std::uint32_t bipThrottle = 32;

    /**
     * Seed of BIP's bimodal RNG. The wiring salts it per structure
     * (core id for L1s, bank index for L2 banks), so sibling caches
     * do not make lock-step bimodal choices.
     */
    std::uint64_t policySeed = 1;

    /** Markov correlation table: rows (power of two) x successors. */
    std::uint32_t markovRows = 256;
    std::uint32_t markovSuccessors = 2;

    /** Jouppi stream buffers: count x depth in lines. */
    std::uint32_t streamBuffers = 4;
    std::uint32_t streamBufferDepth = 4;
};

/**
 * Configuration of a simulated CMP. Defaults are the bold values of
 * the paper's Table 2 (16 Tensilica-LX-like cores at 800 MHz, CC
 * model, 3.2 GB/s memory channel).
 */
struct SystemConfig
{
    int cores = 16;
    double coreClockGhz = 0.8;
    MemModel model = MemModel::CC;
    int clusterSize = 4;

    /** Hardware prefetcher (CC model; off unless stated). */
    bool hwPrefetch = false;
    std::uint32_t prefetchDepth = 4;

    /** Replacement/prefetch policy selection (DESIGN.md §15). */
    CachePolicyConfig policy;

    /** Honour non-allocating stores (PrepareForStore). */
    bool pfsEnabled = false;

    /**
     * Attach the runtime MESI invariant checker (see src/check/).
     * Off by default: with no checker attached every hook is a
     * single pointer test and simulated timing is bit-identical to
     * a build without the checker.
     */
    bool checkCoherence = false;

    /**
     * Enable the memory-access fast path's per-core line-hit micro
     * cache (DESIGN.md §13). A host-time optimization only: results
     * and stats are bit-identical either way (pinned by the golden
     * regressions in tests/test_determinism.cc), so this stays on
     * except when isolating the fast path itself.
     */
    bool memFastPath = true;

    /** First-level data storage (constant capacity across models). */
    std::uint32_t ccL1SizeBytes = 32 * 1024;
    std::uint32_t ccL1Assoc = 2;
    std::uint32_t strCacheSizeBytes = 8 * 1024;
    std::uint32_t strCacheAssoc = 2;
    std::uint32_t lsSizeBytes = 24 * 1024;
    std::uint32_t lineBytes = 32;
    std::size_t storeBufferEntries = 8;
    std::size_t mshrs = 64;

    /** Core-local/global time skew bound, in core cycles. */
    Cycles quantumCycles = 100;

    L2Config l2;
    DramConfig dram;
    InterconnectConfig net;
    DmaConfig dma;
    ICacheConfig icache;
    ContextConfig ctx;
    EnergyParams energy;

    /**
     * Deterministic fault injection (see src/faults/). Disabled by
     * default; with faults.enabled == false no injector is built and
     * timing is bit-identical to a build without the subsystem.
     */
    FaultConfig faults;

    /**
     * Liveness watchdog for simulate(). Disengaged by default (all
     * budgets zero); an engaged watchdog turns hangs and livelocks
     * into SimErrorKind::Watchdog with a machine-state diagnostic.
     */
    WatchdogConfig watchdog;

    /**
     * Event-engine calendar geometry (DESIGN.md §12/§14). The ring
     * has a fixed 1024 buckets; bucketShift sets each bucket's width
     * to 2^bucketShift ticks, so the in-window horizon is
     * 1024 << bucketShift ticks and events scheduled further out pay
     * the overflow heap (RunStats::calendarOverflows).
     *
     * autoTune closes the loop: runWorkload() first executes a
     * tuneDryRunTicks-bounded dry run under the configured geometry,
     * and when the overflow heap is hot (overflows per executed
     * event above tuneHotThreshold) widens the buckets just enough
     * to cover the worst horizon observed, then runs the real
     * simulation under the chosen geometry. Geometry never changes
     * simulated behaviour — stats are bit-identical for any shift
     * except sim.calendar_overflows (and the recorded
     * sim.calendar_bucket_shift itself).
     */
    struct EventQueueTuning
    {
        std::uint32_t bucketShift = 8;

        bool autoTune = false;

        /** Simulated-tick budget of the tuning dry run (4x the
         *  default geometry's horizon, enough to watch several
         *  window advances). */
        Tick tuneDryRunTicks = 4 * (1024u << 8);

        /** Overflows per executed event above which the geometry is
         *  considered hot and retuned. */
        double tuneHotThreshold = 0.01;
    };
    EventQueueTuning eq;

    Clock coreClock() const { return Clock::fromMhz(coreClockGhz * 1000); }

    int clusters() const
    {
        return (cores + clusterSize - 1) / clusterSize;
    }

    /** Sanity-check the configuration; throws SimErrorKind::Config. */
    void validate() const;

    /** Fill dependent fields (ctx.pfsEnabled etc.) from top-level ones. */
    void finalize();
};

} // namespace cmpmem

#endif // CMPMEM_SYSTEM_CONFIG_HH
