/**
 * @file
 * Statistical instruction-cache model.
 *
 * Each core has a 16 KB 2-way I-cache (Table 2). Simulating real
 * instruction fetch would require real binaries; instead, each
 * workload variant declares a characteristic I-cache miss rate per
 * thousand instruction bundles (see DESIGN.md substitutions). The
 * model deterministically injects that rate and charges a fixed
 * refill latency (code working sets fit in the L2 after warm-up).
 * This is sufficient to reproduce the paper's observations that
 * MPEG-2 "suffers a moderate number of instruction cache misses" and
 * that the stream-optimized code of Figure 9 notably increases them.
 */

#ifndef CMPMEM_CORE_ICACHE_MODEL_HH
#define CMPMEM_CORE_ICACHE_MODEL_HH

#include <cstdint>

#include "sim/types.hh"

namespace cmpmem
{

struct ICacheConfig
{
    Tick missLatency = 25 * ticksPerNs; ///< refill from L2
};

class ICacheModel
{
  public:
    explicit ICacheModel(const ICacheConfig &cfg);

    /** Set by the workload variant before the kernel starts. */
    void
    setMissesPerKiloInstr(double mpki)
    {
        this->mpki = mpki;
        creditPerBundle = mpki / 1000.0;
    }
    double missesPerKiloInstr() const { return mpki; }

    /**
     * Account for @p bundles issued instruction bundles. The core
     * calls this for every memory instruction and compute call, so
     * it is inline; only the miss branch is out of line.
     * @return the fetch-stall ticks to charge the core.
     */
    Tick
    accrue(std::uint64_t bundles)
    {
        numFetches += bundles;
        if (mpki <= 0.0)
            return 0;
        // double(1) * mpki / 1000.0 is exactly mpki / 1000.0
        // (multiplying by 1.0 is exact), so the single-bundle credit
        // is precomputed without moving any miss (DESIGN.md §21).
        missCredit += bundles == 1 ? creditPerBundle
                                   : double(bundles) * mpki / 1000.0;
        if (missCredit < 1.0)
            return 0;
        return takeMisses();
    }

    std::uint64_t fetches() const { return numFetches; }
    std::uint64_t misses() const { return numMisses; }

  private:
    /** Retire the whole misses in missCredit; @return their stall. */
    Tick takeMisses();

    ICacheConfig cfg;
    double mpki = 0.0;
    double creditPerBundle = 0.0; ///< mpki / 1000.0
    double missCredit = 0.0;
    std::uint64_t numFetches = 0;
    std::uint64_t numMisses = 0;
};

} // namespace cmpmem

#endif // CMPMEM_CORE_ICACHE_MODEL_HH
