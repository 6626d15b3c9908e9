/**
 * @file
 * CmpSystem assembles the full simulated chip of Figure 1 for either
 * memory model and runs kernels to completion.
 */

#ifndef CMPMEM_SYSTEM_CMP_SYSTEM_HH
#define CMPMEM_SYSTEM_CMP_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/coherence_checker.hh"
#include "core/context.hh"
#include "core/core.hh"
#include "faults/fault_injector.hh"
#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "mem/l2_cache.hh"
#include "prefetch/prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "system/config.hh"

namespace cmpmem
{

/** Everything measured in one simulation run. */
struct RunStats
{
    std::string workload;
    std::string variant;
    SystemConfig config;

    Tick execTicks = 0; ///< last core's finish tick

    /** Aggregates over all cores. */
    CoreStats coreTotal;
    std::vector<CoreStats> perCore;

    L1Counters l1Total;
    std::uint64_t icacheFetches = 0;
    std::uint64_t icacheMisses = 0;

    std::uint64_t lsReads = 0;
    std::uint64_t lsWrites = 0;
    std::uint64_t dmaAccesses = 0;
    std::uint64_t dmaBytesRead = 0;
    std::uint64_t dmaBytesWritten = 0;

    FabricCounters fabric;
    std::uint64_t busBytes = 0;
    std::uint64_t xbarBytes = 0;

    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2RefillsAvoided = 0;

    std::uint64_t dramReadBytes = 0;
    std::uint64_t dramWriteBytes = 0;
    Tick dramBusyTicks = 0;
    std::uint64_t dramRowHits = 0;   ///< bank model only, else 0
    std::uint64_t dramRowMisses = 0; ///< bank model only, else 0

    /** Runtime MESI checker results (zero when not attached). */
    std::uint64_t checkerViolations = 0;
    std::uint64_t checkerEvents = 0;

    /** Fault-injection outcomes (all zero when faults are disabled). */
    FaultStats faults;

    /**
     * Host-throughput telemetry from the event engine. All three are
     * pure functions of the deterministic event stream (no host
     * timing), so they compare bit-identically across runs; the
     * nondeterministic events/sec figure lives next to host_seconds
     * in the bench JSON instead.
     */
    std::uint64_t eventsExecuted = 0;
    std::uint64_t peakPendingEvents = 0;
    std::uint64_t calendarOverflows = 0;

    /**
     * Calendar-queue geometry the run executed under (the log2 tick
     * width of one ring bucket). Recorded so artifacts and the
     * bench_compare gate see which geometry — configured or
     * auto-tuned — produced the numbers.
     */
    std::uint64_t calendarBucketShift = 0;

    /**
     * Miss-path host allocations (DESIGN.md §18): growth of the MSHR
     * waiter pools past their construction-time reservation, summed
     * over all L1s. Host-side only (never enters toStatSet()). DMA
     * commands copy in place and never allocate, so steady state
     * reads 0.
     */
    std::uint64_t missPathAllocs = 0;

    double execSeconds() const
    {
        return double(execTicks) / double(ticksPerSec);
    }

    double l1MissRate() const
    {
        auto acc = l1Total.demandAccesses();
        return acc ? double(l1Total.demandMisses()) / double(acc) : 0.0;
    }

    double l2MissRate() const
    {
        auto acc = l2Hits + l2Misses;
        return acc ? double(l2Misses) / double(acc) : 0.0;
    }

    double offChipBytesPerSec() const
    {
        double s = execSeconds();
        return s > 0 ? double(dramReadBytes + dramWriteBytes) / s : 0.0;
    }

    /** Flatten into a StatSet for generic reporting. */
    StatSet toStatSet() const;
};

// The counter lists of RunStats and its member structs, in declaration
// order. Their names are the keys of the sandbox/journal codec
// (harness/supervisor.hh); toStatSet() keeps its own names, which every
// golden digest hashes.

inline constexpr Field<CoreStats> kCoreStatsFields[] = {
    {"useful_ticks", &CoreStats::usefulTicks},
    {"sync_ticks", &CoreStats::syncTicks},
    {"load_stall_ticks", &CoreStats::loadStallTicks},
    {"store_stall_ticks", &CoreStats::storeStallTicks},
    {"bundles", &CoreStats::bundles},
    {"fp_bundles", &CoreStats::fpBundles},
    {"loads", &CoreStats::loads},
    {"stores", &CoreStats::stores},
    {"atomics", &CoreStats::atomics},
    {"ls_reads", &CoreStats::lsReads},
    {"ls_writes", &CoreStats::lsWrites},
    {"dma_commands", &CoreStats::dmaCommands},
    {"barriers", &CoreStats::barriers},
};
static_assert(coversEveryMember(kCoreStatsFields));

inline constexpr Field<L1Counters> kL1CounterFields[] = {
    {"load_hits", &L1Counters::loadHits},
    {"load_misses", &L1Counters::loadMisses},
    {"store_hits", &L1Counters::storeHits},
    {"store_misses", &L1Counters::storeMisses},
    {"store_merged", &L1Counters::storeMerged},
    {"pfs_stores", &L1Counters::pfsStores},
    {"atomic_ops", &L1Counters::atomicOps},
    {"writebacks", &L1Counters::writebacks},
    {"fills", &L1Counters::fills},
    {"snoops_received", &L1Counters::snoopsReceived},
    {"invalidations_received", &L1Counters::invalidationsReceived},
    {"supplies_provided", &L1Counters::suppliesProvided},
    {"prefetches_issued", &L1Counters::prefetchesIssued},
    {"prefetches_useful", &L1Counters::prefetchesUseful},
    {"fastpath_hits", &L1Counters::fastpathHits},
};
static_assert(coversEveryMember(kL1CounterFields));

inline constexpr Field<FabricCounters> kFabricCounterFields[] = {
    {"cluster_requests", &FabricCounters::clusterRequests},
    {"global_requests", &FabricCounters::globalRequests},
    {"snoop_probes", &FabricCounters::snoopProbes},
    {"local_supplies", &FabricCounters::localSupplies},
    {"remote_supplies", &FabricCounters::remoteSupplies},
    {"upgrades", &FabricCounters::upgrades},
    {"writebacks", &FabricCounters::writebacks},
    {"uncore_reads", &FabricCounters::uncoreReads},
    {"uncore_writes", &FabricCounters::uncoreWrites},
    {"remote_atomics", &FabricCounters::remoteAtomics},
};
static_assert(coversEveryMember(kFabricCounterFields));

inline constexpr Field<FaultStats> kFaultStatsFields[] = {
    {"dram_flips", &FaultStats::dramFlips},
    {"ecc_corrected", &FaultStats::eccCorrected},
    {"ecc_detected", &FaultStats::eccDetected},
    {"net_nacks", &FaultStats::netNacks},
    {"net_retries", &FaultStats::netRetries},
    {"dma_faults", &FaultStats::dmaFaults},
    {"dma_retries", &FaultStats::dmaRetries},
};
static_assert(coversEveryMember(kFaultStatsFields));

/**
 * RunStats' own integer counters. The struct also holds strings, the
 * config and the member structs above, so no size check can pin this
 * list; a new scalar counter needs its entry here.
 */
inline constexpr Field<RunStats> kRunStatsScalarFields[] = {
    {"exec_ticks", &RunStats::execTicks},
    {"icache_fetches", &RunStats::icacheFetches},
    {"icache_misses", &RunStats::icacheMisses},
    {"ls_reads", &RunStats::lsReads},
    {"ls_writes", &RunStats::lsWrites},
    {"dma_accesses", &RunStats::dmaAccesses},
    {"dma_bytes_read", &RunStats::dmaBytesRead},
    {"dma_bytes_written", &RunStats::dmaBytesWritten},
    {"bus_bytes", &RunStats::busBytes},
    {"xbar_bytes", &RunStats::xbarBytes},
    {"l2_hits", &RunStats::l2Hits},
    {"l2_misses", &RunStats::l2Misses},
    {"l2_refills_avoided", &RunStats::l2RefillsAvoided},
    {"dram_read_bytes", &RunStats::dramReadBytes},
    {"dram_write_bytes", &RunStats::dramWriteBytes},
    {"dram_busy_ticks", &RunStats::dramBusyTicks},
    {"dram_row_hits", &RunStats::dramRowHits},
    {"dram_row_misses", &RunStats::dramRowMisses},
    {"checker_violations", &RunStats::checkerViolations},
    {"checker_events", &RunStats::checkerEvents},
    {"events_executed", &RunStats::eventsExecuted},
    {"peak_pending_events", &RunStats::peakPendingEvents},
    {"calendar_overflows", &RunStats::calendarOverflows},
    {"calendar_bucket_shift", &RunStats::calendarBucketShift},
    {"miss_path_allocs", &RunStats::missPathAllocs},
};

/**
 * The simulated chip multiprocessor.
 */
class CmpSystem
{
  public:
    explicit CmpSystem(const SystemConfig &cfg);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    const SystemConfig &config() const { return cfg; }
    int cores() const { return cfg.cores; }

    EventQueue &eventQueue() { return eq; }
    FunctionalMemory &mem() { return fmem; }
    Core &core(int i) { return *coreVec.at(i); }
    Context &context(int i) { return *ctxVec.at(i); }
    CoherenceFabric &fabric() { return *fab; }
    L2Cache &l2() { return *l2cache; }
    DramChannel &dram() { return *dramChannel; }

    /** The runtime MESI checker (null unless cfg.checkCoherence). */
    CoherenceChecker *checker() { return check.get(); }
    const CoherenceChecker *checker() const { return check.get(); }

    /** The fault injector (null unless cfg.faults.enabled). */
    FaultInjector *faultInjector() { return faultInj.get(); }
    const FaultInjector *faultInjector() const { return faultInj.get(); }

    /** Attach core @p i's kernel coroutine. */
    void bindKernel(int i, KernelTask task);

    /**
     * Tuning dry run: start the cores and execute events up to
     * simulated tick @p max_ticks, with no drain epilogue, no
     * deadlock check, and no watchdog — the machine is abandoned
     * where it stands (safe: the whole system, suspended kernels
     * included, is torn down by the destructor). Used by the
     * calendar-geometry auto-tuner to sample a workload's scheduling
     * horizons cheaply; read the telemetry off eventQueue().
     */
    Tick dryRun(Tick max_ticks);

    /**
     * Run every bound kernel to completion, then drain dirty cache
     * state for traffic accounting.
     *
     * When cfg.watchdog is engaged the run is guarded: exceeding the
     * tick/host-time budget or stalling forward progress raises
     * SimErrorKind::Watchdog carrying dumpDiagnostics(); a drained
     * queue with unfinished cores raises SimErrorKind::Deadlock. With
     * the watchdog disengaged, guarded and unguarded runs are
     * bit-identical.
     *
     * @return the finish tick of the slowest core.
     */
    Tick simulate();

    /** Gather all counters (call after simulate()). */
    RunStats collectStats() const;

    /**
     * One-stop machine-state dump for hang triage: event-queue
     * summary, per-core progress/stall state, and every Diagnosable
     * component (L1s, L2, fabric, DMA engines). Side-effect free.
     */
    std::string dumpDiagnostics() const;

  private:
    SystemConfig cfg;
    EventQueue eq;
    FunctionalMemory fmem;
    std::unique_ptr<DramChannel> dramChannel;
    std::unique_ptr<L2Cache> l2cache;
    std::unique_ptr<CoherenceFabric> fab;
    std::unique_ptr<CoherenceChecker> check;
    std::unique_ptr<FaultInjector> faultInj;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    std::vector<std::unique_ptr<L1Controller>> l1Vec;
    std::vector<std::unique_ptr<LocalStore>> lsVec;
    std::vector<std::unique_ptr<DmaEngine>> dmaVec;
    std::vector<std::unique_ptr<Core>> coreVec;
    std::vector<std::unique_ptr<Context>> ctxVec;
    int finishedCores = 0;
};

} // namespace cmpmem

#endif // CMPMEM_SYSTEM_CMP_SYSTEM_HH
