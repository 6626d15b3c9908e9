/**
 * @file
 * The in-order processor core timing model.
 *
 * Models a Tensilica-LX-like 3-way VLIW in-order core at the level
 * the paper's comparison needs: one instruction bundle per cycle
 * with at most one load/store slot, blocking on load misses, a
 * store buffer that lets loads bypass store misses (weak
 * consistency), and precise accounting of execution time into the
 * paper's four categories: Useful (execution + fetch + non-memory
 * pipeline stalls), Sync (locks, barriers, DMA waits), Load stalls,
 * and Store stalls (store-buffer-full time).
 *
 * Cores advance a local clock; L1 hits and compute never touch the
 * event queue. A core re-synchronizes with global time whenever it
 * blocks, and at least every quantum cycles, bounding timing skew.
 */

#ifndef CMPMEM_CORE_CORE_HH
#define CMPMEM_CORE_CORE_HH

#include <coroutine>
#include <cstdint>
#include <functional>

#include "core/icache_model.hh"
#include "sim/callback.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace cmpmem
{

class L1Controller;
class DmaEngine;
class LocalStore;
class CoherenceFabric;

/** Execution-time categories of the paper's Figure 2 breakdown. */
enum class StallCat : std::uint8_t
{
    Useful,
    Sync,
    Load,
    Store,
};

/** Per-core statistics. */
struct CoreStats
{
    Tick usefulTicks = 0;
    Tick syncTicks = 0;
    Tick loadStallTicks = 0;
    Tick storeStallTicks = 0;

    std::uint64_t bundles = 0; ///< instruction bundles issued
    std::uint64_t fpBundles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t lsReads = 0;
    std::uint64_t lsWrites = 0;
    std::uint64_t dmaCommands = 0;
    std::uint64_t barriers = 0;

    Tick totalTicks() const
    {
        return usefulTicks + syncTicks + loadStallTicks + storeStallTicks;
    }

    std::uint64_t
    instructions() const
    {
        return bundles + loads + stores + atomics + lsReads + lsWrites;
    }
};

/**
 * One simulated core.
 */
class Core
{
  public:
    Core(int id, EventQueue &eq, Clock clock, MemModel model,
         L1Controller *dcache, ICacheModel icache, LocalStore *ls,
         DmaEngine *dma, CoherenceFabric *fabric,
         Cycles quantum_cycles = 100);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Attach the kernel coroutine; start() schedules the launch. */
    void bindKernel(KernelTask task);
    void start();

    bool finished() const { return isFinished; }
    Tick finishTick() const { return finishedAt; }

    /** Invoked once when the kernel runs to completion. */
    void onFinish(std::function<void()> cb) { finishCb = std::move(cb); }

    int id() const { return coreId; }
    MemModel model() const { return memModel; }
    Tick now() const { return curTick; }
    const Clock &clock() const { return clk; }
    EventQueue &eventQueue() { return eq; }

    L1Controller *dcache() { return dcachePtr; }
    LocalStore *localStore() { return lsPtr; }
    DmaEngine *dma() { return dmaPtr; }
    CoherenceFabric *fabric() { return fabricPtr; }
    ICacheModel &icache() { return icacheModel; }
    const ICacheModel &icache() const { return icacheModel; }

    const CoreStats &stats() const { return st; }
    CoreStats &statsMut() { return st; }

    //
    // Methods below are the contract with Context awaitables.
    //

    /** Advance local time by @p c cycles of Useful work. */
    void
    advanceUseful(Cycles c)
    {
        st.bundles += c;
        advanceUsefulTicks(clk.cyclesToTicks(c));
        // Instruction fetch: statistical I-cache misses count as
        // Useful time per the paper's breakdown definition.
        advanceUsefulTicks(icacheModel.accrue(c));
    }

    /**
     * Charge the issue cycle of one memory instruction (a bundle
     * with the load/store slot occupied).
     */
    void
    advanceIssue()
    {
        advanceUsefulTicks(clk.period());
        advanceUsefulTicks(icacheModel.accrue(1));
    }

    /** Charge @p t ticks of Useful time (icache stalls etc.). */
    void
    advanceUsefulTicks(Tick t)
    {
        curTick += t;
        st.usefulTicks += t;
    }

    /** Consume pending snoop-occupancy stalls from the D-cache. */
    void applySnoopStalls();

    /** Does local time exceed global time by more than the quantum? */
    bool
    needsQuantumFlush() const
    {
        return curTick > eq.now() + quantumTicks;
    }

    /**
     * Record that the kernel is about to suspend waiting for an
     * event classified as @p cat, issued at the current local time.
     */
    void beginWait(StallCat cat);

    /**
     * Completion callback target: schedules the kernel's resumption
     * at @p when (>= current global time) and charges the wait to
     * the category captured by beginWait().
     */
    void finishWait(Tick when);

    /** A reusable completion callback bound to finishWait(). */
    TickCallback waitCallback();

    /** Arm a plain quantum-flush resume at the current local time. */
    void armQuantumFlush();

    /** Stash the suspension point (called from await_suspend). */
    void noteSuspended(std::coroutine_handle<> h) { suspendedAt = h; }

  private:
    void resumeKernel(Tick when);

    /**
     * The one kernel-resume event: advance the local clock to @p at,
     * resume the parked coroutine, and reap it if it finished. Both
     * quantum flushes and wait completions schedule through here.
     */
    void scheduleResume(Tick at);

    void launch();
    void checkDone();

    int coreId;
    EventQueue &eq;
    Clock clk;
    MemModel memModel;
    L1Controller *dcachePtr;
    ICacheModel icacheModel;
    LocalStore *lsPtr;
    DmaEngine *dmaPtr;
    CoherenceFabric *fabricPtr;
    Tick quantumTicks;

    KernelTask task;
    std::coroutine_handle<> suspendedAt;
    Tick curTick = 0;

    StallCat pendingCat = StallCat::Useful;
    Tick pendingIssue = 0;

    bool isFinished = false;
    Tick finishedAt = 0;
    std::function<void()> finishCb;

    CoreStats st;
};

} // namespace cmpmem

#endif // CMPMEM_CORE_CORE_HH
