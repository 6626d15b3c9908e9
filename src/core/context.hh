/**
 * @file
 * The kernel-facing execution context: the public API workload code
 * uses to interact with the simulated machine.
 *
 * Kernels are C++20 coroutines (KernelTask / Co<T>); every simulated
 * operation is a co_await on one of the methods below:
 *
 *   co_await ctx.compute(5);                 // 5 instruction bundles
 *   int v = co_await ctx.load<int>(a);       // timed global load
 *   co_await ctx.store<int>(a, v);           // timed global store
 *   co_await ctx.storeNA<int>(a, v);         // output-only store
 *   int idx = co_await ctx.atomicFetchAdd32(q, 1);
 *   co_await ctx.barrier(bar);
 *   co_await ctx.lockAcquire(lk); ... co_await ctx.lockRelease(lk);
 *
 * Streaming-model kernels additionally use the local store and DMA:
 *
 *   auto tk = co_await ctx.dmaGet(mem, lsOff, bytes);
 *   co_await ctx.dmaWait(tk);
 *   float x = co_await ctx.lsRead<float>(off);
 *
 * Loads return real values (functional memory), so kernels are real
 * algorithms and their outputs can be verified.
 */

#ifndef CMPMEM_CORE_CONTEXT_HH
#define CMPMEM_CORE_CONTEXT_HH

#include <coroutine>
#include <cstdint>

#include "core/core.hh"
#include "core/sync.hh"
#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "sim/task.hh"
#include "sim/types.hh"
#include "stream/dma_engine.hh"
#include "stream/local_store.hh"

namespace cmpmem
{

/** Knobs affecting kernel-visible behaviour. */
struct ContextConfig
{
    /** Honour storeNA() as a non-allocating PFS store. */
    bool pfsEnabled = false;

    /** Instruction-bundle overhead charged per DMA command. */
    Cycles dmaCommandCycles = 6;
};

/** Awaitable for operations without a result value. */
struct OpAwait
{
    Core *core = nullptr; ///< non-null: the kernel must suspend

    bool await_ready() const noexcept { return core == nullptr; }

    void
    await_suspend(std::coroutine_handle<> h) const noexcept
    {
        core->noteSuspended(h);
    }

    void await_resume() const noexcept {}
};

/** Awaitable carrying a value computed at issue. */
template <typename T>
struct ValueAwait
{
    Core *core = nullptr;
    T value{};

    bool await_ready() const noexcept { return core == nullptr; }

    void
    await_suspend(std::coroutine_handle<> h) const noexcept
    {
        core->noteSuspended(h);
    }

    T await_resume() const noexcept { return value; }
};

class Context
{
  public:
    Context(Core &core, FunctionalMemory &mem, int tid, int nthreads,
            const ContextConfig &cfg);

    int tid() const { return threadId; }
    int nthreads() const { return threadCount; }
    MemModel model() const { return c.model(); }
    Tick now() const { return c.now(); }

    /** Untimed functional memory (setup/verification only). */
    FunctionalMemory &mem() { return fmem; }

    /** Local-store capacity in bytes (0 on the cache-based model). */
    std::uint32_t
    lsCapacity() const
    {
        return c.localStore() ? c.localStore()->size() : 0;
    }

    //
    // Compute.
    //

    /** Issue @p c fully packed integer instruction bundles. */
    OpAwait
    compute(Cycles cycles)
    {
        c.advanceUseful(cycles);
        return settle();
    }

    /** Issue @p c bundles dominated by floating-point slots. */
    OpAwait
    computeFp(Cycles cycles)
    {
        c.statsMut().fpBundles += cycles;
        c.advanceUseful(cycles);
        return settle();
    }

    //
    // Global (cached) memory.
    //

    template <typename T>
    ValueAwait<T>
    load(Addr addr)
    {
        static_assert(sizeof(T) <= 8, "one load moves at most 8 bytes");
        T value = fmem.read<T>(addr);
        ++c.statsMut().loads;
        c.applySnoopStalls();
        c.advanceIssue();
        // Micro path: a repeat hit to the last line skips the full
        // controller probe and the wait-callback construction. The
        // probe itself performs the hit accounting (DESIGN.md §13).
        if (c.dcache()->microLoad(addr))
            return {settle().core, value};
        c.beginWait(StallCat::Load);
        bool hit = c.dcache()->load(c.now(), addr, c.waitCallback());
        if (hit)
            return {settle().core, value};
        return {&c, value};
    }

    template <typename T>
    OpAwait
    store(Addr addr, T value)
    {
        return storeImpl(addr, value, false);
    }

    /**
     * Store to output-only data: when the configuration enables PFS
     * ("Prepare For Store"), a miss allocates and validates the
     * cache line without reading the old values from memory.
     */
    template <typename T>
    OpAwait
    storeNA(Addr addr, T value)
    {
        return storeImpl(addr, value, cfg.pfsEnabled);
    }

    /** Atomic 32-bit fetch-and-add; the paper's sync building block. */
    ValueAwait<std::uint32_t> atomicFetchAdd32(Addr addr,
                                               std::int32_t delta);

    /**
     * Hybrid bulk prefetch (Section 7: "bulk transfer primitives for
     * cache-based systems could enable more efficient macroscopic
     * prefetching"): request every line of [addr, addr+bytes) into
     * this core's cache, fire-and-forget. Costs one issue bundle per
     * line of the core's L1 geometry. On the streaming model it
     * prefetches into the core's small cache in the same way (use
     * DMA for the local store).
     */
    OpAwait prefetchBlock(Addr addr, std::uint32_t bytes);

    //
    // Synchronization.
    //

    OpAwait barrier(Barrier &b);
    Co<void> lockAcquire(Lock &l);
    Co<void> lockRelease(Lock &l);

    /**
     * Task-queue helper: returns the next index below @p limit from
     * the shared counter at @p counter_addr, or a negative value
     * when the queue is exhausted.
     */
    Co<std::int64_t> nextTask(Addr counter_addr, std::uint64_t limit);

    //
    // Streaming: local store + DMA (valid only when model()==STR).
    //

    template <typename T>
    ValueAwait<T>
    lsRead(std::uint32_t offset)
    {
        LocalStore *ls = c.localStore();
        if (!ls)
            throwNoLocalStore();
        ++c.statsMut().lsReads;
        T v = ls->read<T>(offset);
        c.advanceIssue();
        return {settle().core, v};
    }

    template <typename T>
    OpAwait
    lsWrite(std::uint32_t offset, T value)
    {
        LocalStore *ls = c.localStore();
        if (!ls)
            throwNoLocalStore();
        ++c.statsMut().lsWrites;
        ls->write<T>(offset, value);
        c.advanceIssue();
        return settle();
    }

    using Ticket = DmaEngine::Ticket;

    ValueAwait<Ticket> dmaGet(Addr mem_addr, std::uint32_t ls_off,
                              std::uint32_t bytes);
    ValueAwait<Ticket> dmaPut(Addr mem_addr, std::uint32_t ls_off,
                              std::uint32_t bytes);
    ValueAwait<Ticket> dmaGetStrided(Addr mem_base,
                                     std::uint64_t mem_stride,
                                     std::uint32_t row_bytes,
                                     std::uint32_t rows,
                                     std::uint32_t ls_off);
    ValueAwait<Ticket> dmaPutStrided(Addr mem_base,
                                     std::uint64_t mem_stride,
                                     std::uint32_t row_bytes,
                                     std::uint32_t rows,
                                     std::uint32_t ls_off);
    ValueAwait<Ticket> dmaGetIndexed(const std::vector<Addr> &addrs,
                                     std::uint32_t elem_bytes,
                                     std::uint32_t ls_off);
    ValueAwait<Ticket> dmaPutIndexed(const std::vector<Addr> &addrs,
                                     std::uint32_t elem_bytes,
                                     std::uint32_t ls_off);

    /** Block until DMA command @p tk has completed (Sync time). */
    OpAwait dmaWait(Ticket tk);

    /** Block until every DMA command issued so far has completed. */
    OpAwait dmaWaitAll();

    Core &core() { return c; }

  private:
    /** SimErrorKind::Model unless this core has a DMA engine (STR). */
    void requireDma() const;

    /**
     * Shared body of the dma* commands: count and charge the command,
     * plus @p staging bundles (indexed transfers pay one per element
     * to stage the address list), then @return issue(engine, now()).
     */
    template <typename Issue>
    ValueAwait<Ticket> dmaCommand(Cycles staging, Issue issue);

    /** lsRead/lsWrite on a core without a local store (CC model). */
    [[noreturn]] void throwNoLocalStore() const;

    /** Quantum check shared by every inline-completing operation. */
    OpAwait
    settle()
    {
        if (c.needsQuantumFlush()) {
            c.armQuantumFlush();
            return {&c};
        }
        return {};
    }

    template <typename T>
    OpAwait
    storeImpl(Addr addr, T value, bool pfs)
    {
        static_assert(sizeof(T) <= 8, "one store moves at most 8 bytes");
        fmem.write(addr, value);
        ++c.statsMut().stores;
        c.applySnoopStalls();
        c.advanceIssue();
        // Micro path: a repeat store to the last line, held Modified,
        // retires with the same accounting as the full hit path.
        if (c.dcache()->microStore(c.now(), addr))
            return settle();
        c.beginWait(StallCat::Store);
        bool ok = c.dcache()->store(c.now(), addr, pfs, c.waitCallback());
        if (ok)
            return settle();
        return {&c};
    }

    /** Block until @p when, charging the wait to @p cat. */
    OpAwait
    waitUntil(Tick when, StallCat cat)
    {
        if (when <= c.now())
            return settle();
        c.beginWait(cat);
        c.finishWait(when);
        return {&c};
    }

    Core &c;
    FunctionalMemory &fmem;
    int threadId;
    int threadCount;
    ContextConfig cfg;
};

} // namespace cmpmem

#endif // CMPMEM_CORE_CONTEXT_HH
