#include "core/context.hh"

#include <cassert>

#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

Context::Context(Core &core, FunctionalMemory &mem, int tid, int nthreads,
                 const ContextConfig &config)
    : c(core), fmem(mem), threadId(tid), threadCount(nthreads), cfg(config)
{
}

ValueAwait<std::uint32_t>
Context::atomicFetchAdd32(Addr addr, std::int32_t delta)
{
    // Functional effect in core-issue order; see DESIGN.md on quantum
    // skew. Data-race-free kernels only reach a shared counter
    // through this path, which serializes them.
    auto old = fmem.read<std::uint32_t>(addr);
    fmem.write<std::uint32_t>(addr,
                              old + std::uint32_t(std::int64_t(delta)));
    ++c.statsMut().atomics;
    c.applySnoopStalls();
    c.advanceIssue();
    c.beginWait(StallCat::Sync);

    if (c.model() == MemModel::CC) {
        c.dcache()->atomic(c.now(), addr, c.waitCallback());
    } else {
        // Streaming model: the RMW executes at the shared L2's
        // atomic unit.
        CoherenceFabric *fab = c.fabric();
        Tick done = fab->remoteAtomic(c.now(), fab->clusterOf(c.id()),
                                      c.dcache()->tags().lineAddr(addr));
        c.finishWait(done);
    }
    return {&c, old};
}

OpAwait
Context::prefetchBlock(Addr addr, std::uint32_t bytes)
{
    const CacheArray &tags = c.dcache()->tags();
    const Addr line = tags.geometry().lineBytes;
    Addr last = tags.lineAddr(addr + bytes - 1);
    for (Addr a = tags.lineAddr(addr); a <= last; a += line) {
        c.advanceIssue();
        c.dcache()->softwarePrefetch(c.now(), a);
    }
    return settle();
}

OpAwait
Context::barrier(Barrier &b)
{
    ++c.statsMut().barriers;
    c.applySnoopStalls();
    c.advanceIssue(); // the arrival store
    c.beginWait(StallCat::Sync);
    Tick release = 0;
    if (b.arrive(c.now(), c.waitCallback(), release)) {
        // Last arriver also waits for the release broadcast.
        c.finishWait(release);
    }
    return {&c};
}

Co<void>
Context::lockAcquire(Lock &l)
{
    // The lock word itself bounces through the memory system: charge
    // an atomic RMW, then park on the modelled queue if held.
    co_await atomicFetchAdd32(l.lineAddr(), 0);
    c.beginWait(StallCat::Sync);
    if (!l.tryAcquire(c.now(), c.waitCallback()))
        co_await OpAwait{&c};
}

Co<void>
Context::lockRelease(Lock &l)
{
    co_await store<std::uint32_t>(l.lineAddr(), 0);
    l.release(c.now());
}

Co<std::int64_t>
Context::nextTask(Addr counter_addr, std::uint64_t limit)
{
    std::uint32_t idx = co_await atomicFetchAdd32(counter_addr, 1);
    if (std::uint64_t(idx) >= limit)
        co_return -1;
    co_return std::int64_t(idx);
}

void
Context::requireDma() const
{
    if (!c.dma())
        throwSimError(SimErrorKind::Model,
                      "DMA used on a core without a DMA engine "
                      "(cache-based model kernels must not issue DMA "
                      "commands)");
}

void
Context::throwNoLocalStore() const
{
    throwSimError(SimErrorKind::Model,
                  "local store used on core %d, which has none "
                  "(cache-based model kernels must not call lsRead or "
                  "lsWrite)",
                  c.id());
}

template <typename Issue>
ValueAwait<Context::Ticket>
Context::dmaCommand(Cycles staging, Issue issue)
{
    requireDma();
    ++c.statsMut().dmaCommands;
    c.advanceUseful(cfg.dmaCommandCycles + staging);
    Ticket tk = issue(*c.dma(), c.now());
    return {settle().core, tk};
}

ValueAwait<Context::Ticket>
Context::dmaGet(Addr mem_addr, std::uint32_t ls_off, std::uint32_t bytes)
{
    return dmaGetStrided(mem_addr, 0, bytes, 1, ls_off);
}

ValueAwait<Context::Ticket>
Context::dmaPut(Addr mem_addr, std::uint32_t ls_off, std::uint32_t bytes)
{
    return dmaPutStrided(mem_addr, 0, bytes, 1, ls_off);
}

ValueAwait<Context::Ticket>
Context::dmaGetStrided(Addr mem_base, std::uint64_t mem_stride,
                       std::uint32_t row_bytes, std::uint32_t rows,
                       std::uint32_t ls_off)
{
    return dmaCommand(0, [&](DmaEngine &dma, Tick t) {
        return dma.strided(t, DmaEngine::Dir::Get, mem_base, mem_stride,
                           row_bytes, rows, ls_off);
    });
}

ValueAwait<Context::Ticket>
Context::dmaPutStrided(Addr mem_base, std::uint64_t mem_stride,
                       std::uint32_t row_bytes, std::uint32_t rows,
                       std::uint32_t ls_off)
{
    return dmaCommand(0, [&](DmaEngine &dma, Tick t) {
        return dma.strided(t, DmaEngine::Dir::Put, mem_base, mem_stride,
                           row_bytes, rows, ls_off);
    });
}

ValueAwait<Context::Ticket>
Context::dmaGetIndexed(const std::vector<Addr> &addrs,
                       std::uint32_t elem_bytes, std::uint32_t ls_off)
{
    return dmaCommand(Cycles(addrs.size()), [&](DmaEngine &dma, Tick t) {
        return dma.indexed(t, DmaEngine::Dir::Get, addrs, elem_bytes,
                           ls_off);
    });
}

ValueAwait<Context::Ticket>
Context::dmaPutIndexed(const std::vector<Addr> &addrs,
                       std::uint32_t elem_bytes, std::uint32_t ls_off)
{
    return dmaCommand(Cycles(addrs.size()), [&](DmaEngine &dma, Tick t) {
        return dma.indexed(t, DmaEngine::Dir::Put, addrs, elem_bytes,
                           ls_off);
    });
}

OpAwait
Context::dmaWait(Ticket tk)
{
    if (!c.dma())
        throwSimError(SimErrorKind::Model,
                      "dmaWait() used on a core without a DMA engine "
                      "(cache-based model)");
    return waitUntil(c.dma()->completionTick(tk), StallCat::Sync);
}

OpAwait
Context::dmaWaitAll()
{
    // A no-op on the cache-based model so that kernels shared
    // between models can end with an unconditional drain.
    if (!c.dma())
        return settle();
    return waitUntil(c.dma()->allDoneTick(), StallCat::Sync);
}

} // namespace cmpmem
