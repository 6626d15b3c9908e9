#include "stream/dma_engine.hh"

#include <algorithm>
#include <cassert>
#include <span>

#include "faults/fault_injector.hh"
#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "stream/local_store.hh"

namespace cmpmem
{

DmaEngine::DmaEngine(int core_id, const DmaConfig &config,
                     CoherenceFabric &coherence_fabric,
                     FunctionalMemory &memory, LocalStore &local_store)
    : coreId(core_id),
      cfg(config),
      fabric(coherence_fabric),
      mem(memory),
      ls(local_store),
      inFlight(std::max<std::size_t>(1, config.maxOutstanding), 0),
      ticketDone(kTicketWindow, 0)
{
}

Tick
DmaEngine::issueSlot(Tick earliest)
{
    // The engine issues one access per issueOverhead; at most
    // maxOutstanding accesses are in flight at once (retire the
    // oldest when the ring is full). A limit of 0 behaves as 1.
    Tick start = std::max(earliest, engineFree);
    if (inFlightCount == inFlight.size()) {
        start = std::max(start, inFlight[inFlightHead]);
        if (++inFlightHead == inFlight.size())
            inFlightHead = 0;
        --inFlightCount;
    }
    engineFree = start + cfg.issueOverhead;
    return start;
}

template <typename MemAt>
DmaEngine::Ticket
DmaEngine::transfer(Tick t, Dir dir, std::size_t n,
                    std::uint32_t chunk_bytes, std::uint32_t ls_off,
                    MemAt mem_at)
{
    const bool is_get = (dir == Dir::Get);
    const int cluster = fabric.clusterOf(coreId);
    const std::uint32_t line = cfg.accessBytes;
    Tick done = t;

    for (std::size_t i = 0; i < n; ++i) {
        // Split the chunk into line-granule accesses. The uncore
        // moves whole granules; partial granules still occupy a full
        // granule slot (the block-transfer inefficiency of strided
        // access the paper discusses).
        const Addr chunk_mem = mem_at(i);
        Addr a = chunk_mem;
        std::uint32_t remaining = chunk_bytes;
        while (remaining > 0) {
            Addr line_addr = a & ~Addr(line - 1);
            std::uint32_t in_line =
                std::min<std::uint32_t>(remaining,
                                        line - std::uint32_t(a - line_addr));
            Tick start = issueSlot(t);
            Tick comp;
            bool full = (in_line == line);
            for (int attempt = 1;; ++attempt) {
                if (is_get) {
                    comp = fabric.uncoreRead(start, cluster, line_addr,
                                             line);
                    stats.bytesRead += line;
                } else {
                    comp = fabric.uncoreWrite(start, cluster, line_addr,
                                              line, full);
                    stats.bytesWritten += line;
                }
                ++stats.accesses;
                if (!faults || !faults->dmaFault())
                    break;
                if (attempt >= faults->config().dmaMaxRetries) {
                    throwSimError(SimErrorKind::Fault,
                                  "DMA %s at 0x%llx on core %d still "
                                  "failing after %d attempts",
                                  is_get ? "get" : "put",
                                  (unsigned long long)line_addr, coreId,
                                  attempt);
                }
                faults->noteDmaRetry();
                start = comp + faults->dmaBackoff(attempt);
            }
            std::size_t slot = inFlightHead + inFlightCount;
            if (slot >= inFlight.size())
                slot -= inFlight.size();
            inFlight[slot] = comp;
            ++inFlightCount;
            done = std::max(done, comp);

            a += in_line;
            remaining -= in_line;
        }

        // Functional copy, in issue order (see file comment).
        std::span<std::uint8_t> local =
            ls.span(ls_off + std::uint32_t(i) * chunk_bytes, chunk_bytes);
        if (is_get)
            mem.read(chunk_mem, local.data(), local.size());
        else
            mem.write(chunk_mem, local.data(), local.size());
    }

    Ticket tk = ticketNext++;
    ++stats.commands;
    ticketDone[tk % kTicketWindow] = done;
    lastCompletion = std::max(lastCompletion, done);
    return tk;
}

DmaEngine::Ticket
DmaEngine::strided(Tick t, Dir dir, Addr mem_base, std::uint64_t mem_stride,
                   std::uint32_t row_bytes, std::uint32_t rows,
                   std::uint32_t ls_off)
{
    return transfer(t, dir, rows, row_bytes, ls_off, [&](std::size_t r) {
        return mem_base + Addr(r) * mem_stride;
    });
}

DmaEngine::Ticket
DmaEngine::indexed(Tick t, Dir dir, const std::vector<Addr> &addrs,
                   std::uint32_t elem_bytes, std::uint32_t ls_off)
{
    return transfer(t, dir, addrs.size(), elem_bytes, ls_off,
                    [&](std::size_t i) { return addrs[i]; });
}

Tick
DmaEngine::completionTick(Ticket ticket) const
{
    assert(ticket < ticketNext);
    if (ticket + kTicketWindow <= ticketNext) {
        throwSimError(SimErrorKind::Model,
                      "DMA ticket %llu on core %d expired (completion "
                      "ring holds the most recent %zu tickets; newest "
                      "is %llu)",
                      (unsigned long long)ticket, coreId, kTicketWindow,
                      (unsigned long long)(ticketNext - 1));
    }
    return ticketDone[ticket % kTicketWindow];
}

std::string
DmaEngine::diagName() const
{
    return strformat("dma[%d]", coreId);
}

std::string
DmaEngine::diagnose() const
{
    std::string out = strformat(
        "commands=%llu accesses=%llu, in flight=%zu, engine free at "
        "tick %llu, last completion tick %llu",
        (unsigned long long)stats.commands,
        (unsigned long long)stats.accesses, inFlightCount,
        (unsigned long long)engineFree,
        (unsigned long long)lastCompletion);
    if (inFlightCount > 0) {
        out += strformat(
            "\noldest outstanding access completes at tick %llu",
            (unsigned long long)inFlight[inFlightHead]);
    }
    return out;
}

} // namespace cmpmem
