/**
 * @file
 * Per-core DMA engine for the streaming memory model.
 *
 * Supports sequential, strided, and indexed (gather/scatter)
 * transfers with command queuing, and keeps up to 16 outstanding
 * 32-byte accesses in flight (Table 2). Transfers move data between
 * the core's local store and the global address space through the
 * cluster bus, global crossbar and shared L2 — the same uncore path
 * coherent misses take, so both models contend for identical
 * resources.
 *
 * Functional data movement happens at command issue in core program
 * order; because kernels only read DMA'd buffers after dma_wait and
 * only reuse output buffers after the put is issued, this is
 * equivalent to copying at completion for all legal programs and is
 * robust for double-buffered code.
 */

#ifndef CMPMEM_STREAM_DMA_ENGINE_HH
#define CMPMEM_STREAM_DMA_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/diagnosable.hh"
#include "sim/types.hh"

namespace cmpmem
{

class CoherenceFabric;
class FaultInjector;
class FunctionalMemory;
class LocalStore;

struct DmaConfig
{
    std::uint32_t accessBytes = 32;     ///< sub-transfer granule
    std::uint32_t maxOutstanding = 16;  ///< concurrent accesses
    Tick issueOverhead = 1250;          ///< engine ticks per access issue
};

/** Statistics for the DMA engine. */
struct DmaCounters
{
    std::uint64_t commands = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

/**
 * The DMA engine of one streaming core.
 */
class DmaEngine : public Diagnosable
{
  public:
    using Ticket = std::uint64_t;

    DmaEngine(int core_id, const DmaConfig &cfg, CoherenceFabric &fabric,
              FunctionalMemory &mem, LocalStore &ls);

    /**
     * Attach the system fault injector (null to detach). Each
     * line-granule access then samples the transfer-failure model:
     * a failed access backs off and reissues, up to dmaMaxRetries
     * before SimErrorKind::Fault.
     */
    void setFaultInjector(FaultInjector *fi) { faults = fi; }

    /** Transfer direction: memory -> local store, or the reverse. */
    enum class Dir : bool
    {
        Get,
        Put,
    };

    /**
     * Strided transfer: @p rows rows of @p row_bytes, consecutive
     * rows @p mem_stride apart in memory, packed densely in the local
     * store from @p ls_off. A sequential transfer is one row.
     * @return completion ticket.
     */
    Ticket strided(Tick t, Dir dir, Addr mem_base, std::uint64_t mem_stride,
                   std::uint32_t row_bytes, std::uint32_t rows,
                   std::uint32_t ls_off);

    /**
     * Indexed gather/scatter: @p elem_bytes at each address in
     * @p addrs, packed densely in the local store from @p ls_off.
     */
    Ticket indexed(Tick t, Dir dir, const std::vector<Addr> &addrs,
                   std::uint32_t elem_bytes, std::uint32_t ls_off);

    /**
     * Completion tick of @p ticket. @pre ticket was returned here.
     * Completion slots live in a fixed ring of the most recent
     * kTicketWindow tickets; querying an older (expired) ticket
     * raises SimErrorKind::Model. Every workload waits on tickets
     * from the current double-buffer generation, so the window is
     * orders of magnitude deeper than any legal wait.
     */
    Tick completionTick(Ticket ticket) const;

    /** Completion tick of everything issued so far. */
    Tick allDoneTick() const { return lastCompletion; }

    const DmaCounters &counters() const { return stats; }

    /** Completion-ring depth (see completionTick()). */
    static constexpr std::size_t kTicketWindow = 4096;

    std::string diagName() const override;
    std::string diagnose() const override;

  private:
    /**
     * Run one command of @p n chunks of @p chunk_bytes each through
     * the engine and uncore, chunk i at memory address mem_at(i) and
     * local-store offset ls_off + i * chunk_bytes.
     */
    template <typename MemAt>
    Ticket transfer(Tick t, Dir dir, std::size_t n,
                    std::uint32_t chunk_bytes, std::uint32_t ls_off,
                    MemAt mem_at);

    Tick issueSlot(Tick earliest);

    int coreId;
    DmaConfig cfg;
    CoherenceFabric &fabric;
    FunctionalMemory &mem;
    LocalStore &ls;
    FaultInjector *faults = nullptr;

    /** Engine command processor availability. */
    Tick engineFree = 0;

    /**
     * FIFO ring of the most recent access-completion ticks, sized to
     * maxOutstanding (an access is only retired — popped — when the
     * ring is full and a new slot is needed, so occupancy never
     * exceeds the window).
     */
    std::vector<Tick> inFlight;
    std::size_t inFlightHead = 0;
    std::size_t inFlightCount = 0;

    /** Completion ring indexed by ticket % kTicketWindow. */
    std::vector<Tick> ticketDone;
    Ticket ticketNext = 0;

    Tick lastCompletion = 0;
    DmaCounters stats;
};

} // namespace cmpmem

#endif // CMPMEM_STREAM_DMA_ENGINE_HH
