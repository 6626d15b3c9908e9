/**
 * @file
 * Latency+occupancy resource model for buses, ports, and channels.
 *
 * cmpmem models interconnect and memory-channel contention with
 * reservation resources rather than flit-level networks: a
 * transaction acquires each resource on its path for an occupancy
 * proportional to the bytes moved, and later transactions queue
 * behind it. This captures exactly the contention effects the paper
 * studies (bus arbitration, crossbar port serialization, memory
 * channel saturation) at a fraction of the simulation cost.
 */

#ifndef CMPMEM_MEM_RESOURCE_HH
#define CMPMEM_MEM_RESOURCE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

/**
 * A serially shared resource scheduled at interval granularity.
 *
 * Transactions walk their whole path at issue time, which means they
 * reserve *future* slots (a miss reserves the response beat on its
 * bus ~100 ns ahead). A single next-free cursor would make such a
 * future reservation block the idle gap before it and serialize
 * unrelated transactions; the busy-interval list with first-fit gap
 * search keeps the resource available in those gaps.
 *
 * The list keeps every reservation that ended within the last
 * pruneHorizon (10 us): a few hundred intervals on a loaded bus or
 * channel, and a request almost always lands after all but one or two
 * of them. Intervals are disjoint, sorted and merged when adjacent, so
 * their ends strictly ascend. The intervals that ended by the
 * requested tick are therefore a prefix, skipped by binary search, and
 * the first-fit walk starts at the first interval still busy; the
 * result is identical to a walk from the front (DESIGN.md §19).
 */
class Resource
{
  public:
    explicit Resource(std::string name = "resource");

    /**
     * Reserve the resource for @p occupancy ticks, no earlier than
     * @p earliest.
     *
     * @return the tick at which the reservation begins; the caller's
     *         transaction completes at the returned tick plus its own
     *         latency/occupancy as appropriate.
     */
    Tick acquire(Tick earliest, Tick occupancy);

    /** End of the last reservation made so far. */
    Tick nextFree() const;

    /** Total reserved (busy) ticks, for utilization statistics. */
    Tick busyTicks() const { return busy; }

    /** Total ticks transactions spent waiting for the resource. */
    Tick waitTicks() const { return waited; }

    std::uint64_t acquisitions() const { return count; }

    const std::string &name() const { return label; }

    void reset();

  private:
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /** Reservations older than this can no longer conflict. */
    static constexpr Tick pruneHorizon = 10 * ticksPerUs;

    void prune(Tick earliest);

    std::string label;
    /** Live intervals are busyList[head..]; the prefix is pruned. */
    std::vector<Interval> busyList;
    std::size_t head = 0;
    Tick busy = 0;
    Tick waited = 0;
    std::uint64_t count = 0;
};

/**
 * A bandwidth-style resource: converts byte counts into occupancy
 * given a width (bytes moved per beat, a power of two) and a beat
 * time. Every DMA line and coherence message pays this arithmetic,
 * so the beat count is a shift, not a divide (DESIGN.md §21).
 */
class ChannelResource : public Resource
{
  public:
    /**
     * Raises SimErrorKind::Config unless the width is a power of two
     * and the beat is positive.
     */
    ChannelResource(std::string name, std::uint32_t width_bytes,
                    Tick beat_ticks);

    /**
     * Reserve for a transfer of @p bytes, no earlier than @p earliest.
     * @return the tick the transfer's last beat ends.
     */
    Tick
    transfer(Tick earliest, std::uint64_t bytes)
    {
        totalBytes += bytes;
        Tick occupancy = transferTicks(bytes);
        return acquire(earliest, occupancy) + occupancy;
    }

    /** Occupancy in ticks for a transfer of @p bytes. */
    Tick
    transferTicks(std::uint64_t bytes) const
    {
        return ((bytes + width - 1) >> widthShift) * beat;
    }

    std::uint64_t bytesMoved() const { return totalBytes; }

  private:
    std::uint32_t width;
    std::uint32_t widthShift; ///< log2(width)
    Tick beat;
    std::uint64_t totalBytes = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_RESOURCE_HH
