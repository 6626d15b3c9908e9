/**
 * @file
 * The hierarchical on-chip interconnect of Figure 1: a wide
 * bidirectional bus per 4-core cluster and a global crossbar
 * connecting clusters to the L2 banks.
 *
 * Per the paper's Section 5.3 methodology, the interconnect runs in
 * its own fixed clock domain: scaling the core frequency does not
 * change on-chip network bandwidth or latency.
 */

#ifndef CMPMEM_MEM_INTERCONNECT_HH
#define CMPMEM_MEM_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "mem/resource.hh"
#include "sim/types.hh"

namespace cmpmem
{

/**
 * Interconnect parameters (Table 2 defaults). Both widths must be
 * powers of two, so a transfer's beat count is a shift.
 */
struct InterconnectConfig
{
    /** Cluster bus: 32 bytes wide, 2-cycle latency after arbitration. */
    std::uint32_t busWidthBytes = 32;
    Cycles busLatencyCycles = 2;
    Tick busBeat = 1250; ///< bus clock period (800 MHz fixed domain)

    /** Global crossbar: 16-byte ports, 2.5 ns pipelined latency. */
    std::uint32_t xbarWidthBytes = 16;
    Tick xbarLatency = 2500; ///< ps
    Tick xbarBeat = 1250;    ///< ps per 16-byte beat per port

    /** Coherence request/response message size on the buses. */
    std::uint32_t requestBytes = 8;
};

/**
 * One cluster's local bus.
 */
class LocalBus
{
  public:
    LocalBus(const InterconnectConfig &cfg, int cluster_id);

    /**
     * Arbitrate for the bus and move @p bytes.
     * @return the tick the transfer (including bus latency) completes.
     */
    Tick transfer(Tick when, std::uint32_t bytes);

    std::uint64_t bytesMoved() const { return channel.bytesMoved(); }
    Tick busyTicks() const { return channel.busyTicks(); }
    std::uint64_t transfers() const { return channel.acquisitions(); }

  private:
    ChannelResource channel;
    Tick latency;
};

/**
 * The global crossbar: one input and one output port per cluster and
 * per L2 bank. Port pairs serialize traffic per endpoint; distinct
 * endpoints transfer concurrently (that is the crossbar property the
 * paper relies on to avoid centralized-arbitration bottlenecks).
 */
class Crossbar
{
  public:
    Crossbar(const InterconnectConfig &cfg, int clusters);

    /**
     * Move @p bytes from cluster @p src_cluster into the crossbar
     * fabric (toward the L2 / another cluster).
     * @return completion tick including the pipelined latency.
     */
    Tick sendFromCluster(Tick when, int src_cluster, std::uint32_t bytes);

    /**
     * Move @p bytes out of the fabric to cluster @p dst_cluster.
     */
    Tick deliverToCluster(Tick when, int dst_cluster, std::uint32_t bytes);

    std::uint64_t bytesMoved() const;
    int clusters() const { return int(inPorts.size()); }

  private:
    std::vector<ChannelResource> inPorts;
    std::vector<ChannelResource> outPorts;
    Tick latency;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_INTERCONNECT_HH
