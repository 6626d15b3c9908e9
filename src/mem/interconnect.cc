#include "mem/interconnect.hh"

#include <cassert>
#include <string>

namespace cmpmem
{

LocalBus::LocalBus(const InterconnectConfig &cfg, int cluster_id)
    : channel("bus" + std::to_string(cluster_id), cfg.busWidthBytes,
              cfg.busBeat),
      latency(cfg.busLatencyCycles * cfg.busBeat)
{
}

Tick
LocalBus::transfer(Tick when, std::uint32_t bytes)
{
    return channel.transfer(when, bytes) + latency;
}

Crossbar::Crossbar(const InterconnectConfig &cfg, int clusters)
    : latency(cfg.xbarLatency)
{
    assert(clusters > 0);
    inPorts.reserve(clusters);
    outPorts.reserve(clusters);
    for (int c = 0; c < clusters; ++c) {
        inPorts.emplace_back("xbar_in" + std::to_string(c),
                             cfg.xbarWidthBytes, cfg.xbarBeat);
        outPorts.emplace_back("xbar_out" + std::to_string(c),
                              cfg.xbarWidthBytes, cfg.xbarBeat);
    }
}

Tick
Crossbar::sendFromCluster(Tick when, int src_cluster, std::uint32_t bytes)
{
    return inPorts.at(src_cluster).transfer(when, bytes) + latency;
}

Tick
Crossbar::deliverToCluster(Tick when, int dst_cluster, std::uint32_t bytes)
{
    return outPorts.at(dst_cluster).transfer(when, bytes) + latency;
}

std::uint64_t
Crossbar::bytesMoved() const
{
    std::uint64_t total = 0;
    for (const auto &p : inPorts)
        total += p.bytesMoved();
    for (const auto &p : outPorts)
        total += p.bytesMoved();
    return total;
}

} // namespace cmpmem
