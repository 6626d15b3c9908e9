#include "system/config.hh"

#include <bit>

#include "sim/event_queue.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

void
SystemConfig::validate() const
{
    if (cores < 1 || cores > 1024)
        throwSimError(SimErrorKind::Config, "core count %d out of range",
                      cores);
    if (coreClockGhz <= 0)
        throwSimError(SimErrorKind::Config, "core clock must be positive");
    if (clusterSize < 1)
        throwSimError(SimErrorKind::Config,
                      "cluster size must be at least 1");
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        throwSimError(SimErrorKind::Config,
                      "line size must be a power of two");
    if (dram.bandwidthGBps <= 0)
        throwSimError(SimErrorKind::Config,
                      "DRAM bandwidth must be positive");
    if (!std::has_single_bit(net.busWidthBytes) ||
        !std::has_single_bit(net.xbarWidthBytes))
        throwSimError(SimErrorKind::Config,
                      "interconnect width must be a power of two (bus %u "
                      "B, crossbar %u B)",
                      net.busWidthBytes, net.xbarWidthBytes);
    if (net.busBeat == 0 || net.xbarBeat == 0)
        throwSimError(SimErrorKind::Config,
                      "interconnect beat time must be positive");
    if (hwPrefetch && model == MemModel::STR)
        throwSimError(SimErrorKind::Config,
                      "hardware prefetching applies to the cache-based model");
    if (pfsEnabled && model == MemModel::STR)
        throwSimError(SimErrorKind::Config,
                      "PFS stores apply to the cache-based model");
    if (policy.bipThrottle < 1)
        throwSimError(SimErrorKind::Config,
                      "BIP throttle must be at least 1");
    if (policy.markovRows == 0 ||
        (policy.markovRows & (policy.markovRows - 1)) != 0)
        throwSimError(SimErrorKind::Config,
                      "Markov table rows must be a power of two (got %u)",
                      policy.markovRows);
    if (policy.markovSuccessors < 1)
        throwSimError(SimErrorKind::Config,
                      "Markov table needs at least one successor slot");
    if (policy.streamBuffers < 1 || policy.streamBufferDepth < 1)
        throwSimError(SimErrorKind::Config,
                      "stream buffers need at least one buffer of "
                      "depth one");
    if (eq.bucketShift < EventQueue::kMinBucketShift ||
        eq.bucketShift > EventQueue::kMaxBucketShift)
        throwSimError(SimErrorKind::Config,
                      "calendar bucket shift %u out of range [%u, %u]",
                      eq.bucketShift, EventQueue::kMinBucketShift,
                      EventQueue::kMaxBucketShift);
    if (eq.autoTune &&
        (eq.tuneDryRunTicks == 0 || eq.tuneHotThreshold < 0))
        throwSimError(SimErrorKind::Config,
                      "calendar auto-tuning needs a positive dry-run "
                      "tick budget and a non-negative hot threshold");
    if (faults.enabled) {
        if (faults.dramBitFlipProb < 0 || faults.dramBitFlipProb >= 1 ||
            faults.netNackProb < 0 || faults.netNackProb >= 1 ||
            faults.dmaFaultProb < 0 || faults.dmaFaultProb >= 1)
            throwSimError(SimErrorKind::Config,
                          "fault probabilities must lie in [0, 1)");
        if (faults.netMaxRetries < 1 || faults.dmaMaxRetries < 1)
            throwSimError(SimErrorKind::Config,
                          "fault retry limits must be at least 1");
    }
}

void
SystemConfig::finalize()
{
    ctx.pfsEnabled = pfsEnabled;
    l2.lineBytes = lineBytes;
    l2.repl.policy = policy.l2Replacement;
    l2.repl.bipThrottle = policy.bipThrottle;
    l2.repl.seed = policy.policySeed;
    dram.granuleBytes = lineBytes;
    dma.accessBytes = lineBytes;
}

} // namespace cmpmem
