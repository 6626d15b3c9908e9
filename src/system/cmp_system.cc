#include "system/cmp_system.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

CmpSystem::CmpSystem(const SystemConfig &config) : cfg(config)
{
    cfg.finalize();
    cfg.validate();

    eq.setBucketShift(cfg.eq.bucketShift);

    dramChannel = std::make_unique<DramChannel>(cfg.dram);
    l2cache = std::make_unique<L2Cache>(cfg.l2, *dramChannel);
    fab = std::make_unique<CoherenceFabric>(cfg.net, cfg.cores,
                                            cfg.clusterSize, *l2cache,
                                            *dramChannel);

    if (cfg.checkCoherence) {
        check = std::make_unique<CoherenceChecker>(fmem, cfg.lineBytes);
        fab->attachChecker(check.get());
        l2cache->setObserver(check.get());
    }

    if (cfg.faults.enabled) {
        faultInj = std::make_unique<FaultInjector>(cfg.faults);
        dramChannel->setFaultInjector(faultInj.get());
        fab->setFaultInjector(faultInj.get());
    }

    const Clock clock = cfg.coreClock();
    const bool cc = (cfg.model == MemModel::CC);

    for (int i = 0; i < cfg.cores; ++i) {
        L1Config l1c;
        l1c.geom.sizeBytes = cc ? cfg.ccL1SizeBytes
                                : cfg.strCacheSizeBytes;
        l1c.geom.assoc = cc ? cfg.ccL1Assoc : cfg.strCacheAssoc;
        l1c.geom.lineBytes = cfg.lineBytes;
        l1c.coherent = cc;
        l1c.mshrs = cfg.mshrs;
        l1c.storeBufferEntries = cfg.storeBufferEntries;
        l1c.cyclePeriod = clock.period();
        l1c.fastPath = cfg.memFastPath;
        l1c.repl.policy = cfg.policy.l1Replacement;
        l1c.repl.bipThrottle = cfg.policy.bipThrottle;
        // Salt the (BIP) seed per core so sibling L1s don't make
        // lock-step bimodal choices.
        l1c.repl.seed = cfg.policy.policySeed + std::uint64_t(i);
        l1Vec.push_back(
            std::make_unique<L1Controller>(i, l1c, eq, *fab));
        if (check)
            l1Vec.back()->attachChecker(check.get());

        if (cc && cfg.hwPrefetch) {
            PrefetcherConfig pc;
            pc.lineBytes = cfg.lineBytes;
            pc.depth = cfg.prefetchDepth;
            pc.markovRows = cfg.policy.markovRows;
            pc.markovSuccessors = cfg.policy.markovSuccessors;
            pc.streamBuffers = cfg.policy.streamBuffers;
            pc.streamBufferDepth = cfg.policy.streamBufferDepth;
            prefetchers.push_back(
                makePrefetcher(cfg.policy.prefetch, pc));
            l1Vec.back()->setPrefetcher(prefetchers.back().get());
        }

        LocalStore *ls = nullptr;
        DmaEngine *dma = nullptr;
        if (!cc) {
            lsVec.push_back(
                std::make_unique<LocalStore>(cfg.lsSizeBytes));
            ls = lsVec.back().get();
            dmaVec.push_back(std::make_unique<DmaEngine>(
                i, cfg.dma, *fab, fmem, *ls));
            dma = dmaVec.back().get();
            if (faultInj)
                dma->setFaultInjector(faultInj.get());
        }

        coreVec.push_back(std::make_unique<Core>(
            i, eq, clock, cfg.model, l1Vec.back().get(),
            ICacheModel(cfg.icache), ls, dma, fab.get(),
            cfg.quantumCycles));
        coreVec.back()->onFinish([this] { ++finishedCores; });

        ctxVec.push_back(std::make_unique<Context>(
            *coreVec.back(), fmem, i, cfg.cores, cfg.ctx));
    }
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::bindKernel(int i, KernelTask task)
{
    coreVec.at(i)->bindKernel(std::move(task));
}

Tick
CmpSystem::dryRun(Tick max_ticks)
{
    for (auto &core : coreVec)
        core->start();
    return eq.runUntil(max_ticks);
}

Tick
CmpSystem::simulate()
{
    for (auto &core : coreVec)
        core->start();

    try {
        if (cfg.watchdog.engaged()) {
            EventQueue::RunGuard guard;
            guard.maxTicks = cfg.watchdog.maxTicks;
            guard.maxHostSeconds = cfg.watchdog.maxHostSeconds;
            guard.progressCheckEvents = cfg.watchdog.progressCheckEvents;
            guard.progressProbe = [this] {
                std::uint64_t retired = 0;
                for (const auto &core : coreVec)
                    retired += core->stats().instructions();
                return retired;
            };
            guard.diagnostic = [this] { return dumpDiagnostics(); };
            eq.runGuarded(guard);
        } else {
            eq.run();
        }
    } catch (const SimError &e) {
        // Mid-run failures (an injected fault out of retries, a model
        // contract violation) abandon the machine where it stands;
        // attach the state dump if the thrower didn't already.
        if (e.diagnostic().empty())
            throw SimError(e.kind(), e.what(), dumpDiagnostics());
        throw;
    }

    if (finishedCores != cfg.cores) {
        throw SimError(
            SimErrorKind::Deadlock,
            strformat("deadlock: only %d of %d cores finished (a "
                      "kernel is waiting on an event that never fires)",
                      finishedCores, cfg.cores),
            dumpDiagnostics());
    }

    Tick finish = 0;
    for (auto &core : coreVec)
        finish = std::max(finish, core->finishTick());

    // Drain epilogue: dirty first-level lines write back to the L2,
    // then dirty L2 lines to DRAM, so traffic totals are invariant
    // to where write-backs happen to be parked at the end of a run.
    for (auto &l1 : l1Vec)
        l1->drainDirty(finish);
    l2cache->drainDirty();

    // With the machine quiesced and drained, sweep the real tag
    // arrays against the checker's shadow state and golden data.
    if (check)
        check->audit(finish);

    return finish;
}

RunStats
CmpSystem::collectStats() const
{
    RunStats rs;
    rs.config = cfg;

    for (const auto &core : coreVec) {
        rs.perCore.push_back(core->stats());
        for (const auto &f : kCoreStatsFields)
            rs.coreTotal.*f.member += core->stats().*f.member;

        rs.execTicks = std::max(rs.execTicks, core->finishTick());

        const ICacheModel &ic = core->icache();
        rs.icacheFetches += ic.fetches();
        rs.icacheMisses += ic.misses();
    }

    for (const auto &l1 : l1Vec) {
        for (const auto &f : kL1CounterFields)
            rs.l1Total.*f.member += l1->counters().*f.member;
        rs.missPathAllocs += l1->missPathHostAllocs();
    }

    rs.lsReads = rs.coreTotal.lsReads;
    rs.lsWrites = rs.coreTotal.lsWrites;
    for (const auto &dma : dmaVec) {
        rs.dmaAccesses += dma->counters().accesses;
        rs.dmaBytesRead += dma->counters().bytesRead;
        rs.dmaBytesWritten += dma->counters().bytesWritten;
        rs.missPathAllocs += dma->hostAllocs();
    }

    rs.fabric = fab->counters();
    for (int c = 0; c < fab->clusters(); ++c)
        rs.busBytes += fab->bus(c).bytesMoved();
    rs.xbarBytes = fab->crossbar().bytesMoved();

    rs.l2Hits = l2cache->hits();
    rs.l2Misses = l2cache->misses();
    rs.l2RefillsAvoided = l2cache->refillsAvoided();

    rs.dramReadBytes = dramChannel->readBytes();
    rs.dramWriteBytes = dramChannel->writeBytes();
    rs.dramBusyTicks = dramChannel->busyTicks();
    rs.dramRowHits = dramChannel->rowHits();
    rs.dramRowMisses = dramChannel->rowMisses();

    if (check) {
        rs.checkerViolations = check->violations();
        rs.checkerEvents = check->eventsObserved();
    }

    if (faultInj)
        rs.faults = faultInj->stats();

    rs.eventsExecuted = eq.executed();
    rs.peakPendingEvents = eq.peakPending();
    rs.calendarOverflows = eq.calendarOverflows();
    rs.calendarBucketShift = eq.bucketShift();

    return rs;
}

std::string
CmpSystem::dumpDiagnostics() const
{
    std::string out = strformat(
        "=== machine state @ tick %llu ===\n"
        "event queue: %zu pending, %llu executed; %d of %d cores "
        "finished",
        (unsigned long long)eq.now(), eq.pending(),
        (unsigned long long)eq.executed(), finishedCores, cfg.cores);

    std::vector<Tick> next = eq.pendingEventTicks();
    if (!next.empty()) {
        out += "\nnext event ticks:";
        for (Tick t : next)
            out += strformat(" %llu", (unsigned long long)t);
    }

    for (const auto &core : coreVec) {
        if (core->finished()) {
            out += strformat("\ncore %d: finished at tick %llu",
                             core->id(),
                             (unsigned long long)core->finishTick());
        } else {
            out += strformat(
                "\ncore %d: RUNNING, local tick %llu, %llu "
                "instruction(s) retired",
                core->id(), (unsigned long long)core->now(),
                (unsigned long long)core->stats().instructions());
        }
    }

    auto append = [&out](const Diagnosable &d) {
        out += "\n--- " + d.diagName() + " ---\n" + d.diagnose();
    };
    append(*fab);
    append(*l2cache);
    for (const auto &l1 : l1Vec)
        append(*l1);
    for (const auto &dma : dmaVec)
        append(*dma);
    return out;
}

StatSet
RunStats::toStatSet() const
{
    StatSet s;
    s.set("exec_ticks", double(execTicks));
    s.set("exec_seconds", execSeconds());
    s.set("core.useful_ticks", double(coreTotal.usefulTicks));
    s.set("core.sync_ticks", double(coreTotal.syncTicks));
    s.set("core.load_stall_ticks", double(coreTotal.loadStallTicks));
    s.set("core.store_stall_ticks", double(coreTotal.storeStallTicks));
    s.set("core.instructions", double(coreTotal.instructions()));
    s.set("core.loads", double(coreTotal.loads));
    s.set("core.stores", double(coreTotal.stores));
    s.set("core.atomics", double(coreTotal.atomics));
    s.set("core.barriers", double(coreTotal.barriers));
    s.set("core.dma_commands", double(coreTotal.dmaCommands));
    s.set("icache.fetches", double(icacheFetches));
    s.set("icache.misses", double(icacheMisses));
    s.set("l1.load_hits", double(l1Total.loadHits));
    s.set("l1.load_misses", double(l1Total.loadMisses));
    s.set("l1.store_hits", double(l1Total.storeHits));
    s.set("l1.store_misses", double(l1Total.storeMisses));
    s.set("l1.pfs_stores", double(l1Total.pfsStores));
    s.set("l1.writebacks", double(l1Total.writebacks));
    s.set("l1.miss_rate", l1MissRate());
    s.set("l1.snoops", double(l1Total.snoopsReceived));
    s.set("l1.prefetches_issued", double(l1Total.prefetchesIssued));
    s.set("l1.prefetches_useful", double(l1Total.prefetchesUseful));
    s.set("mem.fastpath_hits", double(l1Total.fastpathHits));
    s.set("ls.reads", double(lsReads));
    s.set("ls.writes", double(lsWrites));
    s.set("dma.accesses", double(dmaAccesses));
    s.set("l2.hits", double(l2Hits));
    s.set("l2.misses", double(l2Misses));
    s.set("l2.miss_rate", l2MissRate());
    s.set("l2.refills_avoided", double(l2RefillsAvoided));
    s.set("net.bus_bytes", double(busBytes));
    s.set("net.xbar_bytes", double(xbarBytes));
    s.set("dram.read_bytes", double(dramReadBytes));
    s.set("dram.write_bytes", double(dramWriteBytes));
    s.set("dram.busy_ticks", double(dramBusyTicks));
    s.set("dram.row_hits", double(dramRowHits));
    s.set("dram.row_misses", double(dramRowMisses));
    s.set("offchip_bytes_per_sec", offChipBytesPerSec());
    s.set("checker.violations", double(checkerViolations));
    s.set("checker.events", double(checkerEvents));
    s.set("faults.dram_flips", double(faults.dramFlips));
    s.set("faults.ecc_corrected", double(faults.eccCorrected));
    s.set("faults.ecc_detected", double(faults.eccDetected));
    s.set("faults.net_nacks", double(faults.netNacks));
    s.set("faults.net_retries", double(faults.netRetries));
    s.set("faults.dma_faults", double(faults.dmaFaults));
    s.set("faults.dma_retries", double(faults.dmaRetries));
    s.set("sim.events_executed", double(eventsExecuted));
    s.set("sim.peak_pending_events", double(peakPendingEvents));
    s.set("sim.calendar_overflows", double(calendarOverflows));
    s.set("sim.calendar_bucket_shift", double(calendarBucketShift));
    return s;
}

} // namespace cmpmem
