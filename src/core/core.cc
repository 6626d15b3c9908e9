#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "mem/l1_controller.hh"
#include "sim/log.hh"

namespace cmpmem
{

Core::Core(int id, EventQueue &event_queue, Clock clock, MemModel model,
           L1Controller *dcache, ICacheModel icache, LocalStore *ls,
           DmaEngine *dma, CoherenceFabric *fabric, Cycles quantum_cycles)
    : coreId(id),
      eq(event_queue),
      clk(clock),
      memModel(model),
      dcachePtr(dcache),
      icacheModel(icache),
      lsPtr(ls),
      dmaPtr(dma),
      fabricPtr(fabric),
      quantumTicks(clock.cyclesToTicks(quantum_cycles))
{
}

void
Core::bindKernel(KernelTask t)
{
    task = std::move(t);
}

void
Core::start()
{
    assert(task.valid());
    eq.schedule(eq.now(), [this] { launch(); });
}

void
Core::launch()
{
    curTick = std::max(curTick, eq.now());
    task.resume();
    checkDone();
}

void
Core::checkDone()
{
    // A kernel that died with an exception surfaces here, right
    // after the resumption that killed it: propagate out of the
    // event loop rather than recording the core as finished.
    task.rethrowIfFailed();
    if (!isFinished && task.done()) {
        isFinished = true;
        finishedAt = curTick;
        if (finishCb)
            finishCb();
    }
}

void
Core::applySnoopStalls()
{
    if (!dcachePtr)
        return;
    Cycles c = dcachePtr->takeSnoopStallCycles();
    if (c) {
        Tick dt = clk.cyclesToTicks(c);
        curTick += dt;
        st.loadStallTicks += dt;
    }
}

void
Core::beginWait(StallCat cat)
{
    pendingCat = cat;
    pendingIssue = curTick;
}

void
Core::finishWait(Tick when)
{
    Tick resume_at = std::max(when, pendingIssue);
    Tick stall = resume_at - pendingIssue;
    switch (pendingCat) {
      case StallCat::Useful:
        st.usefulTicks += stall;
        break;
      case StallCat::Sync:
        st.syncTicks += stall;
        break;
      case StallCat::Load:
        st.loadStallTicks += stall;
        break;
      case StallCat::Store:
        st.storeStallTicks += stall;
        break;
    }
    resumeKernel(resume_at);
}

TickCallback
Core::waitCallback()
{
    return [this](Tick when) { finishWait(when); };
}

void
Core::scheduleResume(Tick at)
{
    eq.schedule(at, [this, at] {
        curTick = std::max(curTick, at);
        auto h = std::exchange(suspendedAt, nullptr);
        assert(h && "resume with no suspended kernel");
        h.resume();
        checkDone();
    });
}

void
Core::armQuantumFlush()
{
    // Part of the micro path's invalidation contract: while this
    // core is parked, other cores' fabric activity may remodel its
    // cache, so the cached line/permission must not persist across
    // the flush. (Snoops also invalidate directly; this is the
    // belt-and-braces half of the contract.)
    if (dcachePtr)
        dcachePtr->microInvalidate();
    // No stall: the local clock already accounts for the elapsed
    // time; this merely hands control back to the event loop.
    scheduleResume(std::max(curTick, eq.now()));
}

void
Core::resumeKernel(Tick when)
{
    scheduleResume(std::max(when, eq.now()));
}

} // namespace cmpmem
