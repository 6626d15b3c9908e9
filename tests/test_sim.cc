/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * conversions, RNG determinism, statistics containers, and the
 * coroutine plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/rng.hh"
#include "sim/sim_error.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace cmpmem
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(100, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        ++fired;
        eq.schedule(5, [&] { ++fired; });   // same tick
        eq.schedule(15, [&] { ++fired; });  // later
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameTickFifoAcrossScheduleDuringDispatch)
{
    // Events queued before tick T is reached and events scheduled
    // *at* T from a dispatching callback share one FIFO order: the
    // pre-queued ones (lower sequence numbers) fire first.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(0);
        eq.schedule(100, [&] { order.push_back(2); });
        eq.schedule(100, [&] {
            order.push_back(3);
            eq.schedule(100, [&] { order.push_back(4); });
        });
    });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, SchedulingInThePastThrowsModelError)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 50u);
    try {
        eq.schedule(49, [] {});
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Model);
    }
    // The queue survives the rejected event and keeps running.
    int fired = 0;
    eq.schedule(60, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, FreeListReusesNodesUnderChurn)
{
    // A long self-rescheduling chain keeps at most a handful of
    // events pending, so the pool must not grow with total events:
    // every dispatched node goes back on the free list.
    EventQueue eq;
    std::uint64_t fired = 0;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t left;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                ++*fired;
                if (--left)
                    arm(when + 501);
            });
        }
    };
    Chain chains[4];
    for (int i = 0; i < 4; ++i) {
        chains[i] = {&eq, &fired, 50000};
        chains[i].arm(Tick(i));
    }
    eq.run();
    EXPECT_EQ(fired, 200000u);
    EXPECT_EQ(eq.executed(), 200000u);
    // One pool chunk covers 4 concurrent chains many times over.
    EXPECT_LE(eq.nodesAllocated(), 256u);
    EXPECT_EQ(eq.peakPending(), 4u);
}

TEST(EventQueue, FarFutureEventsOverflowAndStillFireInOrder)
{
    // Horizons beyond the calendar ring go to the overflow heap and
    // migrate back as the window advances; order must be untouched.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick horizon = 1024 * 256; // the ring covers [now, now+this)
    eq.schedule(horizon * 3, [&] { fired.push_back(eq.now()); });
    eq.schedule(horizon + 1, [&] { fired.push_back(eq.now()); });
    eq.schedule(10, [&] { fired.push_back(eq.now()); });
    eq.schedule(horizon * 2, [&] { fired.push_back(eq.now()); });
    EXPECT_EQ(eq.calendarOverflows(), 3u);
    eq.run();
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired.back(), horizon * 3);
}

TEST(EventQueue, SetBucketShiftValidates)
{
    EventQueue eq;
    EXPECT_EQ(eq.bucketShift(), EventQueue::kDefaultBucketShift);
    eq.setBucketShift(12);
    EXPECT_EQ(eq.bucketShift(), 12u);
    EXPECT_EQ(eq.horizonTicks(), Tick(1024) << 12);

    // Out-of-range shifts are config errors.
    EXPECT_THROW(eq.setBucketShift(EventQueue::kMinBucketShift - 1),
                 SimError);
    EXPECT_THROW(eq.setBucketShift(EventQueue::kMaxBucketShift + 1),
                 SimError);

    // Geometry is per-run: once the queue has been used, changing it
    // is a model error.
    eq.schedule(10, [] {});
    EXPECT_THROW(eq.setBucketShift(8), SimError);
}

TEST(EventQueue, BucketShiftIsOrderInvariant)
{
    // The same far-future event stream under two geometries must
    // dispatch in the same global order with the same totals; only
    // the overflow count (a host-performance telemetry) may differ.
    auto drive = [](unsigned shift) {
        EventQueue eq;
        eq.setBucketShift(shift);
        std::vector<Tick> fired;
        struct Chain
        {
            EventQueue *eq;
            std::vector<Tick> *fired;
            std::uint64_t left;
            Tick stride;

            void
            arm(Tick when)
            {
                eq->schedule(when, [this, when] {
                    fired->push_back(when);
                    if (--left)
                        arm(when + stride);
                });
            }
        };
        std::vector<Chain> chains(8);
        for (std::size_t i = 0; i < chains.size(); ++i) {
            chains[i] = {&eq, &fired, 200, Tick(300000 + 40001 * i)};
            chains[i].arm(Tick(i));
        }
        eq.run();
        return std::tuple(fired, eq.executed(), eq.now(),
                          eq.calendarOverflows());
    };

    auto [fired8, n8, end8, ovf8] = drive(8);
    auto [fired12, n12, end12, ovf12] = drive(12);
    EXPECT_EQ(fired8, fired12);
    EXPECT_EQ(n8, n12);
    EXPECT_EQ(end8, end12);
    // 16x wider buckets: most hops now land inside the ring.
    EXPECT_LT(ovf12, ovf8);
}

TEST(EventQueue, RecommendBucketShiftCoversObservedHorizon)
{
    // Cold queue (no overflows): keep the current geometry.
    EventQueue cold;
    for (Tick t = 1; t <= 100; ++t)
        cold.schedule(t * 100, [] {});
    cold.run();
    EXPECT_EQ(cold.calendarOverflows(), 0u);
    EXPECT_EQ(cold.recommendBucketShift(), cold.bucketShift());

    // Hot queue: every hop of a 300k-tick-stride chain overflows the
    // default ~262k window; the recommendation must widen the ring
    // enough to cover the observed horizon.
    EventQueue hot;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t left;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                if (--left)
                    arm(when + 300000);
            });
        }
    };
    Chain c{&hot, 500};
    c.arm(0);
    hot.run();
    EXPECT_GT(hot.calendarOverflows(), 0u);

    unsigned tuned = hot.recommendBucketShift();
    EXPECT_GT(tuned, hot.bucketShift());
    EXPECT_GE(Tick(1024) << tuned, hot.overflowHorizon());

    // Replaying the stream under the tuned geometry keeps the same
    // totals and (here) eliminates the overflows entirely.
    EventQueue replay;
    replay.setBucketShift(tuned);
    Chain c2{&replay, 500};
    c2.arm(0);
    replay.run();
    EXPECT_EQ(replay.executed(), hot.executed());
    EXPECT_EQ(replay.now(), hot.now());
    EXPECT_LT(replay.calendarOverflows(), hot.calendarOverflows());
}

TEST(EventQueue, PeakPendingTracksHighWaterMark)
{
    EventQueue eq;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t * 1000, [] {});
    EXPECT_EQ(eq.pending(), 10u);
    EXPECT_EQ(eq.peakPending(), 10u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.peakPending(), 10u); // high-water mark sticks
}

TEST(EventQueue, PendingEventTicksReturnsFiringPrefix)
{
    EventQueue eq;
    const Tick horizon = 1024 * 256;
    // Spread across now-FIFO range, ring buckets, and overflow.
    std::vector<Tick> when = {5,      3,          900,     40000,
                              70000,  horizon * 2, 12,     260000,
                              130000, horizon * 5, 770,    41000};
    for (Tick t : when)
        eq.schedule(t, [] {});
    std::vector<Tick> expect = when;
    std::sort(expect.begin(), expect.end());

    std::vector<Tick> all = eq.pendingEventTicks(64);
    EXPECT_EQ(all, expect);

    std::vector<Tick> first4 = eq.pendingEventTicks(4);
    EXPECT_EQ(first4,
              std::vector<Tick>(expect.begin(), expect.begin() + 4));
}

TEST(EventQueue, RandomizedOrderMatchesReferenceModel)
{
    // Drive the calendar queue with an adversarial mix of horizons
    // (same-tick, in-bucket, cross-bucket, beyond-window) scheduled
    // both up front and from dispatching callbacks, and check the
    // observed order against the (when, seq) sort of a reference log.
    EventQueue eq;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };

    struct Ref
    {
        Tick when;
        std::uint64_t seq;
    };
    std::vector<Ref> ref;
    std::vector<std::uint64_t> observed;
    std::uint64_t seq = 0;
    std::uint64_t budget = 20000;

    // Returns a horizon hitting every container class.
    auto horizonFor = [&next](std::uint64_t roll) -> Tick {
        switch (roll % 4) {
          case 0: return 0;                       // same tick
          case 1: return 1 + next() % 200;        // active bucket-ish
          case 2: return 1 + next() % 200000;     // ring buckets
          default: return 250000 + next() % 600000; // overflow
        }
    };

    struct Spawner
    {
        EventQueue *eq;
        std::vector<Ref> *ref;
        std::vector<std::uint64_t> *observed;
        std::uint64_t *seq;
        std::uint64_t *budget;
        std::function<Tick(std::uint64_t)> horizon;
        std::function<std::uint64_t()> roll;

        void
        spawn(Tick when)
        {
            std::uint64_t id = (*seq)++;
            ref->push_back({when, id});
            eq->schedule(when, [this, id] {
                observed->push_back(id);
                if (*budget == 0)
                    return;
                // Fan out 0..2 children from inside dispatch.
                std::uint64_t kids = roll() % 3;
                for (std::uint64_t k = 0; k < kids && *budget; ++k) {
                    --*budget;
                    spawn(eq->now() + horizon(roll()));
                }
            });
        }
    };
    Spawner sp{&eq,  &ref, &observed, &seq, &budget,
               horizonFor, next};
    for (int i = 0; i < 64; ++i) {
        --budget;
        sp.spawn(horizonFor(next()));
    }
    eq.run();

    ASSERT_EQ(observed.size(), ref.size());
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref &a, const Ref &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.seq < b.seq;
                     });
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(observed[i], ref[i].seq) << "at position " << i;
}

//
// InlineFunction (the event callback type).
//

TEST(InlineFunction, InvokesAndMoves)
{
    int hits = 0;
    InlineFunction<void()> f([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(hits, 1);

    InlineFunction<void()> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f)); // moved-from is empty
    g();
    EXPECT_EQ(hits, 2);

    InlineFunction<void()> h;
    EXPECT_FALSE(static_cast<bool>(h));
    h = std::move(g);
    h();
    EXPECT_EQ(hits, 3);
    h.reset();
    EXPECT_FALSE(static_cast<bool>(h));
}

TEST(InlineFunction, DestroysCaptureExactlyOnce)
{
    struct Probe
    {
        int *ctor, *dtor;
        Probe(int *c, int *d) : ctor(c), dtor(d) { ++*ctor; }
        Probe(Probe &&o) noexcept : ctor(o.ctor), dtor(o.dtor)
        {
            ++*ctor;
        }
        ~Probe() { ++*dtor; }
        void operator()() const {}
    };
    int ctor = 0, dtor = 0;
    {
        InlineFunction<void()> f(Probe(&ctor, &dtor));
        InlineFunction<void()> g(std::move(f)); // relocate
        g();
    }
    EXPECT_GE(ctor, 2);     // original + at least one relocate
    EXPECT_EQ(ctor, dtor);  // every construction destroyed exactly once
}

TEST(InlineFunction, ArgumentsAndReturnValues)
{
    InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);
}

//
// TickCallback (the capacity-24 miss-path waiter type, DESIGN.md §18):
// the same contract as the event callback above, at the tighter
// capture budget the MSHR/store-buffer/sync waiters live under.
//

TEST(TickCallback, InvokesMovesAndDetaches)
{
    Tick seen = 0;
    TickCallback f([&seen](Tick t) { seen = t; });
    EXPECT_TRUE(static_cast<bool>(f));
    f(41);
    EXPECT_EQ(seen, 41u);

    TickCallback g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f)); // moved-from is empty
    g(42);
    EXPECT_EQ(seen, 42u);

    TickCallback h;
    EXPECT_FALSE(static_cast<bool>(h));
    h = std::move(g);
    h(43);
    EXPECT_EQ(seen, 43u);
    // `= nullptr` detach, the idiom the L1 member slots rely on.
    h = nullptr;
    EXPECT_FALSE(static_cast<bool>(h));
    TickCallback k(nullptr);
    EXPECT_FALSE(static_cast<bool>(k));
}

TEST(TickCallback, DestroysCaptureExactlyOnce)
{
    struct Probe
    {
        int *ctor, *dtor;
        Probe(int *c, int *d) : ctor(c), dtor(d) { ++*ctor; }
        Probe(Probe &&o) noexcept : ctor(o.ctor), dtor(o.dtor)
        {
            ++*ctor;
        }
        ~Probe() { ++*dtor; }
        void operator()(Tick) const {}
    };
    int ctor = 0, dtor = 0;
    {
        TickCallback f(Probe(&ctor, &dtor));
        TickCallback g(std::move(f)); // relocate
        g(7);
    }
    EXPECT_GE(ctor, 2);     // original + at least one relocate
    EXPECT_EQ(ctor, dtor);  // every construction destroyed exactly once
}

TEST(TickCallback, ArgumentsReachTheCapture)
{
    std::uint64_t sum = 0;
    TickCallback acc([&sum](Tick t) { sum += t; });
    acc(10);
    acc(32);
    EXPECT_EQ(sum, 42u);
}

TEST(Clock, PeriodsMatchTable2Frequencies)
{
    EXPECT_EQ(Clock::fromMhz(800).period(), 1250u);
    EXPECT_EQ(Clock::fromMhz(1600).period(), 625u);
    EXPECT_EQ(Clock::fromMhz(3200).period(), 313u); // 312.5 rounded
    EXPECT_EQ(Clock::fromMhz(6400).period(), 156u);
}

TEST(Clock, CycleTickConversionsRoundTrip)
{
    Clock c(1250);
    EXPECT_EQ(c.cyclesToTicks(4), 5000u);
    EXPECT_EQ(c.ticksToCycles(5000), 4u);
    EXPECT_EQ(c.ticksToCycles(5001), 5u); // rounds up
    EXPECT_EQ(c.nextEdge(0), 0u);
    EXPECT_EQ(c.nextEdge(1), 1250u);
    EXPECT_EQ(c.nextEdge(1250), 1250u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123), c(124);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBelow(17), 17u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        double e = r.nextDouble(-2.0, 3.0);
        EXPECT_GE(e, -2.0);
        EXPECT_LT(e, 3.0);
    }
}

TEST(StatSet, LookupAndFormat)
{
    StatSet a;
    a.set("x", 1);
    a.set("x", 13);
    a.set("y", 5);
    EXPECT_DOUBLE_EQ(a.get("x"), 13);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
    EXPECT_EQ(a.names(), (std::vector<std::string>{"x", "y"}));
    EXPECT_TRUE(a.has("y"));
    EXPECT_FALSE(a.has("z"));
    EXPECT_DOUBLE_EQ(a.get("z", -1), -1);
    EXPECT_NE(a.format().find("x"), std::string::npos);
}

//
// Coroutine plumbing.
//

struct ManualAwait
{
    std::coroutine_handle<> *slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { *slot = h; }
    void await_resume() const noexcept {}
};

KernelTask
simpleKernel(std::coroutine_handle<> *slot, int *progress)
{
    *progress = 1;
    co_await ManualAwait{slot};
    *progress = 2;
}

TEST(KernelTask, StartsSuspendedAndRunsToCompletion)
{
    std::coroutine_handle<> slot;
    int progress = 0;
    KernelTask t = simpleKernel(&slot, &progress);
    EXPECT_FALSE(t.done());
    EXPECT_EQ(progress, 0); // initial suspend
    t.resume();
    EXPECT_EQ(progress, 1);
    EXPECT_FALSE(t.done());
    slot.resume();
    EXPECT_EQ(progress, 2);
    EXPECT_TRUE(t.done());
}

Co<int>
inner(std::coroutine_handle<> *slot)
{
    co_await ManualAwait{slot};
    co_return 42;
}

KernelTask
outer(std::coroutine_handle<> *slot, int *result)
{
    *result = co_await inner(slot);
}

TEST(KernelTask, NestedCoResumesThroughChain)
{
    std::coroutine_handle<> slot;
    int result = 0;
    KernelTask t = outer(&slot, &result);
    t.resume();
    EXPECT_EQ(result, 0);
    // Resuming the leaf suspension propagates the value out through
    // the Co<int> and completes the kernel.
    slot.resume();
    EXPECT_EQ(result, 42);
    EXPECT_TRUE(t.done());
}

Co<void>
level2(std::coroutine_handle<> *slot, std::vector<int> *trace)
{
    trace->push_back(2);
    co_await ManualAwait{slot};
    trace->push_back(3);
}

Co<void>
level1(std::coroutine_handle<> *slot, std::vector<int> *trace)
{
    trace->push_back(1);
    co_await level2(slot, trace);
    trace->push_back(4);
}

KernelTask
level0(std::coroutine_handle<> *slot, std::vector<int> *trace)
{
    co_await level1(slot, trace);
    trace->push_back(5);
}

TEST(KernelTask, DeeplyNestedSymmetricTransfer)
{
    std::coroutine_handle<> slot;
    std::vector<int> trace;
    KernelTask t = level0(&slot, &trace);
    t.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2}));
    slot.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(t.done());
}

} // namespace
} // namespace cmpmem
