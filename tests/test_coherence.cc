/**
 * @file
 * MESI coherence tests: L1 controller + fabric transitions,
 * cache-to-cache supply within and across clusters, upgrades, PFS
 * allocation, snoop stalls, and randomized protocol invariants
 * (single-writer / multiple-reader).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/dram.hh"
#include "mem/l1_controller.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace cmpmem
{
namespace
{

class CoherenceFixture : public testing::Test
{
  protected:
    void
    build(int cores, bool coherent = true)
    {
        dram = std::make_unique<DramChannel>(DramConfig{});
        l2 = std::make_unique<L2Cache>(L2Config{}, *dram);
        fabric = std::make_unique<CoherenceFabric>(
            InterconnectConfig{}, cores, 4, *l2, *dram);
        for (int i = 0; i < cores; ++i) {
            L1Config cfg;
            cfg.coherent = coherent;
            l1s.push_back(std::make_unique<L1Controller>(
                i, cfg, eq, *fabric));
        }
    }

    /** Issue a blocking load and run to completion. */
    void
    load(int core, Addr a)
    {
        bool hit = l1s[core]->load(eq.now(), a, [](Tick) {});
        (void)hit;
        eq.run();
    }

    void
    store(int core, Addr a, bool pfs = false)
    {
        bool ok = l1s[core]->store(eq.now(), a, pfs, [](Tick) {});
        (void)ok;
        eq.run();
    }

    MesiState
    state(int core, Addr a)
    {
        const auto *line = l1s[core]->tags().lookup(a);
        return line ? line->state : MesiState::Invalid;
    }

    EventQueue eq;
    std::unique_ptr<DramChannel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CoherenceFabric> fabric;
    std::vector<std::unique_ptr<L1Controller>> l1s;
};

TEST_F(CoherenceFixture, LoadMissFillsExclusiveWhenAlone)
{
    build(4);
    load(0, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Exclusive);
    EXPECT_EQ(l1s[0]->counters().loadMisses, 1u);
    EXPECT_EQ(l1s[0]->counters().fills, 1u);
}

TEST_F(CoherenceFixture, SecondReaderDowngradesToShared)
{
    build(4);
    load(0, 0x1000);
    load(1, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(state(1, 0x1000), MesiState::Shared);
    EXPECT_EQ(l1s[0]->counters().suppliesProvided, 1u);
    EXPECT_GE(fabric->counters().localSupplies, 1u);
}

TEST_F(CoherenceFixture, StoreInvalidatesOtherCopies)
{
    build(4);
    load(0, 0x1000);
    load(1, 0x1000);
    store(2, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Invalid);
    EXPECT_EQ(state(1, 0x1000), MesiState::Invalid);
    EXPECT_EQ(state(2, 0x1000), MesiState::Modified);
    EXPECT_GE(l1s[0]->counters().invalidationsReceived, 1u);
}

TEST_F(CoherenceFixture, StoreHitOnExclusiveSilentlyUpgrades)
{
    build(4);
    load(0, 0x1000);
    auto upgrades_before = fabric->counters().upgrades;
    store(0, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Modified);
    // E -> M needs no bus transaction.
    EXPECT_EQ(fabric->counters().upgrades, upgrades_before);
    EXPECT_EQ(l1s[0]->counters().storeHits, 1u);
}

TEST_F(CoherenceFixture, StoreToSharedIssuesUpgrade)
{
    build(4);
    load(0, 0x1000);
    load(1, 0x1000);
    store(0, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Modified);
    EXPECT_EQ(state(1, 0x1000), MesiState::Invalid);
    EXPECT_GE(fabric->counters().upgrades, 1u);
}

TEST_F(CoherenceFixture, DirtySupplierWritesBackOnDowngrade)
{
    build(4);
    store(0, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Modified);
    auto wb_before = fabric->counters().writebacks;
    load(1, 0x1000);
    EXPECT_EQ(state(0, 0x1000), MesiState::Shared);
    EXPECT_EQ(state(1, 0x1000), MesiState::Shared);
    EXPECT_EQ(fabric->counters().writebacks, wb_before + 1);
}

TEST_F(CoherenceFixture, RemoteClusterSupply)
{
    build(8); // clusters {0..3} and {4..7}
    store(0, 0x1000);
    load(5, 0x1000);
    EXPECT_EQ(state(5, 0x1000), MesiState::Shared);
    EXPECT_GE(fabric->counters().remoteSupplies, 1u);
}

TEST_F(CoherenceFixture, PfsStoreMissAvoidsDramRead)
{
    build(4);
    auto dram_reads = dram->readBytes();
    store(0, 0x1000, true);
    EXPECT_EQ(state(0, 0x1000), MesiState::Modified);
    EXPECT_EQ(dram->readBytes(), dram_reads);
    EXPECT_EQ(l1s[0]->counters().pfsStores, 1u);
}

TEST_F(CoherenceFixture, PfsStillInvalidatesSharers)
{
    build(4);
    load(1, 0x1000);
    store(0, 0x1000, true);
    EXPECT_EQ(state(1, 0x1000), MesiState::Invalid);
    EXPECT_EQ(state(0, 0x1000), MesiState::Modified);
}

TEST_F(CoherenceFixture, NormalStoreMissReadsDram)
{
    build(4);
    auto dram_reads = dram->readBytes();
    store(0, 0x1000, false);
    EXPECT_GT(dram->readBytes(), dram_reads);
}

TEST_F(CoherenceFixture, SnoopsChargeStallCycles)
{
    build(4);
    load(0, 0x1000);
    load(1, 0x1000); // snoops core 0 (and 2, 3)
    EXPECT_GE(l1s[0]->takeSnoopStallCycles(), 1u);
    EXPECT_EQ(l1s[0]->takeSnoopStallCycles(), 0u); // consumed
}

TEST_F(CoherenceFixture, DirtyEvictionWritesBack)
{
    build(1);
    // 32 KB 2-way, 32 B lines -> 512 sets; same-set stride 16 KB.
    const Addr stride = 16 * 1024;
    store(0, 0x0);
    load(0, stride);
    auto wb_before = l1s[0]->counters().writebacks;
    load(0, 2 * stride); // evicts the dirty line at 0
    EXPECT_EQ(l1s[0]->counters().writebacks, wb_before + 1);
    EXPECT_EQ(state(0, 0x0), MesiState::Invalid);
}

TEST_F(CoherenceFixture, StoreBufferMergesSameLine)
{
    build(1);
    // First store misses and parks in the buffer; stores to the same
    // line coalesce instead of re-issuing.
    bool ok1 = l1s[0]->store(0, 0x2000, false, [](Tick) {});
    bool ok2 = l1s[0]->store(0, 0x2004, false, [](Tick) {});
    EXPECT_TRUE(ok1);
    EXPECT_TRUE(ok2);
    EXPECT_EQ(l1s[0]->counters().storeMisses, 1u);
    EXPECT_EQ(l1s[0]->counters().storeMerged, 1u);
    eq.run();
    EXPECT_EQ(state(0, 0x2000), MesiState::Modified);
}

TEST_F(CoherenceFixture, StoreBufferFullBlocksCore)
{
    build(1);
    // Fill all 8 store-buffer entries with distinct line misses.
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(
            l1s[0]->store(0, Addr(i) * 0x1000, false, [](Tick) {}));
    }
    bool accepted_late = false;
    bool ok = l1s[0]->store(0, 0x9000, false,
                            [&](Tick) { accepted_late = true; });
    EXPECT_FALSE(ok); // buffer full: core must wait
    eq.run();
    EXPECT_TRUE(accepted_late);
    EXPECT_EQ(state(0, 0x9000), MesiState::Modified);
}

TEST_F(CoherenceFixture, MshrMergesConcurrentLoads)
{
    build(1);
    int resumes = 0;
    l1s[0]->load(0, 0x3000, [&](Tick) { ++resumes; });
    l1s[0]->load(0, 0x3008, [&](Tick) { ++resumes; }); // same line
    EXPECT_EQ(l1s[0]->counters().loadMisses, 2u);
    eq.run();
    EXPECT_EQ(resumes, 2);
    EXPECT_EQ(l1s[0]->counters().fills, 1u); // one fill serves both
}

TEST_F(CoherenceFixture, NonCoherentModeNeverSnoops)
{
    build(4, false);
    load(0, 0x1000);
    load(1, 0x1000);
    EXPECT_EQ(fabric->counters().snoopProbes, 0u);
    EXPECT_EQ(l1s[0]->counters().snoopsReceived, 0u);
    // Both installed Exclusive: no sharing semantics.
    EXPECT_EQ(state(0, 0x1000), MesiState::Exclusive);
    EXPECT_EQ(state(1, 0x1000), MesiState::Exclusive);
}

TEST_F(CoherenceFixture, AtomicAcquiresOwnership)
{
    build(4);
    load(1, 0x4000);
    Tick done = 0;
    l1s[0]->atomic(eq.now(), 0x4000, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(state(0, 0x4000), MesiState::Modified);
    EXPECT_EQ(state(1, 0x4000), MesiState::Invalid);
}

TEST_F(CoherenceFixture, LatencyHierarchyIsOrdered)
{
    build(8);
    // Cold miss to DRAM.
    Tick t0 = eq.now();
    Tick dram_done = 0;
    l1s[0]->load(t0, 0x8000, [&](Tick t) { dram_done = t; });
    eq.run();

    // Local cache-to-cache supply.
    Tick t1 = eq.now();
    Tick local_done = 0;
    l1s[1]->load(t1, 0x8000, [&](Tick t) { local_done = t; });
    eq.run();

    // Remote-cluster supply.
    Tick t2 = eq.now();
    Tick remote_done = 0;
    l1s[4]->load(t2, 0x8000, [&](Tick t) { remote_done = t; });
    eq.run();

    Tick dram_lat = dram_done - t0;
    Tick local_lat = local_done - t1;
    Tick remote_lat = remote_done - t2;
    EXPECT_LT(local_lat, remote_lat);
    EXPECT_LT(remote_lat, dram_lat);
    EXPECT_GE(dram_lat, 70 * ticksPerNs);
}

/**
 * Randomized protocol invariant: after any sequence of sequentially
 * completed operations, a Modified line in one cache implies no
 * other valid copy (single-writer / multiple-reader).
 */
TEST_F(CoherenceFixture, RandomTrafficPreservesSWMR)
{
    build(8);
    Rng rng(4);
    const int lines = 16;
    for (int i = 0; i < 3000; ++i) {
        int core = int(rng.nextBelow(8));
        Addr a = rng.nextBelow(lines) * 32;
        switch (rng.nextBelow(3)) {
          case 0:
            load(core, a);
            break;
          case 1:
            store(core, a);
            break;
          default:
            store(core, a, true);
            break;
        }

        // Check SWMR over every line.
        for (int l = 0; l < lines; ++l) {
            int writers = 0, readers = 0;
            for (auto &l1 : l1s) {
                MesiState s = MesiState::Invalid;
                if (const auto *ln = l1->tags().lookup(Addr(l) * 32))
                    s = ln->state;
                if (s == MesiState::Modified ||
                    s == MesiState::Exclusive)
                    ++writers;
                else if (s == MesiState::Shared)
                    ++readers;
            }
            EXPECT_LE(writers, 1) << "line " << l << " iter " << i;
            if (writers == 1) {
                EXPECT_EQ(readers, 0)
                    << "line " << l << " iter " << i;
            }
        }
    }
}

} // namespace
} // namespace cmpmem
