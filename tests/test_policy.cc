/**
 * @file
 * Cache-policy trait tests (DESIGN.md §15): insertion semantics of
 * MIP/LIP/BIP against a single-set array, BIP's deterministic
 * bimodal choice replayed against a replica Rng, lookup()'s
 * side-effect freedom, the Markov and stream-buffer prefetch
 * engines, and serial-vs-parallel bit-identity of a non-default
 * policy sweep.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"
#include "mem/cache_array.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stream_buffer_prefetcher.hh"
#include "sim/rng.hh"

namespace cmpmem
{
namespace
{

constexpr std::uint32_t kLine = 32;

/** One 4-way set: every line address collides. */
CacheGeometry
oneSet()
{
    CacheGeometry g;
    g.sizeBytes = 4 * kLine;
    g.assoc = 4;
    g.lineBytes = kLine;
    return g;
}

ReplacementConfig
policyCfg(ReplacementPolicy p, std::uint32_t throttle = 32,
          std::uint64_t seed = 1)
{
    ReplacementConfig r;
    r.policy = p;
    r.bipThrottle = throttle;
    r.seed = seed;
    return r;
}

/** Fill all four ways with lines 0, 0x20, 0x40, 0x60. */
void
fillSet(CacheArray &arr)
{
    for (Addr a = 0; a < 4 * kLine; a += kLine) {
        CacheArray::Victim v;
        arr.allocate(a, v).state = MesiState::Exclusive;
        EXPECT_FALSE(v.valid);
    }
}

TEST(PolicyNames, RoundTrip)
{
    for (ReplacementPolicy p :
         {ReplacementPolicy::LRU, ReplacementPolicy::MIP,
          ReplacementPolicy::LIP, ReplacementPolicy::BIP}) {
        ReplacementPolicy back;
        ASSERT_TRUE(parseReplacementPolicy(to_string(p), back));
        EXPECT_EQ(back, p);
    }
    ReplacementPolicy r;
    EXPECT_FALSE(parseReplacementPolicy("plru", r));

    for (PrefetchPolicy p :
         {PrefetchPolicy::Stream, PrefetchPolicy::Markov,
          PrefetchPolicy::StreamBuffer}) {
        PrefetchPolicy back;
        ASSERT_TRUE(parsePrefetchPolicy(to_string(p), back));
        EXPECT_EQ(back, p);
    }
    PrefetchPolicy q;
    EXPECT_FALSE(parsePrefetchPolicy("ghb", q));
}

TEST(InsertionPolicy, MipEvictsInInsertionOrder)
{
    // MRU insertion: with no intervening touches the victim sequence
    // replays the fill sequence.
    CacheArray arr(oneSet(), policyCfg(ReplacementPolicy::MIP));
    fillSet(arr);
    for (int k = 0; k < 3; ++k) {
        CacheArray::Victim v;
        arr.allocate(Addr(0x1000 + k * kLine), v).state =
            MesiState::Exclusive;
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.addr, Addr(k) * kLine);
    }
}

TEST(InsertionPolicy, LipInsertsAtStackBottom)
{
    // LIP: incoming lines get stamp 0, so an untouched newcomer is
    // itself the next victim — the working set in the other ways is
    // protected from a scanning stream.
    CacheArray arr(oneSet(), policyCfg(ReplacementPolicy::LIP));
    fillSet(arr);

    CacheArray::Victim v;
    arr.allocate(0x1000, v).state = MesiState::Exclusive;
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u); // all stamps tie at 0; lowest way loses

    arr.allocate(0x2000, v).state = MesiState::Exclusive;
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x1000u); // the newcomer thrashes in place
    EXPECT_NE(arr.lookup(0x20), nullptr);
    EXPECT_NE(arr.lookup(0x40), nullptr);
    EXPECT_NE(arr.lookup(0x60), nullptr);
}

TEST(InsertionPolicy, TouchPromotesUnderLip)
{
    // A demand hit promotes to MRU under every policy; a touched
    // line survives the scan that recycles way 0.
    CacheArray arr(oneSet(), policyCfg(ReplacementPolicy::LIP));
    fillSet(arr);
    arr.touch(*arr.lookup(Addr(0x40)));

    CacheArray::Victim v;
    arr.allocate(0x1000, v).state = MesiState::Exclusive;
    EXPECT_EQ(v.addr, 0u);
    arr.allocate(0x2000, v).state = MesiState::Exclusive;
    EXPECT_EQ(v.addr, 0x1000u);
    EXPECT_NE(arr.lookup(0x40), nullptr);
}

TEST(InsertionPolicy, BipMatchesReplicaRngExactly)
{
    // BIP's bimodal choice is the only randomness in the array, and
    // it draws from the seeded Rng in allocation order — so a
    // replica generator predicts every insertion stamp.
    const std::uint32_t throttle = 4;
    const std::uint64_t seed = 7;
    CacheArray arr(oneSet(),
                   policyCfg(ReplacementPolicy::BIP, throttle, seed));

    Rng replica(seed);
    std::uint64_t clock = 0;
    std::size_t mru_inserts = 0;
    for (int k = 0; k < 64; ++k) {
        CacheArray::Victim v;
        CacheArray::Line &l =
            arr.allocate(Addr(0x10000 + k * kLine), v);
        l.state = MesiState::Exclusive;
        if (replica.nextBelow(throttle) == 0) {
            ++mru_inserts;
            EXPECT_EQ(l.lruStamp, ++clock) << "allocation " << k;
        } else {
            EXPECT_EQ(l.lruStamp, 0u) << "allocation " << k;
        }
    }
    // Statistically ~16 of 64; assert the draw is genuinely bimodal.
    EXPECT_GT(mru_inserts, 0u);
    EXPECT_LT(mru_inserts, 64u);
}

TEST(InsertionPolicy, BipThrottleOneIsMip)
{
    // nextBelow(1) is always 0: every insertion goes to MRU, which
    // is exactly MIP. The victim sequence must replay fill order.
    CacheArray arr(oneSet(), policyCfg(ReplacementPolicy::BIP, 1));
    fillSet(arr);
    for (int k = 0; k < 3; ++k) {
        CacheArray::Victim v;
        arr.allocate(Addr(0x1000 + k * kLine), v).state =
            MesiState::Exclusive;
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.addr, Addr(k) * kLine);
    }
}

TEST(InsertionPolicy, BipSameSeedSameVictims)
{
    auto victims = [](std::uint64_t seed) {
        CacheArray arr(oneSet(),
                       policyCfg(ReplacementPolicy::BIP, 2, seed));
        std::vector<Addr> out;
        for (int k = 0; k < 32; ++k) {
            CacheArray::Victim v;
            arr.allocate(Addr(k) * kLine, v).state =
                MesiState::Exclusive;
            if (v.valid)
                out.push_back(v.addr);
        }
        return out;
    };
    EXPECT_EQ(victims(11), victims(11));
    EXPECT_NE(victims(11), victims(12)); // the seed actually matters
}

TEST(CacheArrayLookup, NoSideEffectsOnReplacement)
{
    // lookup() must not promote, through either overload: under LIP
    // every fill stamps 0, so way 0 stays the victim however often it
    // is probed (a promotion would hand the eviction to way 1).
    CacheArray arr(oneSet(), policyCfg(ReplacementPolicy::LIP));
    fillSet(arr);
    const CacheArray &carr = arr;
    for (int k = 0; k < 8; ++k) {
        ASSERT_NE(carr.lookup(0), nullptr);
        EXPECT_EQ(arr.lookup(0), carr.lookup(0));
        EXPECT_EQ(arr.lookup(0x60), carr.lookup(0x60));
    }
    CacheArray::Victim v;
    arr.allocate(0x1000, v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u);
}

TEST(MarkovPrefetcher, LearnsRecordedTransitions)
{
    PrefetcherConfig cfg;
    cfg.lineBytes = kLine;
    MarkovPrefetcher pf(cfg);

    // Distinct rows of the 256-entry direct-mapped table (line
    // numbers differ mod 256); a conflict would retag the row.
    const Addr A = 0x1000, B = 0x1100;
    EXPECT_TRUE(pf.onMiss(A).empty()); // cold
    EXPECT_TRUE(pf.onMiss(B).empty()); // records A -> B
    auto pred = pf.onMiss(A);          // records B -> A, predicts from A
    ASSERT_EQ(pred.size(), 1u);
    EXPECT_EQ(pred.front(), B);
    EXPECT_EQ(pf.transitionsRecorded(), 2u);

    // A tagged hit chases the chain without recording.
    auto chase = pf.onPrefetchHit(B);
    ASSERT_EQ(chase.size(), 1u);
    EXPECT_EQ(chase.front(), A);
    EXPECT_EQ(pf.transitionsRecorded(), 2u);
}

TEST(MarkovPrefetcher, SuccessorsAreMruOrderedAndBounded)
{
    PrefetcherConfig cfg;
    cfg.lineBytes = kLine;
    cfg.markovSuccessors = 2;
    MarkovPrefetcher pf(cfg);

    const Addr A = 0x1000, B = 0x1100, C = 0x1200, D = 0x1300;
    pf.onMiss(A);
    pf.onMiss(B); // A -> B
    pf.onMiss(A);
    pf.onMiss(C); // A -> C
    pf.onMiss(A);
    pf.onMiss(D); // A -> D, evicting the LRU successor B
    auto pred = pf.onMiss(A);
    ASSERT_EQ(pred.size(), 2u);
    EXPECT_EQ(pred[0], D); // most recent first
    EXPECT_EQ(pred[1], C);
}

TEST(StreamBufferPrefetcher, AllocatesOnMissAndRunsAhead)
{
    PrefetcherConfig cfg;
    cfg.lineBytes = kLine;
    cfg.streamBuffers = 2;
    cfg.streamBufferDepth = 4;
    StreamBufferPrefetcher pf(cfg);

    auto lines = pf.onMiss(0x1000);
    ASSERT_EQ(lines.size(), 4u);
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], 0x1000 + (i + 1) * kLine);
    EXPECT_EQ(pf.buffersAllocated(), 1u);

    // Consuming the buffer head tops the stream back up by one line.
    auto more = pf.onPrefetchHit(0x1000 + kLine);
    ASSERT_EQ(more.size(), 1u);
    EXPECT_EQ(more.front(), 0x1000 + 5 * kLine);

    // A hit that no buffer owns is ignored.
    EXPECT_TRUE(pf.onPrefetchHit(0x9000).empty());
}

TEST(PolicySweep, MarkovBipParallelMatchesSerialBitIdentical)
{
    // A non-default policy point (BIP arrays + Markov prefetch) must
    // be as deterministic as the default: the per-job stat digests
    // cannot depend on sweep worker count.
    WorkloadParams tiny;
    tiny.scale = 0;

    std::vector<PolicyPoint> pts = {
        {"bip", ReplacementPolicy::BIP, ReplacementPolicy::BIP,
         PrefetchPolicy::Stream, true},
        {"markov", ReplacementPolicy::LRU, ReplacementPolicy::LRU,
         PrefetchPolicy::Markov, true},
    };

    auto makeSpec = [&] {
        SweepSpec spec("policy_determinism");
        spec.base(makeConfig(2, MemModel::CC))
            .baseParams(tiny)
            .workloads({"fir"})
            .modelAxis({MemModel::CC})
            .policyAxis(pts);
        return spec;
    };

    SweepOptions serial;
    serial.jobs = 1;
    serial.echoLogs = false;
    SweepOptions parallel;
    parallel.jobs = 4;
    parallel.echoLogs = false;

    SweepResult a = runSweep(makeSpec(), serial);
    SweepResult b = runSweep(makeSpec(), parallel);

    ASSERT_EQ(a.jobs().size(), 2u);
    ASSERT_EQ(b.jobs().size(), 2u);
    for (const auto &ja : a.jobs()) {
        const JobResult &jb = b.at(ja.job.id);
        ASSERT_TRUE(ja.ran) << ja.error;
        ASSERT_TRUE(jb.ran) << jb.error;
        EXPECT_EQ(ja.run.stats.toStatSet().digest(),
                  jb.run.stats.toStatSet().digest())
            << ja.job.id;
    }
}

} // namespace
} // namespace cmpmem
