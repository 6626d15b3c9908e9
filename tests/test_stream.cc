/**
 * @file
 * Streaming substrate tests: local store functional behaviour and
 * DMA engine correctness (sequential, strided, indexed, and commands
 * that overrun the local store) and timing (outstanding-access limit,
 * channel contention).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "mem/l2_cache.hh"
#include "sim/rng.hh"
#include "sim/sim_error.hh"
#include "stream/dma_engine.hh"
#include "stream/local_store.hh"

namespace cmpmem
{
namespace
{

/** Run @p access, which must overrun the local store. */
template <typename Access>
void
expectOutOfRange(Access &&access)
{
    try {
        access();
        ADD_FAILURE() << "out-of-range access accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Model);
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LocalStore, RoundTripAndBounds)
{
    LocalStore ls(1024);
    ls.write<std::uint32_t>(16, 0xabcd1234);
    EXPECT_EQ(ls.read<std::uint32_t>(16), 0xabcd1234u);
    EXPECT_EQ(ls.size(), 1024u);

    // The last whole word is in range; one byte further is a
    // workload bug, raised as a model error.
    ls.write<std::uint32_t>(1020, 7);
    EXPECT_EQ(ls.read<std::uint32_t>(1020), 7u);
    expectOutOfRange([&] { ls.read<std::uint32_t>(1021); });
    expectOutOfRange([&] { ls.write<std::uint32_t>(1021, 7); });
    expectOutOfRange([&] { ls.read<std::uint64_t>(0xfffffffcu); });
}

class DmaFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dram = std::make_unique<DramChannel>(DramConfig{});
        l2 = std::make_unique<L2Cache>(L2Config{}, *dram);
        fabric = std::make_unique<CoherenceFabric>(
            InterconnectConfig{}, 4, 4, *l2, *dram);
        ls = std::make_unique<LocalStore>(24 * 1024);
        dma = std::make_unique<DmaEngine>(0, DmaConfig{}, *fabric, mem,
                                          *ls);
    }

    /** Sequential transfers: one strided row. */
    DmaEngine::Ticket
    get(Tick t, Addr mem_addr, std::uint32_t ls_off, std::uint32_t bytes)
    {
        return dma->strided(t, DmaEngine::Dir::Get, mem_addr, 0, bytes, 1,
                            ls_off);
    }

    DmaEngine::Ticket
    put(Tick t, Addr mem_addr, std::uint32_t ls_off, std::uint32_t bytes)
    {
        return dma->strided(t, DmaEngine::Dir::Put, mem_addr, 0, bytes, 1,
                            ls_off);
    }

    /** A copy of every local-store byte. */
    std::vector<std::uint8_t>
    lsBytes()
    {
        std::span<std::uint8_t> all = ls->span(0, ls->size());
        return {all.begin(), all.end()};
    }

    FunctionalMemory mem;
    std::unique_ptr<DramChannel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CoherenceFabric> fabric;
    std::unique_ptr<LocalStore> ls;
    std::unique_ptr<DmaEngine> dma;
};

TEST_F(DmaFixture, SequentialGetPutRoundTrip)
{
    std::vector<std::uint8_t> data(256);
    for (int i = 0; i < 256; ++i)
        data[i] = std::uint8_t(i);
    mem.write(0x1000, data.data(), data.size());

    auto t1 = get(0, 0x1000, 0, 256);
    EXPECT_GT(dma->completionTick(t1), 0u);
    EXPECT_EQ(std::memcmp(ls->span(0, 256).data(), data.data(), 256), 0);

    // Mutate in LS and put elsewhere.
    ls->write<std::uint8_t>(0, 0xff);
    put(dma->completionTick(t1), 0x2000, 0, 256);
    EXPECT_EQ(mem.read<std::uint8_t>(0x2000), 0xff);
    EXPECT_EQ(mem.read<std::uint8_t>(0x2001), 1);
}

TEST_F(DmaFixture, StridedGatherPacksDensely)
{
    // 4 rows of 8 bytes, 64 bytes apart.
    for (int r = 0; r < 4; ++r)
        for (int b = 0; b < 8; ++b)
            mem.write<std::uint8_t>(0x4000 + Addr(r) * 64 + b,
                                    std::uint8_t(r * 16 + b));
    dma->strided(0, DmaEngine::Dir::Get, 0x4000, 64, 8, 4, 100);
    for (int r = 0; r < 4; ++r)
        for (int b = 0; b < 8; ++b)
            EXPECT_EQ(ls->read<std::uint8_t>(100 + r * 8 + b),
                      std::uint8_t(r * 16 + b));
}

TEST_F(DmaFixture, StridedScatterInverse)
{
    for (int i = 0; i < 32; ++i)
        ls->write<std::uint8_t>(std::uint32_t(i), std::uint8_t(i + 1));
    dma->strided(0, DmaEngine::Dir::Put, 0x5000, 128, 8, 4, 0);
    for (int r = 0; r < 4; ++r)
        for (int b = 0; b < 8; ++b)
            EXPECT_EQ(mem.read<std::uint8_t>(0x5000 + Addr(r) * 128 +
                                             b),
                      std::uint8_t(r * 8 + b + 1));
}

TEST_F(DmaFixture, IndexedGatherScatter)
{
    std::vector<Addr> addrs{0x7000, 0x7100, 0x7040};
    for (std::size_t i = 0; i < addrs.size(); ++i)
        mem.write<std::uint32_t>(addrs[i], std::uint32_t(1000 + i));
    dma->indexed(0, DmaEngine::Dir::Get, addrs, 4, 0);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(ls->read<std::uint32_t>(std::uint32_t(i) * 4),
                  std::uint32_t(1000 + i));

    std::vector<Addr> dsts{0x8000, 0x8200};
    ls->write<std::uint32_t>(0, 7);
    ls->write<std::uint32_t>(4, 9);
    dma->indexed(0, DmaEngine::Dir::Put, dsts, 4, 0);
    EXPECT_EQ(mem.read<std::uint32_t>(0x8000), 7u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x8200), 9u);
}

TEST_F(DmaFixture, PropertyRandomStridesMatchMemcpyOracle)
{
    Rng rng(11);
    for (int trial = 0; trial < 40; ++trial) {
        std::uint32_t rows = 1 + std::uint32_t(rng.nextBelow(8));
        std::uint32_t row_bytes =
            4 * (1 + std::uint32_t(rng.nextBelow(16)));
        std::uint64_t stride =
            row_bytes + 4 * rng.nextBelow(32);
        Addr base = 0x10000 + trial * 0x1000;
        std::vector<std::uint8_t> oracle(rows * row_bytes);
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint32_t b = 0; b < row_bytes; ++b) {
                auto v = std::uint8_t(rng.next());
                mem.write<std::uint8_t>(base + r * stride + b, v);
                oracle[r * row_bytes + b] = v;
            }
        }
        dma->strided(0, DmaEngine::Dir::Get, base, stride, row_bytes, rows,
                     512);
        std::span<std::uint8_t> got = ls->span(512, rows * row_bytes);
        EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), oracle)
            << "trial " << trial;
    }
}

TEST_F(DmaFixture, OutstandingLimitThrottlesIssue)
{
    // A large transfer decomposes into many 32 B accesses; with only
    // 16 in flight the completion must exceed a naive lower bound of
    // full pipelining.
    auto t = get(0, 0x20000, 0, 16 * 1024);
    Tick done = dma->completionTick(t);
    // 512 accesses, 16 at a time: at least 32 "waves" of DRAM
    // occupancy (10 ns per 32 B at 3.2 GB/s).
    EXPECT_GT(done, 512u * 10000u / 2);
    EXPECT_EQ(dma->counters().accesses, 512u);
    EXPECT_EQ(dma->counters().bytesRead, 16u * 1024);
}

TEST_F(DmaFixture, TicketsTrackIndividualCommands)
{
    auto t1 = get(0, 0x1000, 0, 32);
    auto t2 = get(dma->completionTick(t1), 0x2000, 32, 4096);
    EXPECT_LT(dma->completionTick(t1), dma->completionTick(t2));
    EXPECT_EQ(dma->allDoneTick(), dma->completionTick(t2));
    EXPECT_EQ(dma->counters().commands, 2u);
}

TEST_F(DmaFixture, FullLinePutAvoidsL2Refill)
{
    auto avoided = l2->refillsAvoided();
    ls->write<std::uint32_t>(0, 1);
    put(0, 0x30000, 0, 32); // exactly one full line
    EXPECT_EQ(l2->refillsAvoided(), avoided + 1);

    // A sub-line put must refill (read-modify-write at the L2).
    auto reads = dram->readBytes();
    put(dma->allDoneTick(), 0x31000, 0, 8);
    EXPECT_GT(dram->readBytes(), reads);
}

/** A single row of these bytes at this offset crosses the 24 KB end. */
constexpr std::uint32_t kOverrunBytes = 256;
constexpr std::uint32_t kOverrunOff = 24 * 1024 - kOverrunBytes / 2;

TEST_F(DmaFixture, GetPastLocalStoreEndChangesNoLocalStoreByte)
{
    for (std::uint32_t i = 0; i < kOverrunBytes; ++i)
        mem.write<std::uint8_t>(0x9000 + i, std::uint8_t(i + 1));
    for (std::uint32_t i = 0; i < ls->size(); ++i)
        ls->write<std::uint8_t>(i, std::uint8_t(i * 7));
    const std::vector<std::uint8_t> before = lsBytes();
    expectOutOfRange([&] { get(0, 0x9000, kOverrunOff, kOverrunBytes); });
    EXPECT_EQ(lsBytes(), before);
}

TEST_F(DmaFixture, PutPastLocalStoreEndChangesNoMemoryByte)
{
    // The destination and a line either side of it.
    constexpr Addr kDst = 0xa000, kLo = kDst - 32;
    constexpr std::uint32_t kSpan = kOverrunBytes + 64;
    for (std::uint32_t i = 0; i < kSpan; ++i)
        mem.write<std::uint8_t>(kLo + i, std::uint8_t(i * 3));
    for (std::uint32_t i = 0; i < ls->size(); ++i)
        ls->write<std::uint8_t>(i, 0xee);
    std::vector<std::uint8_t> before(kSpan), after(kSpan);
    mem.read(kLo, before.data(), kSpan);
    expectOutOfRange([&] { put(0, kDst, kOverrunOff, kOverrunBytes); });
    mem.read(kLo, after.data(), kSpan);
    EXPECT_EQ(after, before);
}

} // namespace
} // namespace cmpmem
