/**
 * @file
 * Streaming substrate tests: local store functional behaviour and
 * DMA engine correctness (sequential, strided, indexed) and timing
 * (outstanding-access limit, channel contention).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
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
    auto expectOutOfRange = [](auto &&access) {
        try {
            access();
            ADD_FAILURE() << "out-of-range access accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Model);
            EXPECT_NE(std::string(e.what()).find("out of range"),
                      std::string::npos)
                << e.what();
        }
    };
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

    auto t1 = dma->get(0, 0x1000, 0, 256);
    EXPECT_GT(dma->completionTick(t1), 0u);
    std::uint8_t out[256];
    ls->read(0, out, 256);
    EXPECT_EQ(std::memcmp(out, data.data(), 256), 0);

    // Mutate in LS and put elsewhere.
    ls->write<std::uint8_t>(0, 0xff);
    dma->put(dma->completionTick(t1), 0x2000, 0, 256);
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
    dma->getStrided(0, 0x4000, 64, 8, 4, 100);
    for (int r = 0; r < 4; ++r)
        for (int b = 0; b < 8; ++b)
            EXPECT_EQ(ls->read<std::uint8_t>(100 + r * 8 + b),
                      std::uint8_t(r * 16 + b));
}

TEST_F(DmaFixture, StridedScatterInverse)
{
    for (int i = 0; i < 32; ++i)
        ls->write<std::uint8_t>(std::uint32_t(i), std::uint8_t(i + 1));
    dma->putStrided(0, 0x5000, 128, 8, 4, 0);
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
    dma->getIndexed(0, addrs, 4, 0);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(ls->read<std::uint32_t>(std::uint32_t(i) * 4),
                  std::uint32_t(1000 + i));

    std::vector<Addr> dsts{0x8000, 0x8200};
    ls->write<std::uint32_t>(0, 7);
    ls->write<std::uint32_t>(4, 9);
    dma->putIndexed(0, dsts, 4, 0);
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
        dma->getStrided(0, base, stride, row_bytes, rows, 512);
        std::vector<std::uint8_t> got(rows * row_bytes);
        ls->read(512, got.data(), got.size());
        EXPECT_EQ(got, oracle) << "trial " << trial;
    }
}

TEST_F(DmaFixture, OutstandingLimitThrottlesIssue)
{
    // A large transfer decomposes into many 32 B accesses; with only
    // 16 in flight the completion must exceed a naive lower bound of
    // full pipelining.
    auto t = dma->get(0, 0x20000, 0, 16 * 1024);
    Tick done = dma->completionTick(t);
    // 512 accesses, 16 at a time: at least 32 "waves" of DRAM
    // occupancy (10 ns per 32 B at 3.2 GB/s).
    EXPECT_GT(done, 512u * 10000u / 2);
    EXPECT_EQ(dma->counters().accesses, 512u);
    EXPECT_EQ(dma->counters().bytesRead, 16u * 1024);
}

TEST_F(DmaFixture, TicketsTrackIndividualCommands)
{
    auto t1 = dma->get(0, 0x1000, 0, 32);
    auto t2 = dma->get(dma->completionTick(t1), 0x2000, 32, 4096);
    EXPECT_LT(dma->completionTick(t1), dma->completionTick(t2));
    EXPECT_EQ(dma->allDoneTick(), dma->completionTick(t2));
    EXPECT_EQ(dma->counters().commands, 2u);
}

TEST_F(DmaFixture, FullLinePutAvoidsL2Refill)
{
    auto avoided = l2->refillsAvoided();
    ls->write<std::uint32_t>(0, 1);
    dma->put(0, 0x30000, 0, 32); // exactly one full line
    EXPECT_EQ(l2->refillsAvoided(), avoided + 1);

    // A sub-line put must refill (read-modify-write at the L2).
    auto reads = dram->readBytes();
    dma->put(dma->allDoneTick(), 0x31000, 0, 8);
    EXPECT_GT(dram->readBytes(), reads);
}

} // namespace
} // namespace cmpmem
