/**
 * @file
 * Functional verification of every paper workload on both memory
 * models: each kernel is a real algorithm, so its output must match
 * the host-side reference bit-exactly. Also sanity-checks the
 * model-specific machinery each run is expected to exercise, checks
 * that verify() rejects a corrupted output, and holds depth's
 * block-level disparity search to the per-pixel search it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

struct Case
{
    const char *workload;
    MemModel model;
};

std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    return std::string(info.param.workload) + "_" +
           to_string(info.param.model);
}

class WorkloadFunctional : public testing::TestWithParam<Case>
{
};

TEST_P(WorkloadFunctional, VerifiesOn4Cores)
{
    const Case &c = GetParam();
    SystemConfig cfg = makeConfig(4, c.model);
    WorkloadParams params;
    params.scale = 0; // tiny inputs for test speed

    RunResult r = runWorkload(c.workload, cfg, params);

    EXPECT_TRUE(r.verified) << c.workload << " output mismatch";
    EXPECT_GT(r.stats.execTicks, 0u);
    EXPECT_GT(r.stats.coreTotal.instructions(), 0u);

    if (c.model == MemModel::STR) {
        // Streaming runs move data with DMA (raytrace keeps its tree
        // in the small cache but still streams pixels out).
        EXPECT_GT(r.stats.dmaAccesses, 0u) << c.workload;
    } else {
        EXPECT_GT(r.stats.l1Total.demandAccesses(), 0u) << c.workload;
    }

    // Every run has energy in every live component.
    EXPECT_GT(r.energy.coreMj, 0.0);
    EXPECT_GT(r.energy.dramMj, 0.0);
    EXPECT_GT(r.energy.totalMj(), 0.0);
}

constexpr Case kCases[] = {
    {"mpeg2", MemModel::CC},    {"mpeg2", MemModel::STR},
    {"h264", MemModel::CC},     {"h264", MemModel::STR},
    {"raytrace", MemModel::CC}, {"raytrace", MemModel::STR},
    {"jpeg_enc", MemModel::CC}, {"jpeg_enc", MemModel::STR},
    {"jpeg_dec", MemModel::CC}, {"jpeg_dec", MemModel::STR},
    {"depth", MemModel::CC},    {"depth", MemModel::STR},
    {"fem", MemModel::CC},      {"fem", MemModel::STR},
    {"fir", MemModel::CC},      {"fir", MemModel::STR},
    {"art", MemModel::CC},      {"art", MemModel::STR},
    {"bitonic", MemModel::CC},  {"bitonic", MemModel::STR},
    {"merge", MemModel::CC},    {"merge", MemModel::STR},
};

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctional,
                         testing::ValuesIn(kCases), caseName);

/** The unoptimized (Figure 9/10) variants must also verify. */
TEST(WorkloadVariants, UnoptimizedVariantsVerify)
{
    WorkloadParams params;
    params.scale = 0;
    params.streamOptimized = false;
    for (const char *name : {"mpeg2", "art"}) {
        RunResult r =
            runWorkload(name, makeConfig(4, MemModel::CC), params);
        EXPECT_TRUE(r.verified) << name;
    }
}

/** PFS and prefetch configurations keep outputs correct. */
TEST(WorkloadVariants, PfsAndPrefetchVerify)
{
    WorkloadParams params;
    params.scale = 0;

    SystemConfig pfs = makeConfig(4, MemModel::CC);
    pfs.pfsEnabled = true;
    RunResult r1 = runWorkload("fir", pfs, params);
    EXPECT_TRUE(r1.verified);
    EXPECT_GT(r1.stats.l1Total.pfsStores, 0u);

    SystemConfig pf = makeConfig(4, MemModel::CC);
    pf.hwPrefetch = true;
    pf.prefetchDepth = 4;
    RunResult r2 = runWorkload("merge", pf, params);
    EXPECT_TRUE(r2.verified);
    EXPECT_GT(r2.stats.l1Total.prefetchesIssued, 0u);
    EXPECT_GT(r2.stats.l1Total.prefetchesUseful, 0u);
}

/** Workloads verify across core counts (1, 2, 8, 16). */
TEST(WorkloadVariants, CoreCountSweepVerifies)
{
    WorkloadParams params;
    params.scale = 0;
    for (int cores : {1, 2, 8, 16}) {
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            RunResult r = runWorkload("fir", makeConfig(cores, m),
                                      params);
            EXPECT_TRUE(r.verified)
                << cores << " cores " << to_string(m);
        }
    }
}

constexpr int kBlock = 32;
constexpr int kMaxDisp = 16;
constexpr int kWin = 8;

/**
 * The depth workload's original per-pixel search, kept verbatim as
 * the oracle for blockDisparities(): 16 disparities x 64 taps per
 * pixel, window clamped inside the block, first minimum on ties.
 */
std::uint8_t
bestDisparityForPixel(const std::uint8_t *lbuf, const std::uint8_t *rbuf,
                      int strip_cols, int px, int py)
{
    int wx = std::min(std::max(px - kWin / 2, 0), kBlock - kWin);
    int wy = std::min(std::max(py - kWin / 2, 0), kBlock - kWin);
    std::uint64_t best = ~0ull;
    int bestD = 0;
    for (int d = 0; d < kMaxDisp; ++d) {
        std::uint64_t sad = 0;
        for (int y = 0; y < kWin; ++y) {
            for (int x = 0; x < kWin; ++x) {
                int rc = std::min(wx + x + d, strip_cols - 1);
                sad += std::uint64_t(
                    std::abs(int(lbuf[(wy + y) * kBlock + wx + x]) -
                             int(rbuf[(wy + y) * strip_cols + rc])));
            }
        }
        if (sad < best) {
            best = sad;
            bestD = d;
        }
    }
    return std::uint8_t(bestD);
}

/** A left block and a right strip of @p cols columns. */
struct StereoBlock
{
    int cols;
    std::vector<std::uint8_t> left;
    std::vector<std::uint8_t> right;

    /** Fill both with @p pixel(rng), left first, row-major. */
    StereoBlock(int strip_cols, Rng &rng,
                const std::function<std::uint8_t(Rng &)> &pixel)
        : cols(strip_cols), left(kBlock * kBlock),
          right(std::size_t(kBlock) * strip_cols)
    {
        for (auto &v : left)
            v = pixel(rng);
        for (auto &v : right)
            v = pixel(rng);
    }

    /** blockDisparities() output, checked pixel by pixel. */
    std::vector<std::uint8_t>
    checkAgainstOracle() const
    {
        std::vector<std::uint8_t> got(kBlock * kBlock);
        blockDisparities(left.data(), right.data(), cols, got.data());
        for (int y = 0; y < kBlock; ++y) {
            for (int x = 0; x < kBlock; ++x) {
                EXPECT_EQ(int(got[y * kBlock + x]),
                          int(bestDisparityForPixel(left.data(),
                                                    right.data(), cols,
                                                    x, y)))
                    << "strip " << cols << " pixel (" << x << ", " << y
                    << ")";
            }
        }
        return got;
    }
};

std::uint8_t
anyByte(Rng &rng)
{
    return std::uint8_t(rng.next());
}

TEST(DepthBlockSearch, MatchesPerPixelSearchOnRandomBlocks)
{
    Rng rng(2024);
    for (int cols = 1; cols <= kBlock + kMaxDisp; ++cols) {
        for (int rep = 0; rep < 3; ++rep)
            StereoBlock(cols, rng, anyByte).checkAgainstOracle();
    }
}

TEST(DepthBlockSearch, AllEqualBlocksTieToZero)
{
    Rng rng(1);
    for (int cols : {1, 7, 32, 48}) {
        for (int v : {0, 128, 255}) {
            auto same = [v](Rng &) { return std::uint8_t(v); };
            auto got = StereoBlock(cols, rng, same).checkAgainstOracle();
            EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                                    [](std::uint8_t d) { return d == 0; }));
        }
    }
}

TEST(DepthBlockSearch, TwoLevelNoiseTies)
{
    Rng rng(7);
    auto twoLevel = [](Rng &r) { return std::uint8_t(r.nextBelow(2)); };
    for (int cols : {1, 2, 17, 31, 32, 33, 47, 48}) {
        for (int rep = 0; rep < 4; ++rep)
            StereoBlock(cols, rng, twoLevel).checkAgainstOracle();
    }
}

TEST(DepthBlockSearch, MaxContrastBlocks)
{
    Rng rng(255);
    auto contrast = [](Rng &r) {
        return std::uint8_t(r.nextBelow(2) ? 255 : 0);
    };
    for (int cols : {1, 8, 32, 48}) {
        for (int rep = 0; rep < 4; ++rep)
            StereoBlock(cols, rng, contrast).checkAgainstOracle();
    }
    // Left all 255 against right all 0: every SAD is 64 * 255.
    StereoBlock extreme(48, rng, [](Rng &) { return std::uint8_t(0); });
    std::fill(extreme.left.begin(), extreme.left.end(), 255);
    extreme.checkAgainstOracle();
}

TEST(DepthBlockSearch, PlantedUniqueMinimumAtLastDisparity)
{
    Rng rng(15);
    StereoBlock b(kBlock + kMaxDisp, rng, anyByte);
    const int d = kMaxDisp - 1;
    for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x)
            b.right[y * b.cols + x + d] = b.left[y * kBlock + x];
    }
    auto got = b.checkAgainstOracle();
    EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                            [d](std::uint8_t v) { return v == d; }));
}

/**
 * verify() must read the kernel's output from simulated memory: with
 * the kernel and verify() sharing blockDisparities(), a verify() that
 * recomputed instead would pass every run above. Flip one output byte
 * of a finished depth run and require verify() to reject it.
 */
TEST(WorkloadVerify, DepthRejectsCorruptedOutput)
{
    for (MemModel m : {MemModel::CC, MemModel::STR}) {
        WorkloadParams params;
        params.scale = 0; // one 320x224 pair
        CmpSystem sys(makeConfig(4, m));
        auto workload = createWorkload("depth", params);
        workload->setup(sys);
        for (int i = 0; i < sys.cores(); ++i)
            sys.bindKernel(i, workload->kernel(sys.context(i)));
        sys.simulate();
        ASSERT_TRUE(workload->verify(sys)) << to_string(m);

        // Left frame, right frame, then the disparity map: three
        // 64-byte-aligned allocations from the first alloc base.
        const int width = 320;
        const Addr frameBytes = Addr(width) * 224;
        const Addr disp = 0x10000 + 2 * frameBytes;
        // An interior block, and the right-edge block whose search
        // strip is cut to 32 columns.
        for (auto [x, y] : {std::pair{133, 103}, std::pair{318, 50}}) {
            const Addr a = disp + Addr(y) * width + Addr(x);
            auto &mem = sys.mem();
            const auto v = mem.read<std::uint8_t>(a);
            mem.write<std::uint8_t>(a, std::uint8_t(v ^ 1));
            EXPECT_FALSE(workload->verify(sys))
                << to_string(m) << " pixel (" << x << ", " << y << ")";
            mem.write<std::uint8_t>(a, v);
            EXPECT_TRUE(workload->verify(sys)) << to_string(m);
        }
    }
}

} // namespace
} // namespace cmpmem
