/**
 * @file
 * Stereo Depth Extraction, "parallelized by dividing input frames
 * into 32x32 blocks and statically assigning them to processors"
 * (Section 4.2). The most compute-intensive workload of the suite
 * (Table 3: 8662 instructions per L1 miss, 11 MB/s off-chip): block
 * matching over a disparity range, where each fetched byte feeds
 * dozens of SAD operations. Both models perform identically here at
 * every core count and frequency — the paper's control case.
 *
 *  - CC: loads the left block and the right search strip through
 *    the cache (they stay resident), then burns SAD compute.
 *  - STR: DMAs the same pixels into the local store.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/rng.hh"
#include "workloads/factories.hh"
#include "workloads/kernels_common.hh"

namespace cmpmem
{
namespace
{

constexpr int kBlock = 32;
constexpr int kMaxDisp = 16;
constexpr int kWin = 8; ///< per-pixel SAD window
/** Bundles per pixel: 16 disparities x 64-pixel window SAD on a
 *  3-slot VLIW (abs-diff + accumulate pairs) plus argmin logic. */
constexpr Cycles kPixelCycles = 360;

} // namespace

void
blockDisparities(const std::uint8_t *lbuf, const std::uint8_t *rbuf,
                 int strip_cols, std::uint8_t *out)
{
    // Window origins are clamped to [0, kSpan) on each axis, so the
    // block's 1024 pixels share only kSpan x kSpan distinct windows.
    constexpr int kSpan = kBlock - kWin + 1;
    constexpr int kPadCols = kBlock + kMaxDisp - 1;

    // The right strip with its last column repeated out to every
    // column a shifted window can reach.
    std::uint8_t rpad[kBlock][kPadCols];
    for (int y = 0; y < kBlock; ++y) {
        for (int c = 0; c < kPadCols; ++c)
            rpad[y][c] =
                rbuf[y * strip_cols + std::min(c, strip_cols - 1)];
    }

    // SADs are at most 64 * 255, so 16 bits hold every sum exactly.
    std::uint16_t best[kSpan][kSpan];
    std::uint8_t bestD[kSpan][kSpan] = {};
    std::fill(&best[0][0], &best[0][0] + kSpan * kSpan,
              std::uint16_t(0xffff));
    std::uint16_t rowSum[kBlock][kSpan];
    for (int d = 0; d < kMaxDisp; ++d) {
        // Row-slide 8-wide sums of the absolute-difference image.
        for (int y = 0; y < kBlock; ++y) {
            std::uint16_t diff[kBlock];
            for (int x = 0; x < kBlock; ++x)
                diff[x] = std::uint16_t(std::abs(
                    int(lbuf[y * kBlock + x]) - int(rpad[y][x + d])));
            std::uint16_t s = 0;
            for (int x = 0; x < kWin - 1; ++x)
                s = std::uint16_t(s + diff[x]);
            for (int wx = 0; wx < kSpan; ++wx) {
                s = std::uint16_t(s + diff[wx + kWin - 1]);
                rowSum[y][wx] = s;
                s = std::uint16_t(s - diff[wx]);
            }
        }
        // Column-slide them into window SADs. Strict < while d
        // ascends keeps the first minimum, as a per-pixel scan does.
        std::uint16_t sad[kSpan] = {};
        for (int y = 0; y < kWin - 1; ++y) {
            for (int wx = 0; wx < kSpan; ++wx)
                sad[wx] = std::uint16_t(sad[wx] + rowSum[y][wx]);
        }
        for (int wy = 0; wy < kSpan; ++wy) {
            for (int wx = 0; wx < kSpan; ++wx) {
                auto s = std::uint16_t(sad[wx] + rowSum[wy + kWin - 1][wx]);
                bool better = s < best[wy][wx];
                best[wy][wx] = better ? s : best[wy][wx];
                bestD[wy][wx] = better ? std::uint8_t(d) : bestD[wy][wx];
                sad[wx] = std::uint16_t(s - rowSum[wy][wx]);
            }
        }
    }

    for (int py = 0; py < kBlock; ++py) {
        int wy = std::clamp(py - kWin / 2, 0, kSpan - 1);
        for (int px = 0; px < kBlock; ++px) {
            int wx = std::clamp(px - kWin / 2, 0, kSpan - 1);
            out[py * kBlock + px] = bestD[wy][wx];
        }
    }
}

namespace
{

class DepthWorkload : public Workload
{
  public:
    explicit DepthWorkload(const WorkloadParams &p) : Workload(p)
    {
        width = 320;
        height = 224;
        pairs = p.scale > 0 ? 3 * p.scale : 1; // "3 CIF image pairs"
    }

    std::string name() const override { return "depth"; }

    double icacheMpki(const SystemConfig &) const override { return 0.05; }

    void
    setup(CmpSystem &sys) override
    {
        auto &mem = sys.mem();
        nthreads = sys.cores();
        const std::uint64_t frameBytes =
            std::uint64_t(width) * std::uint64_t(height);
        left = ArrayRef<std::uint8_t>::alloc(mem, frameBytes * pairs);
        right = ArrayRef<std::uint8_t>::alloc(mem, frameBytes * pairs);
        disp = ArrayRef<std::uint8_t>::alloc(mem,
                                              frameBytes * pairs);
        doneBar = std::make_unique<Barrier>(nthreads);

        // Synthesize a stereo pair: the right image is the left one
        // shifted by a per-region disparity plus noise, so the block
        // matcher has a real signal to find.
        Rng rng(77);
        hostLeft.resize(frameBytes * pairs);
        hostRight.resize(frameBytes * pairs);
        for (std::uint32_t p = 0; p < pairs; ++p) {
            std::uint64_t fb = std::uint64_t(p) * frameBytes;
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    auto v = std::uint8_t(
                        (x * 7 + y * 13 + int(rng.nextBelow(32))) &
                        0xff);
                    hostLeft[fb + std::uint64_t(y) * width + x] = v;
                }
            }
            int shift = int(p % kMaxDisp);
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    int sx = std::min(x + shift, width - 1);
                    hostRight[fb + std::uint64_t(y) * width + x] =
                        hostLeft[fb + std::uint64_t(y) * width + sx];
                }
            }
        }
        mem.write(left.base, hostLeft.data(), hostLeft.size());
        mem.write(right.base, hostRight.data(), hostRight.size());
    }

    KernelTask kernel(Context &ctx) override { return kern(ctx); }

    bool
    verify(CmpSystem &sys) override
    {
        auto &mem = sys.mem();
        const int bw = width / kBlock;
        const int bh = height / kBlock;
        const int strip = kBlock + kMaxDisp;
        std::vector<std::uint8_t> lbuf(kBlock * kBlock);
        std::vector<std::uint8_t> rbuf(std::size_t(strip) * kBlock);
        std::vector<std::uint8_t> want(kBlock * kBlock);
        for (std::uint32_t p = 0; p < pairs; ++p) {
            for (int by = 0; by < bh; ++by) {
                for (int bx = 0; bx < bw; ++bx) {
                    int lx0 = bx * kBlock;
                    int ly0 = by * kBlock;
                    int rxMax = std::min(lx0 + strip, width) - lx0;
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x)
                            lbuf[y * kBlock + x] = hostLeft[pixelIndex(
                                p, lx0 + x, ly0 + y)];
                        for (int x = 0; x < rxMax; ++x)
                            rbuf[y * rxMax + x] = hostRight[pixelIndex(
                                p, lx0 + x, ly0 + y)];
                    }
                    blockDisparities(lbuf.data(), rbuf.data(), rxMax,
                                     want.data());
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            auto got = mem.read<std::uint8_t>(disp.at(
                                pixelIndex(p, lx0 + x, ly0 + y)));
                            if (got != want[y * kBlock + x])
                                return false;
                        }
                    }
                }
            }
        }
        return true;
    }

  private:
    std::uint64_t
    pixelIndex(std::uint32_t p, int x, int y) const
    {
        return (std::uint64_t(p) * height + y) * width + x;
    }

    /**
     * One kernel serves both models: the block-loads go through the
     * cache in CC and through DMA + local store in STR, and the SAD
     * math runs on in-register data either way.
     */
    KernelTask
    kern(Context &ctx)
    {
        const int bw = width / kBlock;
        const int bh = height / kBlock;
        const std::uint64_t blocks =
            std::uint64_t(pairs) * bh * bw;
        Range r = splitRange(blocks, ctx.tid(), ctx.nthreads());
        const bool str = ctx.model() == MemModel::STR;
        const int strip = kBlock + kMaxDisp; // right search strip

        std::vector<std::uint8_t> lbuf(kBlock * kBlock);
        std::vector<std::uint8_t> rbuf(std::size_t(strip) * kBlock);
        std::vector<std::uint8_t> dmap(kBlock * kBlock);

        for (std::uint64_t b = r.begin; b < r.end; ++b) {
            std::uint32_t p = std::uint32_t(b / (std::uint64_t(bh) * bw));
            int by = int((b / bw) % bh);
            int bx = int(b % bw);
            int lx0 = bx * kBlock;
            int ly0 = by * kBlock;
            int rxMax = std::min(lx0 + strip, width) - lx0;

            if (str) {
                // Strided gets: one row per stride.
                auto g1 = co_await ctx.dmaGetStrided(
                    left.at(pixelIndex(p, lx0, ly0)),
                    std::uint64_t(width), kBlock, kBlock, 0);
                auto g2 = co_await ctx.dmaGetStrided(
                    right.at(pixelIndex(p, lx0, ly0)),
                    std::uint64_t(width), std::uint32_t(rxMax), kBlock,
                    kBlock * kBlock);
                co_await ctx.dmaWait(g1);
                co_await ctx.dmaWait(g2);
                for (int y = 0; y < kBlock; ++y) {
                    for (int x = 0; x < kBlock; x += 4) {
                        auto w = co_await ctx.lsRead<std::uint32_t>(
                            std::uint32_t(y * kBlock + x));
                        std::memcpy(&lbuf[y * kBlock + x], &w, 4);
                    }
                    for (int x = 0; x < rxMax; x += 4) {
                        auto w = co_await ctx.lsRead<std::uint32_t>(
                            std::uint32_t(kBlock * kBlock + y * rxMax +
                                          x));
                        std::memcpy(&rbuf[y * rxMax + x], &w,
                                    std::min(4, rxMax - x));
                    }
                }
            } else {
                for (int y = 0; y < kBlock; ++y) {
                    for (int x = 0; x < kBlock; x += 4) {
                        auto w = co_await ctx.load<std::uint32_t>(
                            left.at(pixelIndex(p, lx0 + x, ly0 + y)));
                        std::memcpy(&lbuf[y * kBlock + x], &w, 4);
                    }
                    for (int x = 0; x < rxMax; x += 4) {
                        auto w = co_await ctx.load<std::uint32_t>(
                            right.at(pixelIndex(p, lx0 + x, ly0 + y)));
                        std::memcpy(&rbuf[y * rxMax + x], &w,
                                    std::min(4, rxMax - x));
                    }
                }
            }

            // Dense per-pixel disparity over the block: every
            // pixel runs a windowed SAD across the disparity range
            // (in-register compute on the fetched block data). The
            // host computes the whole map at once; the simulated
            // core is charged per pixel.
            blockDisparities(lbuf.data(), rbuf.data(), rxMax,
                             dmap.data());
            for (int y = 0; y < kBlock; ++y) {
                for (int x = 0; x < kBlock; x += 4) {
                    co_await ctx.compute(4 * kPixelCycles);
                    std::uint32_t w;
                    std::memcpy(&w, &dmap[y * kBlock + x], 4);
                    co_await ctx.storeNA<std::uint32_t>(
                        disp.at(pixelIndex(p, lx0 + x, ly0 + y)), w);
                }
            }
        }
        co_await ctx.barrier(*doneBar);
    }

    int width;
    int height;
    std::uint32_t pairs;
    int nthreads = 1;
    ArrayRef<std::uint8_t> left, right, disp;
    std::unique_ptr<Barrier> doneBar;
    std::vector<std::uint8_t> hostLeft, hostRight;
};

} // namespace

std::unique_ptr<Workload>
makeDepth(const WorkloadParams &p)
{
    return std::make_unique<DepthWorkload>(p);
}

} // namespace cmpmem
