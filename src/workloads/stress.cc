/**
 * @file
 * Deterministic randomized coherence stress generator ("stress").
 *
 * Not a paper application: this workload exists to drive the runtime
 * MESI checker (src/check/) through the protocol corners the Table 3
 * kernels rarely reach — same-line load/store/atomic races, false
 * sharing, upgrade storms, PFS allocates, and prefetches landing on
 * contended lines. It is therefore registered hidden: creatable via
 * createWorkload("stress"), invisible to workloadNames() so table and
 * figure sweeps never pick it up.
 *
 * Every core replays a per-core operation vector precomputed in
 * setup() from Rng(seed, tid), over four regions:
 *
 *  - hot shared lines, partitioned among sharing groups of
 *    `sharingDegree` cores so the contention degree is configurable;
 *  - one false-shared line per 8 cores, each core owning one 4-byte
 *    slot (racy at line granularity, data-race-free at word
 *    granularity — the classic benign-race case);
 *  - a private block per core (48 lines), the only region besides a
 *    core's own false-shared slot that verify() replays exactly;
 *  - two atomic counter lines advanced with atomicFetchAdd32.
 *
 * The run is fully deterministic for a given (seed, cores, model)
 * triple; two barrier episodes split it into three phases so drained
 * and quiesced states interleave with the racy traffic.
 *
 * verify() re-executes each core's private/slot stores host-side and
 * compares against functional memory, checks both atomic counters
 * against the generated op counts, and requires every hot-shared
 * word to be either untouched or carrying a well-formed store tag.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sync.hh"
#include "sim/rng.hh"
#include "workloads/factories.hh"
#include "workloads/kernels_common.hh"

namespace cmpmem
{
namespace
{

constexpr std::uint32_t kWordsPerLine = 8; ///< 32-byte lines
constexpr std::uint32_t kSharedLines = 8;
constexpr std::uint32_t kPrivateLines = 48;
constexpr std::uint32_t kCounters = 2;

enum class OpKind : std::uint8_t
{
    Load,
    Store,
    StoreNA,
    Atomic,
    Prefetch,
    Compute,
};

struct Op
{
    OpKind kind;
    Addr addr;
    std::uint32_t value;
};

class StressWorkload : public Workload
{
  public:
    explicit StressWorkload(const WorkloadParams &p) : Workload(p)
    {
        opsPerCore = p.scale > 0 ? 256u * std::uint32_t(p.scale) : 96u;
    }

    std::string name() const override { return "stress"; }
    std::string variant() const override { return "stress"; }

    void
    setup(CmpSystem &sys) override
    {
        auto &mem = sys.mem();
        const int cores = sys.cores();
        const int degree =
            std::clamp(prm.sharingDegree, 1, std::max(cores, 1));
        const int groups = (cores + degree - 1) / degree;

        shared = ArrayRef<std::uint32_t>::alloc(
            mem, kSharedLines * kWordsPerLine);
        const std::uint32_t fsLines = std::uint32_t(cores + 7) / 8;
        falseShared = ArrayRef<std::uint32_t>::alloc(
            mem, fsLines * kWordsPerLine);
        priv = ArrayRef<std::uint32_t>::alloc(
            mem, std::uint64_t(cores) * kPrivateLines * kWordsPerLine);
        counters = ArrayRef<std::uint32_t>::alloc(
            mem, kCounters * kWordsPerLine); // one counter per line

        bar1 = std::make_unique<Barrier>(cores);
        bar2 = std::make_unique<Barrier>(cores);
        doneBar = std::make_unique<Barrier>(cores);

        atomicCount.assign(kCounters, 0);
        perCore.assign(cores, {});

        for (int tid = 0; tid < cores; ++tid) {
            // Decorrelate cores while keeping the whole run a pure
            // function of prm.seed.
            Rng rng(prm.seed * 1000003ULL + std::uint64_t(tid) + 1);
            auto &ops = perCore[tid];
            ops.reserve(opsPerCore);

            // This group's slice of the hot lines.
            const int group = tid / degree;
            const std::uint32_t linesPerGroup =
                std::max(1u, kSharedLines / std::uint32_t(groups));
            const std::uint32_t groupBase =
                (std::uint32_t(group) * linesPerGroup) % kSharedLines;

            auto sharedWord = [&] {
                std::uint32_t line =
                    groupBase + std::uint32_t(
                                    rng.nextBelow(linesPerGroup));
                return shared.at((line % kSharedLines) * kWordsPerLine +
                                 rng.nextBelow(kWordsPerLine));
            };
            auto privateWord = [&] {
                return priv.at(std::uint64_t(tid) * kPrivateLines *
                                   kWordsPerLine +
                               rng.nextBelow(kPrivateLines *
                                             kWordsPerLine));
            };
            const Addr mySlot =
                falseShared.at(std::uint64_t(tid / 8) * kWordsPerLine +
                               std::uint64_t(tid % 8));

            for (std::uint32_t i = 0; i < opsPerCore; ++i) {
                const std::uint32_t tag =
                    (std::uint32_t(tid + 1) << 24) | (i & 0xffffffu);
                const std::uint64_t roll = rng.nextBelow(100);
                if (roll < 40) {
                    // Load from any region (counters included, which
                    // forces later atomics through the upgrade path).
                    const std::uint64_t where = rng.nextBelow(10);
                    Addr a;
                    if (where < 4)
                        a = privateWord();
                    else if (where < 7)
                        a = sharedWord();
                    else if (where < 9)
                        a = falseShared.at(rng.nextBelow(
                            falseShared.count));
                    else
                        a = counters.at(rng.nextBelow(kCounters) *
                                        kWordsPerLine);
                    ops.push_back({OpKind::Load, a, 0});
                } else if (roll < 65) {
                    const std::uint64_t where = rng.nextBelow(4);
                    Addr a = where < 2 ? privateWord()
                             : where == 2 ? sharedWord()
                                          : mySlot;
                    ops.push_back({OpKind::Store, a, tag});
                } else if (roll < 75) {
                    ops.push_back({OpKind::StoreNA, privateWord(), tag});
                } else if (roll < 85) {
                    const std::uint32_t c =
                        std::uint32_t(rng.nextBelow(kCounters));
                    ++atomicCount[c];
                    ops.push_back({OpKind::Atomic,
                                   counters.at(c * kWordsPerLine), 0});
                } else if (roll < 90) {
                    // Bulk prefetch of a few private lines (on the
                    // streaming model too, into the core's small
                    // cache).
                    ops.push_back(
                        {OpKind::Prefetch, priv.at(
                             std::uint64_t(tid) * kPrivateLines *
                             kWordsPerLine +
                             rng.nextBelow(kPrivateLines) *
                                 kWordsPerLine),
                         2 * kWordsPerLine * 4});
                } else {
                    ops.push_back({OpKind::Compute, 0, 4});
                }
            }
        }
    }

    KernelTask
    kernel(Context &ctx) override
    {
        const auto &ops = perCore.at(ctx.tid());
        const std::size_t third = ops.size() / 3;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (third > 0 && i == third)
                co_await ctx.barrier(*bar1);
            if (third > 0 && i == 2 * third)
                co_await ctx.barrier(*bar2);
            const Op &op = ops[i];
            switch (op.kind) {
              case OpKind::Load:
                (void)co_await ctx.load<std::uint32_t>(op.addr);
                break;
              case OpKind::Store:
                co_await ctx.store<std::uint32_t>(op.addr, op.value);
                break;
              case OpKind::StoreNA:
                co_await ctx.storeNA<std::uint32_t>(op.addr, op.value);
                break;
              case OpKind::Atomic:
                (void)co_await ctx.atomicFetchAdd32(op.addr, 1);
                break;
              case OpKind::Prefetch:
                co_await ctx.prefetchBlock(op.addr, op.value);
                break;
              case OpKind::Compute:
                co_await ctx.compute(Cycles(op.value));
                break;
            }
        }
        co_await ctx.barrier(*doneBar);
    }

    bool
    verify(CmpSystem &sys) override
    {
        auto &mem = sys.mem();

        // Replay single-writer addresses (private region and each
        // core's own false-shared slot) host-side: the last store a
        // core issued must be what functional memory holds.
        for (const auto &ops : perCore) {
            std::unordered_map<Addr, std::uint32_t> last;
            for (const Op &op : ops) {
                if (op.kind == OpKind::Store ||
                    op.kind == OpKind::StoreNA) {
                    const bool sharedAddr =
                        op.addr >= shared.at(0) &&
                        op.addr < shared.at(shared.count);
                    if (!sharedAddr)
                        last[op.addr] = op.value;
                }
            }
            for (const auto &[addr, val] : last) {
                if (mem.read<std::uint32_t>(addr) != val)
                    return false;
            }
        }

        // Counters: every generated atomic added exactly 1.
        for (std::uint32_t c = 0; c < kCounters; ++c) {
            if (mem.read<std::uint32_t>(counters.at(c * kWordsPerLine)) !=
                atomicCount[c])
                return false;
        }

        // Hot shared words are racy by construction; require each to
        // be untouched or a well-formed tag from a real core.
        for (std::uint64_t w = 0; w < shared.count; ++w) {
            const std::uint32_t v =
                mem.read<std::uint32_t>(shared.at(w));
            if (v == 0)
                continue;
            const std::uint32_t who = v >> 24;
            if (who < 1 || who > std::uint32_t(perCore.size()))
                return false;
        }
        return true;
    }

  private:
    std::uint32_t opsPerCore;
    ArrayRef<std::uint32_t> shared;
    ArrayRef<std::uint32_t> falseShared;
    ArrayRef<std::uint32_t> priv;
    ArrayRef<std::uint32_t> counters;
    std::vector<std::vector<Op>> perCore;
    std::vector<std::uint32_t> atomicCount;
    std::unique_ptr<Barrier> bar1;
    std::unique_ptr<Barrier> bar2;
    std::unique_ptr<Barrier> doneBar;
};

} // namespace
} // namespace cmpmem

namespace cmpmem
{

std::unique_ptr<Workload>
makeStress(const WorkloadParams &p)
{
    return std::make_unique<StressWorkload>(p);
}

} // namespace cmpmem
