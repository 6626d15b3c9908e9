/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates
 * themselves: event-queue throughput, cache-array lookups, resource
 * interval scheduling, and end-to-end simulated-instruction rate.
 * These guard the simulator's host performance (the full Figure 2
 * sweep runs hundreds of millions of simulated operations).
 *
 * Iteration control stays with google-benchmark (its timing loop is
 * the whole point), but the run drops the same machine-readable
 * artifact as the sweep-engine benches: BENCH_microbench.json via
 * the library's JSON reporter, at the sweep engine's artifact path.
 */

#include <cstring>
#include <vector>

#include <benchmark/benchmark.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(Tick(i * 10), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray cache({32 * 1024, 2, 32});
    CacheArray::Victim v;
    for (Addr a = 0; a < 32 * 1024; a += 32)
        cache.allocate(a, v).state = MesiState::Exclusive;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a));
        a = (a + 32) & (32 * 1024 - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

/**
 * Reservation on a loaded bus, shaped like the simulator's: one-beat
 * requests every 25 ns, every fourth booking a response beat 100 ns
 * ahead. A few hundred past intervals stay inside the 10 us prune
 * window and a few future ones lie beyond the request clock.
 * (Overlapping requests would merge into one interval and hide the
 * cost of a long list; see DESIGN.md §19.)
 */
void
BM_ResourceAcquire(benchmark::State &state)
{
    constexpr Tick beat = 1250;
    Resource r("bench");
    Tick t = 0;
    std::uint64_t i = 0;
    auto request = [&] {
        Tick at = t;
        if (i++ % 4 == 3)
            at += 100 * ticksPerNs;
        else
            t += 25 * ticksPerNs;
        return r.acquire(at, beat);
    };
    // Fill the prune window before timing.
    while (t < 20 * ticksPerUs)
        request();
    for (auto _ : state)
        benchmark::DoNotOptimize(request());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceAcquire);

void
BM_FunctionalMemory(benchmark::State &state)
{
    FunctionalMemory mem;
    Addr a = mem.alloc(1 << 20);
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem.write<std::uint32_t>(a + (i * 4 & 0xfffff),
                                 std::uint32_t(i));
        benchmark::DoNotOptimize(
            mem.read<std::uint32_t>(a + (i * 4 & 0xfffff)));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalMemory);

/** End-to-end: simulated ops per host second through a full system. */
void
BM_SimulatedVectorSum(benchmark::State &state)
{
    for (auto _ : state) {
        SystemConfig cfg = makeConfig(4, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 1024);
        struct Kern
        {
            static KernelTask
            run(Context &ctx, Addr a, int n)
            {
                std::uint64_t sum = 0;
                for (int i = 0; i < n; ++i)
                    sum += co_await ctx.load<std::uint32_t>(
                        a + Addr(i) * 4);
                benchmark::DoNotOptimize(sum);
            }
        };
        for (int c = 0; c < 4; ++c)
            sys.bindKernel(c, Kern::run(sys.context(c), a, 4096));
        sys.simulate();
    }
    state.SetItemsProcessed(state.iterations() * 4 * 4096);
}
BENCHMARK(BM_SimulatedVectorSum);

} // namespace
} // namespace cmpmem

int
main(int argc, char **argv)
{
    // Route the JSON artifact through the library's own output
    // plumbing (--benchmark_out); an explicit flag on the command
    // line wins over the default path.
    std::string path = cmpmem::artifactPath("microbench");
    std::string out_flag = "--benchmark_out=" + path;
    std::vector<char *> args(argv, argv + argc);
    bool user_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            user_out = true;
    }
    if (!user_out)
        args.push_back(out_flag.data());
    int nargs = int(args.size());
    benchmark::Initialize(&nargs, args.data());
    if (benchmark::ReportUnrecognizedArguments(nargs, args.data()))
        return 1;

    benchmark::RunSpecifiedBenchmarks();
    if (!user_out)
        std::printf("artifact: %s\n", path.c_str());
    benchmark::Shutdown();
    return 0;
}
