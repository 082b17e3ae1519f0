/**
 * @file
 * Ablation study of GETM's design choices (DESIGN.md / paper Sec. V):
 *
 *  1. recency Bloom filter vs. the naive max-registers approximate
 *     metadata the paper tried first ("version numbers increased very
 *     quickly and caused many aborts");
 *  2. the stall buffer vs. aborting every lock conflict (set the buffer
 *     to zero capacity);
 *  3. eager intra-warp conflict detection pressure: metadata granularity
 *     64 B vs the chosen 32 B as a false-sharing proxy.
 *
 * Reported as execution time and aborts/1K commits relative to baseline
 * GETM.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"

using namespace getm;
using namespace getm::bench;

namespace {

struct Variant
{
    const char *name;
    void (*tweak)(GpuConfig &);
};

void
baseline(GpuConfig &)
{
}

void
maxRegisters(GpuConfig &cfg)
{
    cfg.getmUseMaxRegisters = true;
}

void
noStallBuffer(GpuConfig &cfg)
{
    cfg.getmStall.lines = 0; // every lock conflict aborts
}

void
coarseGranule(GpuConfig &cfg)
{
    cfg.getmGranule = 64;
}

const Variant variants[] = {
    {"baseline", baseline},
    {"max-regs", maxRegisters},
    {"no-stall", noStallBuffer},
    {"64B-gran", coarseGranule},
};

} // namespace

int
main()
{
    const double scale = benchScale() * 0.5;
    const std::uint64_t seed = benchSeed();

    std::printf("GETM ablations: exec time (x baseline) and aborts/1K "
                "commits (scale %.3g)\n",
                scale);
    std::printf("%-8s", "bench");
    for (const Variant &variant : variants)
        std::printf(" %9s %9s", variant.name, "ab/1K");
    std::printf("\n");

    for (BenchId bench : allBenchIds()) {
        std::printf("%-8s", benchName(bench));
        double base_cycles = 0;
        for (const Variant &variant : variants) {
            BenchSpec spec;
            spec.bench = bench;
            spec.protocol = ProtocolKind::Getm;
            spec.scale = scale;
            spec.seed = seed;
            variant.tweak(spec.gpu);
            const RunResult run = runBench(spec);
            if (base_cycles == 0)
                base_cycles = static_cast<double>(run.cycles);
            std::printf(" %9.3f %9.0f",
                        static_cast<double>(run.cycles) / base_cycles,
                        run.abortsPer1kCommits());
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    // WarpTM ablation: the paper's literal one-at-a-time commit
    // serialization vs the hazard-checked pipelining this model uses.
    std::printf("\nWarpTM validation pipelining (exec time x depth-8 "
                "baseline):\n");
    std::printf("%-8s %9s %9s %9s\n", "bench", "depth8", "depth1",
                "depth32");
    for (BenchId bench : allBenchIds()) {
        double base = 0;
        std::printf("%-8s", benchName(bench));
        for (unsigned depth : {8u, 1u, 32u}) {
            BenchSpec spec;
            spec.bench = bench;
            spec.protocol = ProtocolKind::WarpTmLL;
            spec.scale = scale;
            spec.seed = seed;
            spec.gpu.wtm.pipelineDepth = depth;
            const RunResult run = runBench(spec);
            if (base == 0)
                base = static_cast<double>(run.cycles);
            std::printf(" %9.3f", static_cast<double>(run.cycles) / base);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}
