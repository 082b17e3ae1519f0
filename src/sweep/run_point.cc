#include "sweep/run_point.hh"

#include "check/checker.hh"
#include "check/reference_exec.hh"
#include "gpu/config_file.hh"
#include "workloads/workload.hh"

namespace getm {

PointResult
runSweepPoint(const SweepPoint &point,
              const std::function<bool(const Workload &)> &ready)
{
    const GpuConfig &cfg = point.config;
    const bool lock_variant = point.protocol == ProtocolKind::FgLock;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(point.bench, point.scale, point.seed);
    workload->setup(gpu, lock_variant);
    PointResult out;
    if (ready && !ready(*workload))
        return out;
    RunResult &result = out.run;
    result = gpu.run(workload->kernel(), workload->numThreads(),
                     point.maxCycles);

    // Label hot granules the workload can explain (zipf head keys, hot
    // accounts). Workloads without a mapping leave rows untouched, so
    // their documents keep their exact pre-label bytes.
    for (HotAddrRow &row : result.obs.hotAddrs)
        out.labelled |= workload->addrInfo(row.addr, row.label);

    Checker *checker = gpu.checkerPtr();
    if (checker && checker->level() >= CheckLevel::Ref) {
        // Ref level: replay the kernel on a single-threaded reference
        // executor over an identically-seeded memory image and compare
        // final contents. Order-sensitive workloads can legitimately
        // diverge (see check/reference_exec.hh).
        GpuConfig ref_cfg = cfg;
        ref_cfg.checkLevel = 0;
        ref_cfg.injectFault = 0;
        GpuSystem ref_gpu(ref_cfg);
        auto ref_workload =
            makeWorkload(point.bench, point.scale, point.seed);
        ref_workload->setup(ref_gpu, lock_variant);
        check::referenceRun(ref_workload->kernel(),
                            ref_workload->numThreads(), ref_gpu.memory());
        checker->crossCheckReference(ref_gpu.memory(), gpu.memory());
        result.check = checker->report();
    }

    // A runtime-checker violation is a verification failure: the point
    // ran, but its execution was provably not serializable/opaque.
    const bool check_clean = result.check.totalViolations == 0;
    MetricsMeta &meta = out.meta;
    meta = failureMeta(point);
    meta.verified = workload->verify(gpu, out.why) && check_clean;
    if (!check_clean && out.why.empty())
        out.why = "runtime checker reported violations";
    meta.threads = workload->numThreads();
    meta.cycles = result.cycles;
    meta.commits = result.commits;
    meta.aborts = result.aborts;
    meta.txExecCycles = result.txExecCycles;
    meta.txWaitCycles = result.txWaitCycles;
    meta.xbarFlits = result.xbarFlits;
    meta.rollovers = result.rollovers;
    meta.maxLogicalTs = result.maxLogicalTs;
    if (!check_clean) {
        meta.checkLevel = checkLevelName(result.check.level);
        for (unsigned i = 0;
             i < static_cast<unsigned>(ViolationKind::Count); ++i)
            if (result.check.byKind[i])
                meta.checkViolations.emplace_back(
                    violationKindName(static_cast<ViolationKind>(i)),
                    result.check.byKind[i]);
    }
    return out;
}

MetricsMeta
failureMeta(const SweepPoint &point)
{
    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.seed;
    meta.config = configProvenance(point.config);
    return meta;
}

} // namespace getm
