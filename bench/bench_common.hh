/**
 * @file
 * Shared driver for the in-process benches (ablation_getm,
 * perf_throughput). Runs are sized by a scale factor (GETM_BENCH_SCALE,
 * default 1.0 = the paper's workload sizes).
 */

#ifndef GETM_BENCH_BENCH_COMMON_HH
#define GETM_BENCH_BENCH_COMMON_HH

#include <vector>

#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

namespace getm {
namespace bench {

/** Scale factor from GETM_BENCH_SCALE (default 1.0). */
double benchScale();

/** Workload seed from GETM_BENCH_SEED (default 7). */
std::uint64_t benchSeed();

/** One configured benchmark execution. */
struct BenchSpec
{
    BenchId bench;
    ProtocolKind protocol = ProtocolKind::Getm;
    double scale = 0.25;
    /** Base GPU configuration (protocol field is overridden). */
    GpuConfig gpu = GpuConfig::gtx480();
    std::uint64_t seed = 7;
};

/** Run one benchmark; aborts the bench if verification fails. */
RunResult runBench(const BenchSpec &spec);

/** Geometric mean of positive values. */
double gmean(const std::vector<double> &values);

} // namespace bench
} // namespace getm

#endif // GETM_BENCH_BENCH_COMMON_HH
