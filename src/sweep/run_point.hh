/**
 * @file
 * The one run path for a resolved sweep point, shared by getm-sim, the
 * sweep runner and the benches (`cli_sweep_parity_check` pins it).
 */

#ifndef GETM_SWEEP_RUN_POINT_HH
#define GETM_SWEEP_RUN_POINT_HH

#include <functional>
#include <string>

#include "gpu/gpu_system.hh"
#include "obs/metrics.hh"
#include "sweep/manifest.hh"

namespace getm {

class Workload;

/** One executed point, as runSweepPoint() returns it. */
struct PointResult
{
    RunResult run;
    /** Its metrics document's head; meta.verified is the verdict. */
    MetricsMeta meta;
    std::string why;       ///< Why the point is unverified, else "".
    bool labelled = false; ///< The workload labelled a hot address.
};

/**
 * Run @p point end to end: build the GpuSystem, set up and run the
 * workload, replay it on the reference executor and cross-check final
 * memory at checkLevel >= Ref, label hot addresses, verify the
 * workload (checker violations also fail it) and fill the MetricsMeta.
 * @p ready sees the set-up workload before the kernel runs; returning
 * false stops there with an empty result (getm-sim's --disasm).
 *
 * @throw SimError on a typed simulation failure.
 */
PointResult
runSweepPoint(const SweepPoint &point,
              const std::function<bool(const Workload &)> &ready = {});

/** The identity-only meta (no run counters) that heads a failure
 *  document for @p point. */
MetricsMeta failureMeta(const SweepPoint &point);

} // namespace getm

#endif // GETM_SWEEP_RUN_POINT_HH
