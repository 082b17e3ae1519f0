/**
 * @file
 * Concrete observability hub: the one ObsSink every protocol reports
 * into, owned by GpuSystem for the duration of a run.
 *
 * Aggregates abort/stall attribution (per-reason totals plus the
 * hot-address conflict profiler) and hosts the cycle sampler. At the
 * end of a run, report() snapshots everything into a plain-data
 * ObsReport that travels inside RunResult, so benches and the metrics
 * exporter never need the live sink.
 */

#ifndef GETM_OBS_OBSERVABILITY_HH
#define GETM_OBS_OBSERVABILITY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "obs/conflict_profiler.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/tx_tracer.hh"

namespace getm {

/** Plain-data snapshot of a run's observability state. */
struct ObsReport
{
    /** Aborted lanes per reason; sums exactly to the run's abort count. */
    std::array<std::uint64_t, numAbortReasons> abortLanesByReason{};
    /** Stall-buffer insertions per reason. */
    std::array<std::uint64_t, numAbortReasons> stallsByReason{};

    /** Peak simultaneous stall-buffer occupancy across all partitions. */
    unsigned stallPeakOccupancy = 0;
    /** Sum/count of per-address queue depths at stall-insertion time. */
    std::uint64_t stallDepthSum = 0;
    std::uint64_t stallDepthCount = 0;

    /** Top-N contended granules (sorted by total events, descending). */
    std::vector<HotAddrRow> hotAddrs;
    /** Distinct contended granules observed (not just the top N). */
    std::uint64_t distinctConflictAddrs = 0;

    /** Cycle-sampled telemetry (empty when sampling is disabled). */
    SampleSeries samples;

    /** Per-transaction lifecycle trace (enabled == false when off). */
    TxTraceReport txTrace;

    std::uint64_t
    totalAbortLanes() const
    {
        std::uint64_t t = 0;
        for (auto v : abortLanesByReason)
            t += v;
        return t;
    }

    std::uint64_t
    totalStalls() const
    {
        std::uint64_t t = 0;
        for (auto v : stallsByReason)
            t += v;
        return t;
    }

    /** Mean stall-queue depth behind a contended address (Fig. 16). */
    double
    meanStallWaiters() const
    {
        return stallDepthCount ? static_cast<double>(stallDepthSum) /
                                     static_cast<double>(stallDepthCount)
                               : 0.0;
    }
};

/** The concrete sink: aggregates events and owns the sampler. */
class Observability : public ObsSink
{
  public:
    void abortEvent(AbortReason reason, Addr addr, PartitionId partition,
                    unsigned lanes, Cycle now) override;
    void conflictEvent(AbortReason reason, Addr addr,
                       PartitionId partition, Cycle now) override;
    void stallEvent(AbortReason reason, Addr addr, PartitionId partition,
                    unsigned depth, Cycle now) override;
    void stallRelease(PartitionId partition, Cycle now) override;

    CycleSampler &cycleSampler() { return sampler; }
    const ConflictProfiler &profiler() const { return prof; }

    /** Live gauge: requests currently parked in stall buffers. */
    unsigned stallOccupancy() const { return stallCurrent; }

    /** Snapshot everything, keeping at most @p maxHotAddrs rows. */
    ObsReport report(std::size_t maxHotAddrs) const;

    /** Checkpoint hook: aggregates, the live stall gauge, profiler,
     *  and the sampler's recorded series. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(abortLanes, stalls, stallCurrent, stallPeak, depthSum,
           depthCount, prof, sampler);
    }

  private:
    std::array<std::uint64_t, numAbortReasons> abortLanes{};
    std::array<std::uint64_t, numAbortReasons> stalls{};
    unsigned stallCurrent = 0;
    unsigned stallPeak = 0;
    std::uint64_t depthSum = 0;
    std::uint64_t depthCount = 0;
    ConflictProfiler prof;
    CycleSampler sampler;
};

} // namespace getm

#endif // GETM_OBS_OBSERVABILITY_HH
