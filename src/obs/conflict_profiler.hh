/**
 * @file
 * Hot-address conflict profiler.
 *
 * Aggregates every attributed conflict/stall/abort event by (partition,
 * granule address) with a per-reason breakdown, and reports the top-N
 * most contended granules. This directly reproduces the per-address
 * stall data behind the paper's Fig. 16: which granules serialize the
 * workload, and why (stalled behind a writer vs. timestamp aborts vs.
 * Bloom false positives).
 */

#ifndef GETM_OBS_CONFLICT_PROFILER_HH
#define GETM_OBS_CONFLICT_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "obs/abort_reason.hh"

namespace getm {

/** One contended granule with its per-reason event counts. */
struct HotAddrRow
{
    Addr addr = invalidAddr;
    PartitionId partition = 0;
    std::uint64_t total = 0;
    /**
     * Workload-provided description of the granule ("key 7 (zipf rank
     * 0)"), filled in post-run via Workload::addrInfo(). Empty when the
     * workload has no mapping — and then absent from metrics output,
     * so documents for unlabeled workloads are byte-unchanged.
     */
    std::string label;
    std::array<std::uint64_t, numAbortReasons> byReason{};
    /** Sum and count of stall-queue depths sampled on this address. */
    std::uint64_t stallDepthSum = 0;
    std::uint64_t stallDepthCount = 0;

    double
    meanWaiters() const
    {
        return stallDepthCount
                   ? static_cast<double>(stallDepthSum) /
                         static_cast<double>(stallDepthCount)
                   : 0.0;
    }

    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(addr, partition, total, label, byReason, stallDepthSum,
           stallDepthCount);
    }
};

/** Per-address conflict aggregation. */
class ConflictProfiler
{
  public:
    /** Record one event of kind @p reason on @p addr. */
    void record(AbortReason reason, Addr addr, PartitionId partition,
                std::uint64_t count = 1);

    /** Record a stall-queue depth sample on @p addr. */
    void recordStallDepth(Addr addr, PartitionId partition,
                          unsigned depth);

    /** The @p n most contended granules, sorted by total events. */
    std::vector<HotAddrRow> topN(std::size_t n) const;

    /** Number of distinct contended granules seen. */
    std::size_t distinctAddrs() const { return table.size(); }

    /** Total events recorded across all addresses. */
    std::uint64_t totalEvents() const { return events; }

    /**
     * Checkpoint hook. The one-entry memo is a pure accelerator whose
     * pointer cannot survive a restore; it re-warms on the first
     * record() after load.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(table, events);
        if constexpr (!Ar::saving) {
            lastAddr = invalidAddr;
            lastRow = nullptr;
        }
    }

  private:
    /**
     * Find-or-create with a one-entry memo: conflict events cluster on
     * the same hot granule, so most lookups hit the last row. The map's
     * nodes are pointer-stable, so the memo survives inserts and only
     * clear() invalidates it.
     */
    HotAddrRow &rowFor(Addr addr, PartitionId partition);

    std::unordered_map<Addr, HotAddrRow> table;
    std::uint64_t events = 0;
    Addr lastAddr = invalidAddr;
    HotAddrRow *lastRow = nullptr;
};

} // namespace getm

#endif // GETM_OBS_CONFLICT_PROFILER_HH
