/**
 * @file
 * A memory partition: LLC slice, DRAM channel, and the protocol's
 * validation/commit units (paper Fig. 5, right side).
 *
 * The partition pops at most one message per cycle from the up crossbar
 * (Table II: validation bandwidth 1 request/cycle per partition); the
 * handler's busy time gates subsequent pops. Outbound responses are
 * scheduled at their exact ready cycles and injected into the down
 * crossbar then.
 */

#ifndef GETM_GPU_MEM_PARTITION_HH
#define GETM_GPU_MEM_PARTITION_HH

#include <functional>
#include <memory>
#include <queue>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/cache_model.hh"
#include "mem/dram_model.hh"
#include "noc/crossbar.hh"
#include "tm/partition_iface.hh"

namespace getm {

struct GpuConfig;

/** One LLC partition with its protocol unit. */
class MemPartition : public PartitionContext
{
  public:
    MemPartition(PartitionId id, const GpuConfig &config,
                 const AddressMap &map, BackingStore &store,
                 Crossbar<MemMsg> &up, Crossbar<MemMsg> &down,
                 unsigned num_cores);

    /** Install the protocol unit (may be null for the lock baseline). */
    void setProtocol(std::unique_ptr<TmPartitionProtocol> unit);

    /** Emit due responses and process at most one inbound message. */
    void tick(Cycle now);

    /** Earliest future cycle at which this partition has work. */
    Cycle nextEventCycle(Cycle now) const;

    /** No queued output and not mid-operation. */
    bool idle(Cycle now) const;

    TmPartitionProtocol *protocol() { return proto.get(); }
    CacheModel &llc() { return llcCache; }

    /** Install the observability sink (may be null). */
    void setObserver(ObsSink *s) { sink = s; }

    /** Install the transaction tracer (may be null). */
    void setTracer(ObsSink *t) { traceSink = t; }

    /** Install the runtime checker sink (may be null). */
    void setChecker(CheckSink *s) { checkSink = s; }

    /** Install the fault injector (may be null). */
    void setFaults(FaultInjector *f) { faultInj = f; }

    /** Apply a rollover stall penalty to the unit's pipeline. */
    void
    addPipelineStall(Cycle now, Cycle penalty)
    {
        if (popFree < now + penalty)
            popFree = now + penalty;
    }

    // --- PartitionContext ----------------------------------------------
    PartitionId partitionId() const override { return id; }
    unsigned numCores() const override { return cores; }
    void scheduleToCore(MemMsg &&msg, Cycle when) override;
    Cycle accessLlc(Addr line_addr, bool is_write, Cycle now) override;
    Cycle llcLatency() const override { return llcLat; }
    BackingStore &memory() override { return store; }
    StatSet &stats() override { return statSet; }
    ObsSink *obs() override { return sink; }
    ObsSink *trace() override { return traceSink; }
    CheckSink *check() override { return checkSink; }
    FaultInjector *faults() override { return faultInj; }

    /** Checkpoint hook for everything but the protocol unit (which the
     *  owner serializes through its virtual ckptSave/ckptLoad). */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(llcCache, dram, popFree, outSeq, outQueue, statSet);
    }

  private:
    /** Handle non-transactional reads/writes and atomics locally. */
    Cycle handleLocal(MemMsg &&msg, Cycle now);

    struct Outbound
    {
        Cycle when;
        std::uint64_t seq;
        MemMsg msg;

        bool
        operator>(const Outbound &other) const
        {
            return when != other.when ? when > other.when
                                      : seq > other.seq;
        }

        template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
    };

    PartitionId id;
    unsigned cores;
    Cycle llcLat;
    const AddressMap &addrMap;
    BackingStore &store;
    Crossbar<MemMsg> &xbarUp;
    Crossbar<MemMsg> &xbarDown;
    CacheModel llcCache;
    DramModel dram;
    std::unique_ptr<TmPartitionProtocol> proto;
    ObsSink *sink = nullptr;
    ObsSink *traceSink = nullptr;
    CheckSink *checkSink = nullptr;
    FaultInjector *faultInj = nullptr;

    Cycle popFree = 0;
    std::uint64_t outSeq = 0;
    std::priority_queue<Outbound, std::vector<Outbound>,
                        std::greater<Outbound>>
        outQueue;
    StatSet statSet;

    // Hot-path stat handles: one add per handled request.
    StatSet::Counter &stDramWritebacks;
    StatSet::Counter &stNtxReads;
    StatSet::Counter &stNtxWrites;
    StatSet::Counter &stAtomics;
};

} // namespace getm

#endif // GETM_GPU_MEM_PARTITION_HH
