#include "gpu/mem_partition.hh"

#include <algorithm>

#include "check/sink.hh"
#include "common/log.hh"
#include "gpu/gpu_config.hh"

namespace getm {

MemPartition::MemPartition(PartitionId id_, const GpuConfig &config,
                           const AddressMap &map, BackingStore &store_,
                           Crossbar<MemMsg> &up, Crossbar<MemMsg> &down,
                           unsigned num_cores)
    : id(id_), cores(num_cores), llcLat(config.llcLatency), addrMap(map),
      store(store_), xbarUp(up), xbarDown(down),
      llcCache("part" + std::to_string(id_) + ".llc",
               config.llcBytesPerPartition, config.llcAssoc,
               config.lineBytes),
      dram("part" + std::to_string(id_) + ".dram", config.dram),
      statSet("part" + std::to_string(id_)),
      stDramWritebacks(statSet.addCounter("dram_writebacks")),
      stNtxReads(statSet.addCounter("ntx_reads")),
      stNtxWrites(statSet.addCounter("ntx_writes")),
      stAtomics(statSet.addCounter("atomics"))
{
}

void
MemPartition::setProtocol(std::unique_ptr<TmPartitionProtocol> unit)
{
    proto = std::move(unit);
}

void
MemPartition::scheduleToCore(MemMsg &&msg, Cycle when)
{
    outQueue.push(Outbound{when, outSeq++, std::move(msg)});
}

Cycle
MemPartition::accessLlc(Addr line_addr, bool is_write, Cycle now)
{
    const Addr line = addrMap.lineOf(line_addr);
    const CacheAccessResult result = llcCache.access(line, is_write);
    if (result.hit)
        return 0;
    if (result.writeback)
        stDramWritebacks.add();
    const Cycle ready = dram.enqueue(now, line);
    return ready - now;
}

void
MemPartition::tick(Cycle now)
{
    // 1. Inject due responses into the down crossbar at their exact
    //    ready cycles.
    while (!outQueue.empty() && outQueue.top().when <= now) {
        Outbound out = outQueue.top();
        outQueue.pop();
        const unsigned bytes = out.msg.bytes;
        const CoreId core = out.msg.core;
        xbarDown.send(id, core, bytes, out.when, std::move(out.msg));
    }

    // 2. Pop and process at most one inbound message per cycle, gated by
    //    the unit's busy time.
    if (popFree > now || !xbarUp.hasReady(id, now))
        return;
    MemMsg msg = xbarUp.popReady(id);
    Cycle busy;
    switch (msg.kind) {
      case MsgKind::NtxRead:
      case MsgKind::NtxWrite:
      case MsgKind::Atomic:
        busy = handleLocal(std::move(msg), now);
        break;
      default:
        if (!proto)
            panic("protocol message at partition with no protocol unit");
        busy = proto->handleRequest(std::move(msg), now);
        break;
    }
    popFree = now + std::max<Cycle>(1, busy);
}

Cycle
MemPartition::handleLocal(MemMsg &&msg, Cycle now)
{
    switch (msg.kind) {
      case MsgKind::NtxRead: {
        const Cycle extra = accessLlc(msg.addr, false, now);
        MemMsg resp;
        resp.kind = MsgKind::NtxReadResp;
        resp.core = msg.core;
        resp.partition = id;
        resp.wid = msg.wid;
        resp.warpSlot = msg.warpSlot;
        resp.addr = msg.addr;
        resp.flag = msg.flag;
        resp.txId = msg.txId;
        for (const LaneOp &op : msg.ops)
            resp.ops.push_back({op.lane, op.addr, store.read(op.addr), 0});
        // MSHR-tracked fills return a whole L1 line; volatile reads and
        // unmerged fallbacks return just the requested words.
        resp.bytes = msg.txId == 1
                         ? 8 + addrMap.lineBytes()
                         : 8 + 4 * static_cast<unsigned>(resp.ops.size());
        scheduleToCore(std::move(resp), now + 1 + llcLat + extra);
        stNtxReads.add();
        return 1;
      }

      case MsgKind::NtxWrite: {
        const Cycle extra = accessLlc(msg.addr, true, now);
        if (msg.flag) {
            // L1-bypass (volatile) store: the partition is the
            // serialization point; apply, notify TCD, and ack.
            for (const LaneOp &op : msg.ops) {
                store.write(op.addr, op.value);
                if (checkSink)
                    checkSink->externalWrite(op.addr, op.value);
                if (proto)
                    proto->noteDataWrite(op.addr, now);
            }
            MemMsg ack;
            ack.kind = MsgKind::NtxWriteAck;
            ack.core = msg.core;
            ack.partition = id;
            ack.wid = msg.wid;
            ack.warpSlot = msg.warpSlot;
            ack.bytes = 8;
            scheduleToCore(std::move(ack), now + 1 + llcLat + extra);
        }
        stNtxWrites.add();
        return 1;
      }

      case MsgKind::Atomic: {
        const Cycle extra = accessLlc(msg.addr, true, now);
        MemMsg resp;
        resp.kind = MsgKind::AtomicResp;
        resp.core = msg.core;
        resp.partition = id;
        resp.wid = msg.wid;
        resp.warpSlot = msg.warpSlot;
        resp.addr = msg.addr;
        // Atomics to the same line serialize here, one per cycle.
        for (const LaneOp &op : msg.ops) {
            std::uint32_t old;
            switch (static_cast<AtomicOp>(msg.aop)) {
              case AtomicOp::Cas:
                old = store.atomicCas(op.addr, op.value, op.aux);
                break;
              case AtomicOp::Exch:
                old = store.atomicExch(op.addr, op.value);
                break;
              default:
                old = store.atomicAdd(op.addr, op.value);
                break;
            }
            if (checkSink)
                checkSink->externalWrite(op.addr, store.read(op.addr));
            if (proto)
                proto->noteDataWrite(op.addr, now);
            resp.ops.push_back({op.lane, op.addr, old, 0});
        }
        const Cycle busy = std::max<Cycle>(1, msg.ops.size());
        resp.bytes = 8 + 4 * static_cast<unsigned>(resp.ops.size());
        scheduleToCore(std::move(resp), now + busy + llcLat + extra);
        stAtomics.add();
        return busy;
      }

      default:
        panic("handleLocal on non-local message");
    }
}

Cycle
MemPartition::nextEventCycle(Cycle now) const
{
    Cycle best = ~static_cast<Cycle>(0);
    if (!outQueue.empty())
        best = std::min(best, outQueue.top().when);
    if (xbarUp.hasReady(id, now))
        best = std::min(best, std::max(popFree, now + 1));
    if (proto)
        best = std::min(best, proto->nextEventCycle());
    return best;
}

bool
MemPartition::idle(Cycle now) const
{
    // popFree past `now` with nothing queued is not "busy": it only
    // gates future pops, of which there are none.
    return outQueue.empty() && !xbarUp.hasReady(id, now);
}

} // namespace getm
