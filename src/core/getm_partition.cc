#include "core/getm_partition.hh"

#include <algorithm>

#include "check/fault.hh"
#include "check/sink.hh"
#include "ckpt/serial.hh"
#include "common/debug.hh"
#include "common/log.hh"

namespace getm {

GetmPartitionUnit::GetmPartitionUnit(PartitionContext &context,
                                     const GetmPartitionConfig &config,
                                     std::string name)
    : ctx(context), cfg(config), meta(name + ".meta", config.meta),
      stall(name + ".stall", config.stall),
      stVuAborts(context.stats().addCounter("getm_vu_aborts")),
      stOwnerHits(context.stats().addCounter("getm_owner_hits")),
      stStalledRequests(context.stats().addCounter("getm_stalled_requests")),
      stCommitMsgs(context.stats().addCounter("getm_commit_msgs")),
      stAbortMsgs(context.stats().addCounter("getm_abort_msgs")),
      stStallGrants(context.stats().addCounter("getm_stall_grants"))
{
}

Cycle
GetmPartitionUnit::handleRequest(MemMsg &&msg, Cycle now)
{
    // Tracer charges use the true pop cycle, not the serialized
    // now + busy offsets threaded through processCommit/releaseWaiters:
    // the tracer's per-warp cursor must never run ahead of simulated
    // time or the exact-sum invariant breaks (see TxTracer::charge).
    traceNow = now;
    switch (msg.kind) {
      case MsgKind::GetmTxLoad:
      case MsgKind::GetmTxStore:
        return processAccess(std::move(msg), now);
      case MsgKind::GetmCommit:
        return processCommit(msg, now);
      default:
        panic("GETM partition received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

void
GetmPartitionUnit::respondLoad(MemMsg &msg, Cycle ready, Cycle now)
{
    MemMsg resp;
    resp.kind = MsgKind::GetmLoadResp;
    resp.core = msg.core;
    resp.partition = ctx.partitionId();
    resp.wid = msg.wid;
    resp.warpSlot = msg.warpSlot;
    resp.addr = msg.addr;
    resp.outcome = GetmOutcome::Success;
    Cycle extra = 0;
    resp.ops = std::move(msg.ops);
    for (LaneOp &op : resp.ops) {
        // Data is bound at the serialization point (now), not delivery.
        const std::uint32_t value = ctx.memory().read(op.addr);
        if (CheckSink *cs = ctx.check())
            cs->readObserved(msg.wid, op.lane, op.addr, value);
        op.value = value;
        op.aux = 0;
        extra = std::max(
            extra, ctx.accessLlc(op.addr, /*is_write=*/false, now));
    }
    resp.bytes = 8 + 4 * static_cast<unsigned>(resp.ops.size());
    ctx.scheduleToCore(std::move(resp), ready + extra);
}

void
GetmPartitionUnit::respondStoreAck(const MemMsg &msg, Cycle ready)
{
    MemMsg resp;
    resp.kind = MsgKind::GetmStoreResp;
    resp.core = msg.core;
    resp.partition = ctx.partitionId();
    resp.wid = msg.wid;
    resp.warpSlot = msg.warpSlot;
    resp.addr = msg.addr;
    resp.outcome = GetmOutcome::Success;
    resp.ops = msg.ops; // echoes (lane, granule, -, count) for bookkeeping
    resp.bytes = 8;
    ctx.scheduleToCore(std::move(resp), ready);
}

void
GetmPartitionUnit::respondAbort(const MemMsg &msg, LogicalTs observed,
                                Cycle ready, AbortReason reason,
                                Addr granule, Cycle now)
{
    MemMsg resp;
    resp.kind = msg.kind == MsgKind::GetmTxLoad ? MsgKind::GetmLoadResp
                                                : MsgKind::GetmStoreResp;
    resp.core = msg.core;
    resp.partition = ctx.partitionId();
    resp.wid = msg.wid;
    resp.warpSlot = msg.warpSlot;
    resp.addr = msg.addr;
    resp.outcome = GetmOutcome::Abort;
    resp.ts = observed; // the abort cause; the core restarts later than it
    resp.reason = static_cast<std::uint8_t>(reason);
    resp.ops = msg.ops;
    resp.bytes = 12;
    stVuAborts.add();
    if (ObsSink *sink = ctx.obs())
        sink->conflictEvent(reason, granule, ctx.partitionId(), now);
    if (ObsSink *tracer = ctx.trace())
        tracer->txAccessDecision(msg.wid, msg.addr, ctx.partitionId(),
                                 /*ok=*/false, now, ready);
    ctx.scheduleToCore(std::move(resp), ready);
}

Cycle
GetmPartitionUnit::processAccess(MemMsg &&msg, Cycle now)
{
    const bool is_load = msg.kind == MsgKind::GetmTxLoad;
    const Addr granule = granuleOf(msg.addr);
    const LogicalTs warpts = msg.ts;

    MetaAccess ma = meta.access(granule);
    TxMetadata &entry = *ma.entry;
    Cycle busy = ma.cycles;
    const Cycle ready = now + busy + ctx.llcLatency();
    const LogicalTs observed = std::max(entry.wts, entry.rts);
    meta.noteTimestamp(warpts);

    DTRACE(Getm,
           "[%8llu] P%u %s wid=%u ts=%llu g=%#llx "
           "(wts=%llu rts=%llu nw=%u own=%d)",
           static_cast<unsigned long long>(now), ctx.partitionId(),
           is_load ? "LD" : "ST", msg.wid,
           static_cast<unsigned long long>(warpts),
           static_cast<unsigned long long>(granule),
           static_cast<unsigned long long>(entry.wts),
           static_cast<unsigned long long>(entry.rts), entry.numWrites,
           static_cast<int>(entry.owner));

    std::uint32_t count = 0;
    for (const LaneOp &op : msg.ops)
        count += op.aux;

    if (entry.locked() && entry.owner == msg.wid) {
        // Owner hit: the warp already holds the reservation.
        if (is_load) {
            entry.rts = std::max(entry.rts, warpts);
            meta.noteTimestamp(entry.rts);
            respondLoad(msg, ready, now);
        } else {
            entry.numWrites += count;
            respondStoreAck(msg, ready);
        }
        if (ObsSink *tracer = ctx.trace())
            tracer->txAccessDecision(msg.wid, msg.addr, ctx.partitionId(),
                                     /*ok=*/true, now, ready);
        entry.approxSeeded = false;
        stOwnerHits.add();
        return busy;
    }

    const LogicalTs limit =
        is_load ? entry.wts : std::max(entry.wts, entry.rts);
    if (warpts < limit) {
        // Conflict with a logically later transaction: abort. Classify
        // the hazard for attribution: a conflict against Bloom-seeded
        // timestamps is (very likely) a false positive the approximate
        // table manufactured; precise-entry conflicts split by hazard
        // kind (load vs. newer write = RAW order violation; store vs.
        // newer write/read = WAW/WAR).
        AbortReason reason;
        if (ma.fromApprox)
            reason = AbortReason::BloomFalsePositive;
        else if (is_load)
            reason = AbortReason::RawTs;
        else if (warpts < entry.wts)
            reason = AbortReason::WawTs;
        else
            reason = AbortReason::WarTs;
        FaultInjector *fi = ctx.faults();
        if (!is_load && !entry.locked() && fi &&
            fi->fire(FaultKind::ForceStoreGrant)) {
            // Injected isolation break: grant the conflicting store
            // anyway. All reservation bookkeeping is kept so the commit
            // unit stays consistent -- only the timestamp check lied.
            entry.wts = warpts + 1;
            entry.owner = msg.wid;
            entry.numWrites += count;
            meta.noteTimestamp(entry.wts);
            respondStoreAck(msg, ready);
            if (ObsSink *tracer = ctx.trace())
                tracer->txAccessDecision(msg.wid, msg.addr,
                                         ctx.partitionId(), /*ok=*/true,
                                         now, ready);
            entry.approxSeeded = false;
            return busy;
        }
        // Genealogy: when the granule is still reserved, the current
        // owner is the logically-later transaction this one lost to.
        if (ObsSink *tracer = ctx.trace())
            tracer->txConflict(msg.wid,
                               entry.locked() ? entry.owner : invalidWarp,
                               reason, granule, ctx.partitionId(), now);
        respondAbort(msg, observed, ready, reason, granule, now);
        return busy;
    }

    if (entry.locked()) {
        // Reserved by a logically older transaction: queue until it
        // commits (or abort if the stall buffer is full). enqueue()
        // leaves a rejected request whole, so it answers its abort.
        const GlobalWarpId wid = msg.wid;
        if (!stall.enqueue(granule, std::move(msg), now)) {
            if (ObsSink *tracer = ctx.trace())
                tracer->txConflict(msg.wid, entry.owner,
                                   AbortReason::StallBufferFull, granule,
                                   ctx.partitionId(), now);
            respondAbort(msg, observed, ready,
                         AbortReason::StallBufferFull, granule, now);
        } else {
            stStalledRequests.add();
            if (ObsSink *sink = ctx.obs())
                sink->stallEvent(AbortReason::LockedByWriter, granule,
                                 ctx.partitionId(),
                                 stall.waitersOn(granule), now);
            if (ObsSink *tracer = ctx.trace())
                tracer->txStallEnter(wid, granule,
                                     ctx.partitionId(), traceNow);
        }
        return busy;
    }

    // Conflict-free access.
    if (is_load) {
        FaultInjector *fi = ctx.faults();
        if (!(fi && fi->fire(FaultKind::SkipRtsBump))) {
            entry.rts = std::max(entry.rts, warpts);
            meta.noteTimestamp(entry.rts);
        }
        respondLoad(msg, ready, now);
    } else {
        entry.wts = warpts + 1;
        entry.owner = msg.wid;
        entry.numWrites += count;
        meta.noteTimestamp(entry.wts);
        respondStoreAck(msg, ready);
    }
    if (ObsSink *tracer = ctx.trace())
        tracer->txAccessDecision(msg.wid, msg.addr, ctx.partitionId(),
                                 /*ok=*/true, now, ready);
    entry.approxSeeded = false;
    return busy;
}

Cycle
GetmPartitionUnit::processCommit(const MemMsg &msg, Cycle now)
{
    // The commit unit coalesces writes and streams them into the LLC at
    // cfg.commitBytesPerCycle; its occupancy gates the partition port.
    const bool committing = msg.flag;
    Cycle busy = std::max<Cycle>(
        1, (msg.bytes + cfg.commitBytesPerCycle - 1) /
               cfg.commitBytesPerCycle);

    for (const LaneOp &op : msg.ops) {
        Addr granule;
        DTRACE(Getm, "[%8llu] P%u %s wid=%u addr=%#llx val=%u cnt=%u",
               static_cast<unsigned long long>(now), ctx.partitionId(),
               committing ? "COMMIT" : "CLEAN", msg.wid,
               static_cast<unsigned long long>(op.addr), op.value,
               op.aux);
        if (committing) {
            FaultInjector *fi = ctx.faults();
            if (fi && fi->fire(FaultKind::DropCommitWrite)) {
                // Injected lost write: neither memory nor the checker's
                // shadow sees it; only the commit intent remembers.
            } else {
                std::uint32_t value = op.value;
                if (fi && fi->fire(FaultKind::CorruptCommit))
                    value ^= 1u;
                ctx.memory().write(op.addr, value);
                if (CheckSink *cs = ctx.check())
                    cs->writeApplied(msg.wid, op.lane, op.addr, value);
            }
            ctx.accessLlc(op.addr, /*is_write=*/true, now);
            granule = granuleOf(op.addr);
        } else {
            granule = op.addr;
        }
        TxMetadata *entry = meta.findPrecise(granule);
        if (!entry)
            panic("commit for unknown granule %#llx",
                  static_cast<unsigned long long>(granule));
        if (entry->owner != msg.wid)
            panic("commit by non-owner warp %u (owner %u)", msg.wid,
                  entry->owner);
        if (entry->numWrites < op.aux)
            panic("#writes underflow on granule %#llx",
                  static_cast<unsigned long long>(granule));
        entry->numWrites -= op.aux;
        if (entry->numWrites == 0) {
            FaultInjector *fi = ctx.faults();
            if (fi && fi->fire(FaultKind::LeakLock)) {
                // Injected liveness fault: the reservation is never
                // released, so the granule stays locked by a retired
                // warp and its waiters park forever. The watchdog /
                // no-future-events guard must catch the result.
            } else {
                entry->owner = invalidWarp;
                busy += releaseWaiters(granule, now + busy);
            }
        }
    }
    (committing ? stCommitMsgs : stAbortMsgs).add();
    return busy;
}

Cycle
GetmPartitionUnit::releaseWaiters(Addr granule, Cycle now)
{
    Cycle busy = 0;
    // Grant stalled requests in warpts order. Once a granted store
    // re-reserves the granule, keep re-validating waiters that are not
    // simply younger strangers: a waiter from the reserving warp itself
    // is an owner hit that nothing else would ever wake (the warp
    // cannot commit while one of its own requests is parked on its own
    // granule), and an equal-or-older waiter now fails the timestamp
    // check and must abort now — leaving it parked lets two
    // equal-warpts warps camp behind each other's fresh reservations in
    // a waits-for cycle no commit breaks. Only a strictly younger
    // waiter from another warp may legally stay parked: its wake-up is
    // the new owner's commit, and the owner is strictly older.
    while (stall.hasWaiters(granule)) {
        TxMetadata *entry = meta.findPrecise(granule);
        if (entry && entry->locked()) {
            const MemMsg *head = stall.peekOldest(granule);
            if (head->wid != entry->owner && head->ts >= entry->wts)
                break;
        }
        Cycle enqueued_at = 0;
        MemMsg queued = stall.popOldest(granule, &enqueued_at);
        if (ObsSink *sink = ctx.obs())
            sink->stallRelease(ctx.partitionId(), now + busy);
        if (ObsSink *tracer = ctx.trace())
            tracer->txStallExit(queued.wid, granule, ctx.partitionId(),
                                enqueued_at, traceNow);
        busy += processAccess(std::move(queued), now + busy);
        stStallGrants.add();
    }
    return busy;
}

void
GetmPartitionUnit::flushForRollover(Cycle now)
{
    traceNow = now;
    // Balance the sink's live-occupancy gauge for dropped waiters.
    if (ObsSink *sink = ctx.obs())
        for (unsigned i = stall.occupancy(); i > 0; --i)
            sink->stallRelease(ctx.partitionId(), 0);
    // Close the tracer's open dwell spans: rollover drops the waiters,
    // so their stall time ends here (the cores restart them fresh).
    if (ObsSink *tracer = ctx.trace())
        stall.forEachWaiter([&](const MemMsg &msg, Cycle enqueued_at) {
            tracer->txStallExit(msg.wid, granuleOf(msg.addr),
                                ctx.partitionId(), enqueued_at, now);
        });
    stall.flush();
    meta.flush();
}

void
GetmPartitionUnit::ckptSave(ckpt::Writer &ar)
{
    ar(meta, stall, traceNow);
}

void
GetmPartitionUnit::ckptLoad(ckpt::Reader &ar)
{
    ar(meta, stall, traceNow);
}

} // namespace getm
