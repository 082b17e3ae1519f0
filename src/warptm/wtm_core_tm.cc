#include "warptm/wtm_core_tm.hh"

#include <bit>
#include <map>

#include "check/fault.hh"
#include "check/sink.hh"
#include "ckpt/serial.hh"
#include "common/log.hh"

namespace getm {

WtmCoreTm::WtmCoreTm(SimtCore &core_, std::shared_ptr<WtmShared> shared_,
                     WtmMode mode_)
    : core(core_), shared(std::move(shared_)), mode(mode_),
      sliceParts(core_.config().maxWarps),
      stElEagerAborts(core_.stats().addCounter("wtm_el_eager_aborts")),
      stLoadReqs(core_.stats().addCounter("wtm_load_reqs")),
      stValidationAborts(core_.stats().addCounter("wtm_validation_aborts")),
      stIntraWarpAborts(core_.stats().addCounter("wtm_intra_warp_aborts")),
      stSilentCommits(core_.stats().addCounter("wtm_silent_commits")),
      stValidations(core_.stats().addCounter("wtm_validations"))
{
}

LaneMask
WtmCoreTm::instantValidate(const Warp &warp, LaneMask lanes,
                           Addr *conflict_addr) const
{
    LaneMask failed = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        for (const LogEntry &entry : warp.logs[lane].readLog()) {
            if (core.memory().read(entry.addr) != entry.value) {
                FaultInjector *fi = core.faults();
                if (fi && fi->fire(FaultKind::SkipValidation))
                    continue; // injected: ignore the failed entry
                failed |= 1u << lane;
                if (conflict_addr && *conflict_addr == invalidAddr)
                    *conflict_addr = core.granuleOf(entry.addr);
                if (ObsSink *obs = core.observer())
                    obs->conflictEvent(
                        AbortReason::EagerValidation,
                        core.granuleOf(entry.addr),
                        core.addressMap().partitionOf(entry.addr),
                        core.now());
                // The committed writer is long gone by the time value
                // validation sees the mismatch, so no aborter is known.
                if (ObsSink *tracer = core.tracer())
                    tracer->txConflict(
                        warp.gwid, invalidWarp,
                        AbortReason::EagerValidation,
                        core.granuleOf(entry.addr),
                        core.addressMap().partitionOf(entry.addr),
                        core.now());
                break;
            }
        }
    }
    return failed;
}

void
WtmCoreTm::txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                    const LaneVals &vals, LaneMask lanes, std::uint8_t rd)
{
    (void)rd;
    if (mode == WtmMode::EagerLazy) {
        // Idealized per-access validation (Sec. III): zero latency and
        // traffic; conflicting lanes abort immediately.
        Addr conflict = invalidAddr;
        const LaneMask failed = instantValidate(warp, lanes, &conflict);
        if (failed) {
            stElEagerAborts.add(
                static_cast<std::uint64_t>(std::popcount(failed)));
            core.abortTxLanes(warp, failed, warp.warpts,
                              AbortReason::EagerValidation, conflict);
            lanes &= ~failed;
            if (!lanes)
                return;
        }
    }

    LaneMask remote = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        const Addr addr = addrs[lane];
        if (is_store) {
            warp.logs[lane].addWrite(addr, vals[lane]);
        } else if (auto own = warp.logs[lane].findWrite(addr)) {
            // Forwarded from the write log; not validated against memory.
            core.writebackLane(warp, lane, *own);
        } else {
            remote |= 1u << lane;
        }
    }

    // Transactional loads fetch from the LLC and probe the TCD table.
    LaneMask pending = remote;
    while (pending) {
        const LaneId lead = static_cast<LaneId>(std::countr_zero(pending));
        const Addr granule = core.granuleOf(addrs[lead]);
        MemMsg msg;
        msg.kind = MsgKind::WtmTxLoad;
        msg.addr = granule;
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        msg.ts = warp.warpts;
        for (LaneId lane = lead; lane < warpSize; ++lane) {
            if (!(pending & (1u << lane)) ||
                core.granuleOf(addrs[lane]) != granule)
                continue;
            msg.ops.push_back(
                {static_cast<std::uint8_t>(lane), addrs[lane], 0, 0});
            pending &= ~(1u << lane);
        }
        msg.bytes = 8 + 4 * static_cast<unsigned>(msg.ops.size());
        if (ObsSink *tracer = core.tracer())
            tracer->txAccessIssue(warp.gwid, granule, /*store=*/false,
                                  core.now());
        core.sendToPartition(std::move(msg));
        ++warp.outstanding;
        stLoadReqs.add();
    }
}

void
WtmCoreTm::onResponse(Warp &warp, const MemMsg &msg)
{
    switch (msg.kind) {
      case MsgKind::WtmLoadResp:
        if (ObsSink *tracer = core.tracer())
            tracer->txAccessResponse(warp.gwid, msg.addr, core.now());
        for (const LaneOp &op : msg.ops) {
            if (warp.abortedMask & (1u << op.lane))
                continue;
            core.writebackLane(warp, op.lane, op.value);
            warp.logs[op.lane].addRead(op.addr, op.value);
            // TCD: a lane stays silently committable only while every
            // location it read was last written before the tx started.
            if (static_cast<Cycle>(op.aux) >= warp.txStartCycle)
                warp.tcdOkLanes &= ~(1u << op.lane);
        }
        core.completeBlockingResponse(warp);
        break;

      case MsgKind::WtmValidateResp: {
        for (const LaneOp &op : msg.ops)
            warp.validationFailed |= 1u << op.lane;
        if (warp.pendingValidations == 0)
            panic("unexpected validation response");
        if (--warp.pendingValidations == 0) {
            // Second round trip: send the commit/abort decision.
            const LaneMask pass =
                warp.wtmValidating & ~warp.validationFailed;
            for (PartitionId part : sliceParts[warp.slot]) {
                MemMsg decision;
                decision.kind = MsgKind::WtmDecision;
                decision.wid = warp.gwid;
                decision.warpSlot = warp.slot;
                decision.txId = warp.commitId;
                decision.ts = pass;
                decision.flag = pass != 0;
                decision.partition = part;
                decision.bytes = 8;
                decision.addr = 0;
                decision.core = core.id();
                core.sendToPartitionDirect(std::move(decision));
                ++warp.pendingAcks;
            }
            if (warp.pendingAcks == 0)
                panic("validation with no slice partitions");
        }
        break;
      }

      case MsgKind::WtmCommitAck:
        if (warp.pendingAcks == 0)
            panic("unexpected commit ack");
        if (--warp.pendingAcks == 0) {
            const LaneMask committed =
                warp.wtmSilent | (warp.wtmValidating & ~warp.validationFailed);
            if (warp.validationFailed) {
                stValidationAborts.add(static_cast<std::uint64_t>(
                    std::popcount(warp.validationFailed)));
                // The conflicting addresses were reported partition-side
                // during validation; only the reason is known here.
                core.abortTxLanes(warp, warp.validationFailed, warp.warpts,
                                  AbortReason::Validation, invalidAddr);
            }
            sliceParts[warp.slot].clear();
            core.retireTxAttempt(warp, committed);
        }
        break;

      default:
        panic("WarpTM core engine received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

void
WtmCoreTm::txCommitPoint(Warp &warp)
{
    if (mode == WtmMode::EagerLazy) {
        // Defer to the commit micro-phase that runs after every core
        // ticked: the final instant validation and the write-log
        // application then happen in core order at the end of the
        // cycle, the schedule the golden outputs pin. CommitWait parks
        // the warp so the scheduler cannot re-issue it this cycle.
        deferredCommits.push_back(warp.slot);
        core.changeState(warp, WarpState::CommitWait);
        return;
    }
    finishCommitPoint(warp);
}

bool
WtmCoreTm::runDeferredCommits(Cycle now)
{
    (void)now; // clock already synced by runDeferredProtocolWork()
    if (deferredCommits.empty())
        return false;
    // finishCommitPoint can abort lanes, which may re-enter the commit
    // path; swap the queue so such re-entries land in the next batch.
    std::vector<std::uint32_t> batch;
    batch.swap(deferredCommits);
    for (const std::uint32_t slot : batch)
        finishCommitPoint(core.allWarps()[slot]);
    return true;
}

void
WtmCoreTm::finishCommitPoint(Warp &warp)
{
    const int txi = warp.transactionIndex();
    if (txi < 0)
        panic("WarpTM commit point without a transaction");

    if (mode == WtmMode::EagerLazy) {
        // Final instant validation keeps the emulation correct: a
        // conflicting commit may have landed since the last access.
        Addr conflict = invalidAddr;
        const LaneMask failed =
            instantValidate(warp, warp.stack[txi].mask, &conflict);
        if (failed) {
            stElEagerAborts.add(
                static_cast<std::uint64_t>(std::popcount(failed)));
            core.abortTxLanes(warp, failed, warp.warpts,
                              AbortReason::EagerValidation, conflict);
        }
    }

    LaneMask committers = warp.stack[txi].mask;

    // Intra-warp conflict resolution (two-phase parallel, Sec. V-A).
    const LaneMask survivors = IntraWarpCd::resolveAtCommit(
        warp.logs.data(), warpSize, committers);
    const LaneMask losers = committers & ~survivors;
    if (losers) {
        stIntraWarpAborts.add(
            static_cast<std::uint64_t>(std::popcount(losers)));
        core.abortTxLanes(warp, losers, warp.warpts,
                          AbortReason::IntraWarp, invalidAddr);
    }

    // Read-only lanes that pass the temporal conflict check commit
    // silently, skipping value-based validation entirely.
    LaneMask silent = 0;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        const LaneMask bit = 1u << lane;
        if (!(survivors & bit))
            continue;
        if (warp.logs[lane].readOnly() &&
            ((warp.tcdOkLanes & bit) || mode == WtmMode::EagerLazy))
            silent |= bit;
    }
    warp.wtmSilent = silent;
    warp.wtmValidating = survivors & ~silent;
    warp.validationFailed = 0;
    warp.pendingValidations = 0;
    warp.pendingAcks = 0;

    if (!warp.wtmValidating) {
        stSilentCommits.add(
            static_cast<std::uint64_t>(std::popcount(silent)));
        core.retireTxAttempt(warp, survivors);
        return;
    }

    if (maybePause(warp))
        return; // EAPG: resumed via startValidation() later.

    startValidation(warp);
}

void
WtmCoreTm::startValidation(Warp &warp)
{
    warp.commitIssued = true;

    // Build per-partition slices of the surviving lanes' logs.
    std::map<PartitionId, MemMsg> slices;
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        const LaneMask bit = 1u << lane;
        if (!(warp.wtmValidating & bit))
            continue;
        if (mode == WtmMode::LazyLazy) {
            for (const LogEntry &entry : warp.logs[lane].readLog())
                slices[core.addressMap().partitionOf(entry.addr)]
                    .ops.push_back({static_cast<std::uint8_t>(lane),
                                    entry.addr, entry.value, 0});
        }
        for (const LogEntry &entry : warp.logs[lane].writeLog())
            slices[core.addressMap().partitionOf(entry.addr)]
                .ops.push_back({static_cast<std::uint8_t>(lane), entry.addr,
                                entry.value, 1});
    }

    sliceParts[warp.slot].clear();

    if (mode == WtmMode::EagerLazy) {
        // Idealized emulation: the write set becomes visible atomically
        // with the (instant) final validation, so the functional apply
        // happens here; the write-log messages and acks model the
        // single-round-trip commit timing only.
        for (auto &[part, msg] : slices) {
            for (const LaneOp &op : msg.ops) {
                FaultInjector *fi = core.faults();
                if (fi && fi->fire(FaultKind::DropCommitWrite))
                    continue; // injected lost write
                std::uint32_t value = op.value;
                if (fi && fi->fire(FaultKind::CorruptCommit))
                    value ^= 1u;
                core.memory().write(op.addr, value);
                if (CheckSink *cs = core.checker())
                    cs->writeApplied(warp.gwid, op.lane, op.addr, value);
            }
        }
        for (auto &[part, msg] : slices) {
            msg.kind = MsgKind::WtmValidate;
            msg.flag = true; // eager-lazy: apply immediately
            msg.wid = warp.gwid;
            msg.warpSlot = warp.slot;
            msg.txId = 0;
            msg.partition = part;
            msg.core = core.id();
            msg.addr = 0;
            msg.bytes = 8 + 12 * static_cast<unsigned>(msg.ops.size());
            core.sendToPartitionDirect(std::move(msg));
            ++warp.pendingAcks;
        }
        if (warp.pendingAcks == 0) {
            // Writes all forwarded? (Cannot happen: validating lanes have
            // writes by construction.) Retire defensively.
            core.retireTxAttempt(warp,
                                 warp.wtmSilent | warp.wtmValidating);
            return;
        }
        core.changeState(warp, WarpState::CommitWait);
        return;
    }

    // Lazy-lazy: two round trips in global commit order. Every partition
    // receives either its slice or a skip so ids stay contiguous.
    warp.commitId = shared->nextCommitId++;
    const unsigned parts = core.addressMap().numPartitions();
    for (PartitionId part = 0; part < parts; ++part) {
        auto it = slices.find(part);
        MemMsg msg;
        if (it != slices.end()) {
            msg = std::move(it->second);
            msg.kind = MsgKind::WtmValidate;
            msg.flag = false;
            msg.bytes = 8 + 12 * static_cast<unsigned>(msg.ops.size());
            sliceParts[warp.slot].push_back(part);
            ++warp.pendingValidations;
        } else {
            msg.kind = MsgKind::WtmSkip;
            msg.bytes = 8;
        }
        msg.wid = warp.gwid;
        msg.warpSlot = warp.slot;
        msg.txId = warp.commitId;
        msg.partition = part;
        msg.core = core.id();
        msg.addr = 0;
        core.sendToPartitionDirect(std::move(msg));
    }
    stValidations.add();
    core.changeState(warp, WarpState::CommitWait);
}

void
WtmCoreTm::ckptSave(ckpt::Writer &ar)
{
    ar(sliceParts, deferredCommits);
}

void
WtmCoreTm::ckptLoad(ckpt::Reader &ar)
{
    ar(sliceParts, deferredCommits);
}

} // namespace getm
