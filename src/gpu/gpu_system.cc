#include "gpu/gpu_system.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <string>

#include "check/checker.hh"
#include "check/fault.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "common/log.hh"
#include "common/stop_flag.hh"
#include "core/getm_core_tm.hh"
#include "gpu/config_file.hh"
#include "eapg/eapg.hh"
#include "warptm/wtm_core_tm.hh"
#include "warptm/wtm_partition.hh"

namespace getm {

const char *
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::FgLock: return "FGLock";
      case ProtocolKind::Getm: return "GETM";
      case ProtocolKind::WarpTmLL: return "WarpTM-LL";
      case ProtocolKind::WarpTmEL: return "WarpTM-EL";
      case ProtocolKind::Eapg: return "EAPG";
    }
    return "?";
}

bool
parseProtocolName(std::string name, ProtocolKind &out)
{
    for (auto &ch : name)
        ch = static_cast<char>(std::tolower(ch));
    if (name == "getm")
        out = ProtocolKind::Getm;
    else if (name == "warptm" || name == "warptm-ll")
        out = ProtocolKind::WarpTmLL;
    else if (name == "warptm-el" || name == "el")
        out = ProtocolKind::WarpTmEL;
    else if (name == "eapg")
        out = ProtocolKind::Eapg;
    else if (name == "fglock" || name == "lock")
        out = ProtocolKind::FgLock;
    else
        return false;
    return true;
}

GpuConfig
GpuConfig::gtx480()
{
    GpuConfig cfg;
    cfg.numCores = 15;
    cfg.numPartitions = 6;
    cfg.core.maxWarps = 48;
    return cfg;
}

GpuConfig
GpuConfig::scaled56()
{
    GpuConfig cfg;
    cfg.numCores = 56;
    cfg.numPartitions = 8;
    cfg.core.maxWarps = 48;
    cfg.llcBytesPerPartition = 512 * 1024; // 4 MB total, 8 banks
    // Paper: for WarpTM the recency filter (TCD) doubles; for GETM only
    // the precise metadata table is doubled.
    cfg.wtm.tcdEntries = 4096;
    cfg.getmPreciseEntriesTotal = 8192;
    return cfg;
}

GpuConfig
GpuConfig::testRig()
{
    GpuConfig cfg;
    cfg.numCores = 2;
    cfg.numPartitions = 2;
    cfg.core.maxWarps = 4;
    cfg.llcBytesPerPartition = 32 * 1024;
    cfg.llcLatency = 20;
    cfg.dram.accessLatency = 40;
    cfg.getmPreciseEntriesTotal = 512;
    cfg.getmBloomEntriesTotal = 128;
    return cfg;
}

namespace {

/**
 * Screen a configuration before any member construction touches it (a
 * zero partition count would already break the AddressMap). Rejections
 * are recoverable CONFIG errors, not process aborts.
 */
const GpuConfig &
validatedConfig(const GpuConfig &config)
{
    std::string error;
    if (!validateGpuConfig(config, error))
        throw SimError(SimErrorKind::Config, error);
    return config;
}

} // namespace

GpuSystem::GpuSystem(const GpuConfig &config)
    : cfg(validatedConfig(config)),
      addrMap(cfg.numPartitions, cfg.lineBytes),
      xbarUp("xbar.up", cfg.numCores, cfg.numPartitions, cfg.xbar),
      xbarDown("xbar.down", cfg.numPartitions, cfg.numCores, cfg.xbar),
      partWake(cfg.numPartitions, 0), coreWake(cfg.numCores, 0)
{
    // Sends wake their destination: the event loop never polls inboxes.
    xbarUp.wakeInto(partWake.data());
    xbarDown.wakeInto(coreWake.data());

    CoreConfig core_cfg = cfg.core;
    core_cfg.lineBytes = cfg.lineBytes;
    core_cfg.txGranule = cfg.getmGranule;
    core_cfg.seed = cfg.seed;

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        coreArray.push_back(std::make_unique<SimtCore>(
            c, core_cfg, addrMap, store, [this, c](MemMsg &&msg) {
                const PartitionId part = msg.partition;
                const unsigned bytes = msg.bytes;
                xbarUp.send(c, part, bytes, coreArray[c]->now(),
                            std::move(msg));
            }));
    }
    for (PartitionId p = 0; p < cfg.numPartitions; ++p) {
        partArray.push_back(std::make_unique<MemPartition>(
            p, cfg, addrMap, store, xbarUp, xbarDown, cfg.numCores));
    }
    if (!cfg.timelinePath.empty())
        for (auto &core : coreArray)
            core->setTimeline(&timeline);
    for (auto &core : coreArray)
        core->setObserver(&observability);
    for (auto &part : partArray)
        part->setObserver(&observability);
    if (cfg.traceTx > 0) {
        txTracer = std::make_unique<TxTracer>(cfg.traceTx);
        for (auto &core : coreArray)
            core->setTracer(txTracer.get());
        for (auto &part : partArray)
            part->setTracer(txTracer.get());
        // Passive hop observer: delivery cycles are already decided
        // when the hook runs, so the NoC model cannot be perturbed.
        xbarUp.setSendHook(
            [this](const MemMsg &msg, Cycle sent, Cycle arrived) {
                txTracer->nocHop(true, sent, arrived, msg.bytes);
            });
        xbarDown.setSendHook(
            [this](const MemMsg &msg, Cycle sent, Cycle arrived) {
                txTracer->nocHop(false, sent, arrived, msg.bytes);
            });
    }
    if (cfg.checkLevel > 0) {
        checker = std::make_unique<Checker>(
            static_cast<CheckLevel>(cfg.checkLevel));
        for (auto &core : coreArray)
            core->setChecker(checker.get());
        for (auto &part : partArray)
            part->setChecker(checker.get());
    }
    if (cfg.injectFault > 0 &&
        cfg.injectFault < static_cast<unsigned>(FaultKind::Count)) {
        // One injector per component, each with a counter stream derived
        // from the component's identity, so a component's Bernoulli
        // draws depend only on its own decision history. That pins
        // --inject results: a fault firing in one component cannot shift
        // the draws of any other. Partitions take a disjoint seed offset
        // so core c and partition c (same seed ^ id otherwise) do not
        // share a stream.
        const auto kind = static_cast<FaultKind>(cfg.injectFault);
        for (CoreId c = 0; c < cfg.numCores; ++c)
            faultInjectors.push_back(std::make_unique<FaultInjector>(
                kind, cfg.injectProb, cfg.seed ^ c));
        for (PartitionId p = 0; p < cfg.numPartitions; ++p)
            faultInjectors.push_back(std::make_unique<FaultInjector>(
                kind, cfg.injectProb, cfg.seed ^ (0x9e00ull + p)));
        for (CoreId c = 0; c < cfg.numCores; ++c)
            coreArray[c]->setFaults(faultInjectors[c].get());
        for (PartitionId p = 0; p < cfg.numPartitions; ++p)
            partArray[p]->setFaults(
                faultInjectors[cfg.numCores + p].get());
    }
    wireProtocol();
    setupTelemetry();
}

void
GpuSystem::setupTelemetry()
{
    // Name every Perfetto track up front so traces open with "core N" /
    // "warp slot K" rows instead of bare pids/tids. Counter tracks live
    // on a dedicated pseudo-process after the cores.
    const std::uint32_t telemetry_pid = cfg.numCores;
    if (!cfg.timelinePath.empty()) {
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            timeline.nameProcess(c, "core " + std::to_string(c));
            for (std::uint32_t s = 0; s < cfg.core.maxWarps; ++s)
                timeline.nameThread(c, s,
                                    "warp slot " + std::to_string(s));
        }
        timeline.nameProcess(telemetry_pid, "telemetry");
        if (txTracer) {
            // Validation-unit spans live on their own pseudo-process,
            // one thread per partition, after the telemetry tracks.
            const std::uint32_t vu_pid = cfg.numCores + 1;
            timeline.nameProcess(vu_pid, "validation units");
            for (PartitionId p = 0; p < cfg.numPartitions; ++p)
                timeline.nameThread(vu_pid, p,
                                    "partition " + std::to_string(p));
            TxTraceEmit emit;
            emit.warpSpan = [this](CoreId core, std::uint32_t slot,
                                   const std::string &name, Cycle ts,
                                   Cycle dur) {
                timeline.complete(core, slot, name, ts, dur);
            };
            emit.warpInstant = [this](CoreId core, std::uint32_t slot,
                                      const std::string &name, Cycle ts) {
                timeline.instant(core, slot, name.c_str(), ts);
            };
            emit.vuSpan = [this, vu_pid](PartitionId partition,
                                         const std::string &name,
                                         Cycle ts, Cycle dur) {
                timeline.complete(vu_pid, partition, name, ts, dur);
            };
            txTracer->setEmit(std::move(emit));
        }
    }

    if (cfg.sampleInterval == 0)
        return;
    CycleSampler &sampler = observability.cycleSampler();
    sampler.setInterval(cfg.sampleInterval);
    sampler.addProbe("active_warps", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->activeWarps();
        return static_cast<double>(total);
    });
    sampler.addProbe("tx_warps", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->activeTxWarps();
        return static_cast<double>(total);
    });
    sampler.addProbe("stall_buffer_fill", [this] {
        return static_cast<double>(observability.stallOccupancy());
    });
    sampler.addProbe("mshr_fill", [this] {
        unsigned total = 0;
        for (const auto &core : coreArray)
            total += core->mshrOccupancy();
        return static_cast<double>(total);
    });
    sampler.addProbe("xbar_inflight", [this] {
        return static_cast<double>(xbarUp.inFlight() +
                                   xbarDown.inFlight());
    });
    if (!cfg.timelinePath.empty()) {
        const std::uint32_t pid = telemetry_pid;
        sampler.setEmit(
            [this, pid](const std::string &name, Cycle ts, double value) {
                timeline.counter(pid, name, ts, value);
            });
    }
}

GpuSystem::~GpuSystem() = default;

void
GpuSystem::wireProtocol()
{
    switch (cfg.protocol) {
      case ProtocolKind::FgLock:
        break; // no TM hardware

      case ProtocolKind::Getm: {
        GetmPartitionConfig part_cfg;
        part_cfg.meta.preciseEntries =
            std::max(16u, cfg.getmPreciseEntriesTotal / cfg.numPartitions);
        part_cfg.meta.bloomEntries =
            std::max(16u, cfg.getmBloomEntriesTotal / cfg.numPartitions);
        part_cfg.meta.seed = cfg.seed ^ 0x9e7a;
        part_cfg.meta.useMaxRegisters = cfg.getmUseMaxRegisters;
        part_cfg.stall = cfg.getmStall;
        part_cfg.granule = cfg.getmGranule;
        for (auto &core : coreArray)
            core->setProtocol(std::make_unique<GetmCoreTm>(*core));
        for (auto &part : partArray) {
            auto unit = std::make_unique<GetmPartitionUnit>(
                *part, part_cfg,
                "part" + std::to_string(part->partitionId()) + ".getm");
            unit->stallBuffer().setTracker(&stallTracker);
            getmUnits.push_back(unit.get());
            part->setProtocol(std::move(unit));
        }
        break;
      }

      case ProtocolKind::WarpTmLL:
      case ProtocolKind::WarpTmEL: {
        wtmShared = std::make_shared<WtmShared>();
        const WtmMode mode = cfg.protocol == ProtocolKind::WarpTmLL
                                 ? WtmMode::LazyLazy
                                 : WtmMode::EagerLazy;
        for (auto &core : coreArray)
            core->setProtocol(
                std::make_unique<WtmCoreTm>(*core, wtmShared, mode));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<WtmPartitionUnit>(
                *part, cfg.wtm,
                "part" + std::to_string(part->partitionId()) + ".wtm"));
        break;
      }

      case ProtocolKind::Eapg: {
        wtmShared = std::make_shared<WtmShared>();
        for (auto &core : coreArray)
            core->setProtocol(std::make_unique<EapgCoreTm>(*core,
                                                           wtmShared));
        for (auto &part : partArray)
            part->setProtocol(std::make_unique<EapgPartitionUnit>(
                *part, cfg.wtm,
                "part" + std::to_string(part->partitionId()) + ".eapg"));
        break;
      }
    }
}

bool
GpuSystem::allDone() const
{
    for (const auto &core : coreArray)
        if (!core->done())
            return false;
    return true;
}

bool
GpuSystem::drained(Cycle now) const
{
    // GETM commits are fire-and-forget: after the last warp retires, its
    // write log may still be crossing the interconnect. The run only
    // ends once every message has been delivered and processed.
    if (!xbarUp.idle() || !xbarDown.idle())
        return false;
    for (const auto &part : partArray)
        if (!part->idle(now))
            return false;
    return true;
}

Cycle
GpuSystem::computeNextCycle(Cycle now) const
{
    Cycle best = ~static_cast<Cycle>(0);
    for (const auto &core : coreArray)
        best = std::min(best, core->nextEventCycle(now + 1));
    for (const auto &part : partArray)
        best = std::min(best, part->nextEventCycle(now));
    best = std::min(best, xbarUp.nextArrival());
    best = std::min(best, xbarDown.nextArrival());
    if (best == ~static_cast<Cycle>(0))
        return best;
    return std::max(best, now + 1);
}

void
GpuSystem::maybeRollover(Cycle now)
{
    // No-op under the legacy loop (every core ticked this cycle); the
    // event loop skips not-due cores, whose clocks would otherwise lag
    // the rollover's forced aborts.
    for (auto &core : coreArray)
        core->syncClock(now);

    if (!rolloverPending) {
        LogicalTs max_ts = 0;
        for (GetmPartitionUnit *unit : getmUnits)
            max_ts = std::max(max_ts, unit->maxTimestamp());
        // Timestamps embed the warp id below tsWarpIdBits; the
        // threshold is expressed in logical-clock epochs.
        if (tsClock(max_ts) < cfg.rolloverThreshold)
            return;
        // Begin rollover: freeze transactional progress and force all
        // in-flight attempts to abort and release their reservations.
        rolloverPending = true;
        for (auto &core : coreArray) {
            core->setTxFrozen(true);
            for (Warp &warp : core->allWarps()) {
                if (!warp.inTx)
                    continue;
                const int txi = warp.transactionIndex();
                if (txi >= 0 && warp.stack[txi].mask)
                    core->abortTxLanes(warp, warp.stack[txi].mask, 0,
                                       AbortReason::Rollover, invalidAddr);
            }
        }
        inform("GETM timestamp rollover initiated at cycle %llu",
               static_cast<unsigned long long>(now));
        return;
    }

    // Mid-rollover: wait for quiescence, then flush and resume.
    for (const auto &core : coreArray)
        if (!core->quiescent())
            return;
    for (GetmPartitionUnit *unit : getmUnits)
        if (unit->metadata().lockedCount() ||
            unit->stallBuffer().occupancy())
            return;

    for (GetmPartitionUnit *unit : getmUnits)
        unit->flushForRollover(now);
    for (auto &part : partArray)
        part->addPipelineStall(now, cfg.rolloverPenalty);
    for (auto &core : coreArray) {
        for (Warp &warp : core->allWarps()) {
            warp.warpts = 0;
            warp.maxObservedTs = 0;
        }
        core->setTxFrozen(false);
    }
    rolloverPending = false;
    ++rollovers;
    inform("GETM timestamp rollover completed at cycle %llu",
           static_cast<unsigned long long>(now));
}

std::uint64_t
GpuSystem::progressSample() const
{
    std::uint64_t total = 0;
    for (const auto &core : coreArray)
        total += core->instructionsRetired() + core->commitLaneCount();
    return total;
}

void
GpuSystem::checkGuards(const Kernel &kernel, Cycle now, Cycle max_cycles,
                       GuardState &guard)
{
    if (now >= max_cycles)
        throw SimError(buildDiagnostic(
            SimErrorKind::CycleLimit,
            "kernel " + kernel.name() + " exceeded max cycles (" +
                std::to_string(max_cycles) + ")",
            now, now - guard.lastProgressCycle));

    // Livelock watchdog: sampled only once the window has elapsed, so
    // a passing run pays one counter sum per cfg.watchdogCycles.
    if (cfg.watchdogCycles &&
        now - guard.lastProgressCycle >= cfg.watchdogCycles) {
        const std::uint64_t sample = progressSample();
        if (sample != guard.lastProgressValue) {
            guard.lastProgressValue = sample;
            guard.lastProgressCycle = now;
        } else {
            throw SimError(buildDiagnostic(
                SimErrorKind::Livelock,
                "no instruction retired and no transaction committed "
                "for " +
                    std::to_string(now - guard.lastProgressCycle) +
                    " cycles",
                now, now - guard.lastProgressCycle));
        }
    }

    // Wall-clock budget, checked every 256 loop iterations so the
    // clock read stays off the per-cycle path.
    if (cfg.timeoutSec > 0.0 && (++guard.iterations & 255) == 0) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - guard.wallStart)
                .count();
        if (elapsed >= cfg.timeoutSec)
            throw SimError(buildDiagnostic(
                SimErrorKind::WallTimeout,
                "wall-clock budget of " +
                    std::to_string(cfg.timeoutSec) + " s exceeded",
                now, now - guard.lastProgressCycle));
    }
}

SimDiagnostic
GpuSystem::buildDiagnostic(SimErrorKind kind, std::string message,
                           Cycle now, Cycle since_progress)
{
    SimDiagnostic diag;
    diag.kind = kind;
    diag.message = std::move(message);
    diag.cycle = now;
    diag.sinceProgressCycles = since_progress;
    for (const auto &core : coreArray) {
        diag.instructions += core->instructionsRetired();
        diag.commitLanes += core->commitLaneCount();
    }
    diag.nocInFlightUp = xbarUp.inFlight();
    diag.nocInFlightDown = xbarDown.inFlight();

    // Scheduler-state histogram and the worst consecutive-abort
    // streaks (warps at or past a quarter of the starvation ceiling).
    constexpr unsigned num_states =
        static_cast<unsigned>(WarpState::Idle) + 1;
    std::array<unsigned, num_states> state_counts{};
    const unsigned starve_floor =
        std::max(1u, cfg.core.starvationAbortCeiling / 4);
    for (auto &core : coreArray) {
        for (const Warp &warp : core->allWarps()) {
            ++state_counts[static_cast<unsigned>(warp.state)];
            if (warp.inTx &&
                warp.backoff.consecutiveAborts() >= starve_floor) {
                SimDiagnostic::StarvingWarp row;
                row.core = core->id();
                row.slot = warp.slot;
                row.gwid = warp.gwid;
                row.consecutiveAborts = warp.backoff.consecutiveAborts();
                row.state = warpStateName(warp.state);
                diag.starvingWarps.push_back(std::move(row));
            }
        }
    }
    for (unsigned s = 0; s < num_states; ++s)
        if (state_counts[s])
            diag.warpStates.emplace_back(
                warpStateName(static_cast<WarpState>(s)),
                state_counts[s]);
    std::sort(diag.starvingWarps.begin(), diag.starvingWarps.end(),
              [](const SimDiagnostic::StarvingWarp &a,
                 const SimDiagnostic::StarvingWarp &b) {
                  return a.consecutiveAborts > b.consecutiveAborts;
              });
    if (diag.starvingWarps.size() > 16)
        diag.starvingWarps.resize(16);

    for (std::size_t p = 0; p < getmUnits.size(); ++p) {
        SimDiagnostic::PartitionRow row;
        row.partition = static_cast<unsigned>(p);
        row.metaOccupancy = getmUnits[p]->metadata().occupancy();
        row.metaLocked = getmUnits[p]->metadata().lockedCount();
        row.stallOccupancy = getmUnits[p]->stallBuffer().occupancy();
        diag.partitions.push_back(row);
    }

    for (const HotAddrRow &row : observability.profiler().topN(8))
        diag.hotAddrs.push_back({row.addr, row.total});
    return diag;
}

Cycle
GpuSystem::runLegacyLoop(const Kernel &kernel, Cycle max_cycles)
{
    Cycle now = resumeCycle;
    const bool getm_rollover =
        cfg.protocol == ProtocolKind::Getm &&
        cfg.rolloverThreshold != ~static_cast<LogicalTs>(0);
    const bool el_micro = cfg.protocol == ProtocolKind::WarpTmEL;
    guard.wallStart = std::chrono::steady_clock::now();

    while (!allDone() || !drained(now)) {
        checkGuards(kernel, now, max_cycles, guard);
        checkpointTop(kernel, now);

        for (auto &part : partArray)
            part->tick(now);
        for (auto &core : coreArray) {
            const CoreId c = core->id();
            while (xbarDown.hasReady(c, now))
                core->deliver(xbarDown.popReady(c), now);
        }
        for (auto &core : coreArray)
            core->tick(now);

        // EL commit micro-phase: commits the engines parked during the
        // ticks run in core order after every core ticked, in both
        // loops, so the two share one schedule.
        if (el_micro)
            for (auto &core : coreArray)
                core->runDeferredProtocolWork(now);

        observability.cycleSampler().maybeSample(now);

        if (getm_rollover || rolloverPending)
            maybeRollover(now);

        Cycle next = computeNextCycle(now);
        // Wake at sample boundaries too, so idle-cycle skipping cannot
        // starve the telemetry series (a skipped boundary would collapse
        // several samples into one).
        if (next != ~static_cast<Cycle>(0) &&
            observability.cycleSampler().enabled())
            next = std::max<Cycle>(
                now + 1,
                std::min(next,
                         observability.cycleSampler().nextSampleCycle()));
        if (next == ~static_cast<Cycle>(0)) {
            if (allDone() && drained(now))
                break;
            if (rolloverPending) {
                now = now + 1; // draining towards quiescence
                continue;
            }
            throw SimError(buildDiagnostic(
                SimErrorKind::Deadlock,
                "no future events at cycle " + std::to_string(now),
                now, now - guard.lastProgressCycle));
        }
        now = next;
    }
    return now;
}

Cycle
GpuSystem::coreWakeAfter(CoreId c, Cycle now) const
{
    return std::min(coreArray[c]->nextEventCycle(now + 1),
                    xbarDown.headArrival(c));
}

Cycle
GpuSystem::runEventLoop(const Kernel &kernel, Cycle max_cycles)
{
    // The legacy loop ticks every component on every visited cycle, but
    // a tick on a component whose wake lies in the future is a no-op:
    // component state only changes inside tick()/deliver() (or under
    // maybeRollover(), handled below). So this loop keeps one exact wake
    // cycle per component and ticks only the due ones. Nothing is
    // scanned for: a component's own events enter its wake when it
    // ticks (partitions count their inbox head, cores add theirs), and
    // a message sent later lowers its destination's wake from inside
    // Crossbar::send (wired in the constructor). Invariant: a wake is
    // never later than the arrival of the destination's oldest queued
    // message.
    //
    // Each visited cycle runs three passes in a fixed order: due
    // partitions in id order, then deliveries to every due core, then
    // ticks of every due core, both in core order. Deliveries and ticks
    // stay separate passes: a delivery can trigger sends on the shared
    // up-crossbar ports, and interleaving it with earlier cores' ticks
    // would reorder those sends and change the timing.
    const Cycle never = ~static_cast<Cycle>(0);
    const unsigned ncores = static_cast<unsigned>(coreArray.size());
    const unsigned nparts = static_cast<unsigned>(partArray.size());

    // Cycle 0 behaves like the legacy loop's first iteration: everything
    // is due once, then earns its wake. After a restore, the first
    // visited cycle plays the same role (the wakes are not
    // checkpointed): forcing every component due is harmless, and each
    // then earns its wake from restored state.
    std::fill(partWake.begin(), partWake.end(), resumeCycle);
    std::fill(coreWake.begin(), coreWake.end(), resumeCycle);
    // Finished cores, for the termination test: a core only finishes
    // inside its own tick, and never un-finishes.
    unsigned doneCores = 0;
    for (const auto &core : coreArray)
        doneCores += core->done();

    Cycle now = resumeCycle;
    const bool getm_rollover =
        cfg.protocol == ProtocolKind::Getm &&
        cfg.rolloverThreshold != ~static_cast<LogicalTs>(0);
    const bool el_micro = cfg.protocol == ProtocolKind::WarpTmEL;
    guard.wallStart = std::chrono::steady_clock::now();

    while (doneCores < ncores || !drained(now)) {
        checkGuards(kernel, now, max_cycles, guard);
        checkpointTop(kernel, now);

        for (PartitionId p = 0; p < nparts; ++p) {
            if (partWake[p] <= now) {
                partArray[p]->tick(now);
                partWake[p] = partArray[p]->nextEventCycle(now);
            }
        }
        for (CoreId c = 0; c < ncores; ++c) {
            if (coreWake[c] > now)
                continue;
            SimtCore &core = *coreArray[c];
            while (xbarDown.hasReady(c, now))
                core.deliver(xbarDown.popReady(c), now);
        }
        for (CoreId c = 0; c < ncores; ++c) {
            if (coreWake[c] > now)
                continue;
            SimtCore &core = *coreArray[c];
            const bool was_done = core.done();
            core.tick(now);
            doneCores += !was_done && core.done();
            coreWake[c] = coreWakeAfter(c, now);
        }

        // EL commit micro-phase (see runLegacyLoop): refresh the wake of
        // any core whose deferred commit retired or restarted warps.
        if (el_micro) {
            for (CoreId c = 0; c < ncores; ++c)
                if (coreArray[c]->runDeferredProtocolWork(now))
                    coreWake[c] = coreWakeAfter(c, now);
        }

        observability.cycleSampler().maybeSample(now);

        if (getm_rollover || rolloverPending) {
            const bool was_pending = rolloverPending;
            maybeRollover(now);
            if (rolloverPending != was_pending) {
                // Rollover transitions mutate cores (freeze/unfreeze,
                // forced aborts) and partitions (flush, pipeline stall)
                // from outside their tick(); recompute every wake.
                for (CoreId c = 0; c < ncores; ++c)
                    coreWake[c] = coreWakeAfter(c, now);
                for (PartitionId p = 0; p < nparts; ++p)
                    partWake[p] = partArray[p]->nextEventCycle(now);
            }
        }

        Cycle next = std::min(
            *std::min_element(coreWake.begin(), coreWake.end()),
            *std::min_element(partWake.begin(), partWake.end()));
        if (next != never)
            next = std::max(next, now + 1);
        // Wake at sample boundaries too, so idle-cycle skipping cannot
        // starve the telemetry series (a skipped boundary would collapse
        // several samples into one).
        if (next != never && observability.cycleSampler().enabled())
            next = std::max<Cycle>(
                now + 1,
                std::min(next,
                         observability.cycleSampler().nextSampleCycle()));
        if (next == never) {
            if (doneCores == ncores && drained(now))
                break;
            if (rolloverPending) {
                now = now + 1; // draining towards quiescence
                continue;
            }
            throw SimError(buildDiagnostic(
                SimErrorKind::Deadlock,
                "no future events at cycle " + std::to_string(now),
                now, now - guard.lastProgressCycle));
        }
        now = next;
    }
    return now;
}

std::uint64_t
GpuSystem::checkpointHash(const Kernel &kernel,
                          std::uint64_t num_threads) const
{
    constexpr std::uint64_t basis = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t h = basis;
    auto mix = [&h, prime](const std::string &text) {
        for (unsigned char byte : text) {
            h ^= byte;
            h *= prime;
        }
        h ^= 0x1f; // field separator
        h *= prime;
    };
    for (const auto &[key, value] : configProvenance(cfg)) {
        mix(key);
        mix(value);
    }
    // State-shaping knobs deliberately excluded from sweep provenance
    // but baked into the snapshot payload or the run's dynamics.
    mix("check=" + std::to_string(cfg.checkLevel));
    mix("trace=" + std::to_string(cfg.traceTx));
    mix("fault=" + std::to_string(cfg.injectFault));
    mix("prob=" + std::to_string(cfg.injectProb));
    mix("sample=" + std::to_string(cfg.sampleInterval));
    mix(cfg.timelinePath.empty() ? "timeline=0" : "timeline=1");
    mix("kernel=" + kernel.name());
    mix("threads=" + std::to_string(num_threads));
    return h;
}

template <class Ar>
void
GpuSystem::ckptMachine(Ar &ar)
{
    // One fixed component order, shared by save and load. Optional
    // components (tracer, checker, injectors) are config-determined,
    // and the config hash guarantees both sides agree on the config.
    ar(store, xbarUp, xbarDown);
    for (auto &core : coreArray)
        ar(*core);
    for (auto &part : partArray) {
        ar(*part);
        if (TmPartitionProtocol *unit = part->protocol()) {
            if constexpr (Ar::saving)
                unit->ckptSave(ar);
            else
                unit->ckptLoad(ar);
        }
    }
    ar(stallTracker.current, stallTracker.peak);
    if (wtmShared)
        ar(wtmShared->nextCommitId);
    ar(rolloverPending, rollovers, warpCursor, timeline, observability);
    if (txTracer)
        ar(*txTracer);
    if (checker)
        ar(*checker);
    for (auto &injector : faultInjectors)
        ar(*injector);
    ar(guard.lastProgressValue, guard.lastProgressCycle,
       guard.iterations);
}

void
GpuSystem::saveCheckpoint(Cycle now)
{
    ckpt::Writer ar;
    ckptMachine(ar);
    ckpt::Snapshot snap;
    snap.configHash = ckptHash;
    snap.cycle = now;
    snap.payload = ar.take();
    const std::string dir =
        cfg.ckptDir.empty() ? std::string(".") : cfg.ckptDir;
    const std::string path = ckpt::writeSnapshot(dir, snap);
    inform("checkpoint written to %s (cycle %llu)", path.c_str(),
           static_cast<unsigned long long>(now));
}

void
GpuSystem::restoreFromSnapshot()
{
    const std::string path = ckpt::resolveRestorePath(cfg.restorePath);
    const ckpt::Snapshot snap = ckpt::readSnapshot(path, ckptHash);
    ckpt::Reader ar(snap.payload.data(), snap.payload.size());
    ckptMachine(ar);
    if (ar.remaining() != 0)
        throw SimError(SimErrorKind::Checkpoint,
                       "checkpoint payload corrupt (" +
                           std::to_string(ar.remaining()) +
                           " trailing bytes)");
    resumeCycle = snap.cycle;
    if (cfg.ckptEvery)
        nextCkptDue = CycleSampler::alignNext(snap.cycle, cfg.ckptEvery);
    inform("restored checkpoint %s (cycle %llu)", path.c_str(),
           static_cast<unsigned long long>(snap.cycle));
}

void
GpuSystem::checkpointTop(const Kernel &kernel, Cycle now)
{
    // Crash-test hook first: a real SIGKILL does not wait for
    // checkpoint work either. No cleanup, no flush, 128+9.
    if (cfg.ckptKillAt && now >= cfg.ckptKillAt)
        std::_Exit(137);

    if (stopRequested()) {
        const int sig = stopSignal();
        if (cfg.ckptEvery || !cfg.ckptDir.empty())
            saveCheckpoint(now);
        throw SimError(buildDiagnostic(
            SimErrorKind::Interrupt,
            "kernel " + kernel.name() + " stopped by signal " +
                std::to_string(sig) + " at cycle " + std::to_string(now),
            now, now - guard.lastProgressCycle));
    }

    if (cfg.ckptEvery && now >= nextCkptDue) {
        saveCheckpoint(now);
        nextCkptDue = CycleSampler::alignNext(now, cfg.ckptEvery);
    }
}

RunResult
GpuSystem::run(const Kernel &kernel, std::uint64_t num_threads,
               Cycle max_cycles)
{
    const std::uint64_t total_warps = (num_threads + warpSize - 1) /
                                      warpSize;
    warpCursor = 0;
    auto work = [this, total_warps,
                 num_threads](WarpAssignment &assign) -> bool {
        if (warpCursor >= total_warps)
            return false;
        const std::uint64_t w = warpCursor++;
        assign.firstTid = static_cast<std::uint32_t>(w * warpSize);
        const std::uint64_t remaining = num_threads - w * warpSize;
        assign.validLanes =
            remaining >= warpSize
                ? fullMask
                : ((1u << remaining) - 1);
        assign.gwid = 0; // assigned by the core from its slot
        return true;
    };

    for (auto &core : coreArray)
        core->startKernel(&kernel, num_threads, work, 0);

    // Durability setup. The restore overwrites everything startKernel
    // just initialized (including warpCursor), which is exactly the
    // point: the kernel pointer and work source are live-wired, the
    // machine state is the snapshot's.
    ckptHash = checkpointHash(kernel, num_threads);
    guard = GuardState{};
    resumeCycle = 0;
    nextCkptDue = cfg.ckptEvery
                      ? CycleSampler::alignNext(0, cfg.ckptEvery)
                      : 0;
    if (!cfg.restorePath.empty())
        restoreFromSnapshot();

    Cycle now = 0;
    try {
        now = cfg.legacyLoop ? runLegacyLoop(kernel, max_cycles)
                             : runEventLoop(kernel, max_cycles);
    } catch (const SimError &err) {
        // Final snapshot beside the diagnostic: every SimError leaves
        // the machine at a cycle boundary (the guards and the
        // iteration-top hooks throw before any tick, the deadlock
        // check after a cycle completed), so the snapshot is
        // resumable. INTERRUPT already wrote one in checkpointTop.
        if ((cfg.ckptEvery || !cfg.ckptDir.empty()) &&
            err.kind() != SimErrorKind::Interrupt &&
            err.kind() != SimErrorKind::Checkpoint) {
            try {
                saveCheckpoint(err.diagnostic().cycle);
            } catch (const SimError &ckpt_err) {
                warn("final checkpoint failed: %s", ckpt_err.what());
            }
        }
        throw;
    }

    // Gather results.
    RunResult result;
    result.cycles = now;
    result.rollovers = rollovers;
    // Report the logical-clock component: raw timestamps embed the
    // warp id in their low tsWarpIdBits for uniqueness.
    for (GetmPartitionUnit *unit : getmUnits)
        result.maxLogicalTs =
            std::max(result.maxLogicalTs, tsClock(unit->maxTimestamp()));
    for (auto &core : coreArray) {
        core->foldWarpStats();
        result.stats.merge(core->stats());
    }
    for (auto &part : partArray) {
        result.stats.merge(part->stats());
        result.stats.merge(part->llc().stats());
    }
    result.stats.merge(xbarUp.stats());
    result.stats.merge(xbarDown.stats());
    for (GetmPartitionUnit *unit : getmUnits) {
        result.stats.merge(unit->metadata().stats());
        result.stats.merge(unit->stallBuffer().stats());
    }

    result.commits = result.stats.counter("commits");
    result.aborts = result.stats.counter("aborts");
    result.txExecCycles = result.stats.counter("tx_exec_cycles");
    result.txWaitCycles = result.stats.counter("tx_wait_cycles");
    result.xbarFlits = xbarUp.totalFlits() + xbarDown.totalFlits();
    result.metaAccessCycles = result.stats.mean("access_cycles");
    result.stallPeakOccupancy = stallTracker.peak;
    result.stallWaitersPerAddr = result.stats.mean("waiters_per_addr");
    // Record the final partial telemetry window before snapshotting.
    observability.cycleSampler().finalize(now);
    result.obs = observability.report(cfg.hotAddrTopN);
    if (txTracer)
        result.obs.txTrace = txTracer->report(now);
    if (checker) {
        checker->finish(store);
        result.check = checker->report();
    }
    if (!cfg.timelinePath.empty()) {
        if (timeline.writeJson(cfg.timelinePath))
            inform("wrote transaction timeline to %s",
                   cfg.timelinePath.c_str());
        else
            warn("failed to write timeline to %s",
                 cfg.timelinePath.c_str());
    }
    return result;
}

} // namespace getm
