/**
 * @file
 * Whole-GPU configuration (paper Table II) and protocol selection.
 */

#ifndef GETM_GPU_GPU_CONFIG_HH
#define GETM_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/getm_partition.hh"
#include "mem/dram_model.hh"
#include "noc/crossbar.hh"
#include "simt/simt_core.hh"
#include "warptm/wtm_partition.hh"

namespace getm {

/** Which TM system (or the lock baseline) the GPU runs. */
enum class ProtocolKind : std::uint8_t
{
    FgLock,   ///< Fine-grained locks; no TM hardware at all.
    Getm,     ///< This paper's proposal (eager conflict detection).
    WarpTmLL, ///< WarpTM baseline (lazy-lazy).
    WarpTmEL, ///< Idealized eager-lazy WarpTM variant (Sec. III).
    Eapg,     ///< Idealized EarlyAbort/Pause-n-Go (Sec. VI-A).
};

/** Human-readable protocol name. */
const char *protocolName(ProtocolKind kind);

/** Full simulated-GPU configuration. */
struct GpuConfig
{
    unsigned numCores = 15;
    unsigned numPartitions = 6;

    CoreConfig core;

    // LLC slice per partition (Table II: 128 KB, 8-way, 128 B lines).
    std::uint64_t llcBytesPerPartition = 128 * 1024;
    unsigned llcAssoc = 8;
    unsigned lineBytes = 128;
    /** LLC memory scheduling latency (Table II: 330 cycles). */
    Cycle llcLatency = 330;

    CrossbarTiming::Config xbar;
    DramModel::Config dram;

    ProtocolKind protocol = ProtocolKind::Getm;

    // GETM structures (GPU-wide totals; divided across partitions).
    unsigned getmPreciseEntriesTotal = 4096;
    unsigned getmBloomEntriesTotal = 1024;
    unsigned getmGranule = 32;
    /** Ablation: max-registers approximate metadata (paper Sec. V-B1). */
    bool getmUseMaxRegisters = false;
    StallBuffer::Config getmStall;
    /** Force a timestamp rollover past this logical time (tests). */
    LogicalTs rolloverThreshold = ~static_cast<LogicalTs>(0);
    /** Modelled VU stall for one rollover (ring + core acks). */
    Cycle rolloverPenalty = 100;

    WtmPartitionConfig wtm;

    /** Write a Chrome-trace transaction timeline here (empty: off). */
    std::string timelinePath;

    /**
     * Telemetry sampling period in cycles (0: off). With idle-cycle
     * skipping, samples land on the first simulated cycle at or after
     * each interval boundary.
     */
    Cycle sampleInterval = 0;
    /** Rows kept in the exported hot-address conflict table. */
    unsigned hotAddrTopN = 16;

    /**
     * Runtime checker level (CheckLevel numeric value; 0 = off). Plain
     * unsigned so this header needs no src/check dependency; GpuSystem
     * interprets it. Never part of config provenance: a checked run
     * must hash and report identically to an unchecked one.
     */
    unsigned checkLevel = 0;

    /**
     * Per-transaction lifecycle tracing: trace every Nth transaction
     * (0 = off, 1 = all). Strictly observe-only — the tracer adds no
     * wake sources and no messages, so enabling it cannot change a
     * single simulated cycle (the TracerInvisible tests enforce this).
     * Like checkLevel, never part of config provenance.
     */
    std::uint64_t traceTx = 0;

    /** Injected protocol fault (FaultKind numeric value; 0 = none). */
    unsigned injectFault = 0;

    /** Probability of each injected fault decision firing. */
    double injectProb = 1.0;

    /**
     * Forward-progress watchdog: throw SimError(LIVELOCK) when no
     * instruction retires and no transaction lane commits for this
     * many simulated cycles (0 = off). Like checkLevel/injectFault,
     * never part of config provenance: the watchdog only observes, so
     * tuning it must not rehash sweeps or change reported configs.
     */
    Cycle watchdogCycles = 2'000'000;

    /** Wall-clock budget in seconds for one run; 0 = unlimited. Throws
     *  SimError(WALL_TIMEOUT). Also excluded from provenance. */
    double timeoutSec = 0.0;

    std::uint64_t seed = 12345;

    /**
     * Run the reference loop that ticks every component on every
     * visited cycle instead of the event-driven scheduler. The two are
     * timing-equivalent; test_scheduler_equivalence uses this loop as
     * the oracle the event loop is compared against.
     */
    bool legacyLoop = false;

    /**
     * Inert: nothing reads this field. It is the thread count of a
     * multi-threaded cycle loop that has been removed (the serial event
     * loop is the only production loop). It remains only because the
     * benchmark driver perfbench/getm_perfbench.cc still assigns it; a
     * later change to that driver removes the field.
     */
    unsigned simThreads = 1;

    /**
     * Periodic checkpointing: write a snapshot every N simulated cycles
     * (0 = off). Snapshots land on the first visited cycle at or after
     * each boundary, the same alignment rule the telemetry sampler
     * uses. Like checkLevel, never part of config provenance — and the
     * config hash embedded in checkpoint files is computed over
     * provenance fields only, so a run checkpointed with one cadence
     * restores under another.
     */
    Cycle ckptEvery = 0;

    /** Directory for checkpoint files (default "." when enabled). */
    std::string ckptDir;

    /** Restore machine state from this snapshot file (or the newest
     *  snapshot in this directory) before simulating. Empty: cold
     *  start. Excluded from provenance. */
    std::string restorePath;

    /**
     * Crash-test hook: abandon the run (SIGKILL-style, no cleanup and
     * no final checkpoint) at the first loop iteration at or after
     * this cycle (0 = off). Only reachable through `getm_sim
     * --ckpt-kill-at`; exists so the kill-resume CI job and the
     * determinism tests can cut a run at a precise point. Excluded
     * from provenance.
     */
    Cycle ckptKillAt = 0;

    /** GTX480-like baseline of Table II. */
    static GpuConfig gtx480();

    /** Scaled 56-core / 4 MB LLC configuration (Fig. 17). */
    static GpuConfig scaled56();

    /**
     * A reduced configuration for unit tests: fewer cores/warps so
     * simulations finish in milliseconds.
     */
    static GpuConfig testRig();
};

} // namespace getm

#endif // GETM_GPU_GPU_CONFIG_HH
