/**
 * @file
 * Event-driven scheduler equivalence.
 *
 * GpuSystem's wake-list main loop skips components that are not due,
 * relying on the invariant that ticking an idle component is a pure
 * no-op. These tests run one workload per protocol on the test rig
 * under both loops (GpuConfig::legacyLoop selects the reference
 * tick-everything loop) and require the *entire* observable outcome --
 * cycle count, commits, aborts, crossbar traffic, and the full merged
 * stats dump -- to be bit-identical. Any divergence means a component
 * mutated state on a cycle the event loop skipped.
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

namespace getm {
namespace {

struct Outcome
{
    RunResult run;
    std::string statsDump;
};

Outcome
runWith(BenchId bench, ProtocolKind protocol, bool legacy,
        unsigned check_level = 0, std::uint64_t trace_tx = 0)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = protocol;
    cfg.legacyLoop = legacy;
    cfg.checkLevel = check_level;
    cfg.traceTx = trace_tx;
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(bench, 0.01, 123);
    workload->setup(gpu, protocol == ProtocolKind::FgLock);
    Outcome outcome;
    outcome.run = gpu.run(workload->kernel(), workload->numThreads(),
                          200'000'000);
    std::string why;
    EXPECT_TRUE(workload->verify(gpu, why))
        << protocolName(protocol) << ": " << why;
    outcome.statsDump = outcome.run.stats.dump();
    return outcome;
}

void
expectIdentical(BenchId bench, ProtocolKind protocol)
{
    const Outcome legacy = runWith(bench, protocol, true);
    const Outcome event = runWith(bench, protocol, false);
    const char *name = protocolName(protocol);

    EXPECT_EQ(event.run.cycles, legacy.run.cycles) << name;
    EXPECT_EQ(event.run.commits, legacy.run.commits) << name;
    EXPECT_EQ(event.run.aborts, legacy.run.aborts) << name;
    EXPECT_EQ(event.run.xbarFlits, legacy.run.xbarFlits) << name;
    EXPECT_EQ(event.run.txExecCycles, legacy.run.txExecCycles) << name;
    EXPECT_EQ(event.run.txWaitCycles, legacy.run.txWaitCycles) << name;
    EXPECT_EQ(event.run.rollovers, legacy.run.rollovers) << name;
    EXPECT_EQ(event.run.maxLogicalTs, legacy.run.maxLogicalTs) << name;
    EXPECT_EQ(event.statsDump, legacy.statsDump) << name;
}

/**
 * The runtime checker (src/check) must be a pure observer: enabling it
 * may not perturb a single simulated cycle or statistic. Same
 * comparison set as the scheduler equivalence above, but toggling
 * GpuConfig::checkLevel instead of the loop flavour.
 */
void
expectCheckerInvisible(BenchId bench, ProtocolKind protocol)
{
    const Outcome off = runWith(bench, protocol, false, 0);
    const Outcome on = runWith(bench, protocol, false, 2);
    const char *name = protocolName(protocol);

    EXPECT_EQ(on.run.cycles, off.run.cycles) << name;
    EXPECT_EQ(on.run.commits, off.run.commits) << name;
    EXPECT_EQ(on.run.aborts, off.run.aborts) << name;
    EXPECT_EQ(on.run.xbarFlits, off.run.xbarFlits) << name;
    EXPECT_EQ(on.run.txExecCycles, off.run.txExecCycles) << name;
    EXPECT_EQ(on.run.txWaitCycles, off.run.txWaitCycles) << name;
    EXPECT_EQ(on.statsDump, off.statsDump) << name;
    EXPECT_EQ(on.run.check.totalViolations, 0u)
        << name << ": " << on.run.check.summary();
    EXPECT_GT(on.run.check.txCommits, 0u) << name;
}

/**
 * The transaction tracer (src/obs/tx_tracer) must likewise be a pure
 * observer: it is reached through a dedicated trace pointer that stays
 * null when --trace-tx is off, and when on it only consumes events.
 * Enabling it at sample rate 1 may not perturb a single simulated
 * cycle or statistic, while still tracing real transactions.
 */
void
expectTracerInvisible(BenchId bench, ProtocolKind protocol)
{
    const Outcome off = runWith(bench, protocol, false, 0, 0);
    const Outcome on = runWith(bench, protocol, false, 0, 1);
    const char *name = protocolName(protocol);

    EXPECT_EQ(on.run.cycles, off.run.cycles) << name;
    EXPECT_EQ(on.run.commits, off.run.commits) << name;
    EXPECT_EQ(on.run.aborts, off.run.aborts) << name;
    EXPECT_EQ(on.run.xbarFlits, off.run.xbarFlits) << name;
    EXPECT_EQ(on.run.txExecCycles, off.run.txExecCycles) << name;
    EXPECT_EQ(on.run.txWaitCycles, off.run.txWaitCycles) << name;
    EXPECT_EQ(on.statsDump, off.statsDump) << name;

    const TxTraceReport &trace = on.run.obs.txTrace;
    EXPECT_TRUE(trace.enabled) << name;
    EXPECT_FALSE(off.run.obs.txTrace.enabled) << name;
    EXPECT_GT(trace.traced, 0u) << name;
    EXPECT_GT(trace.committedCount, 0u) << name;
    EXPECT_EQ(trace.openAtEnd, 0u) << name;
    // The defining invariant: exact cycle accounting, per transaction.
    for (const TxRecord &rec : trace.transactions)
        EXPECT_EQ(rec.cycles.total(), rec.lifetime())
            << name << ": tx " << rec.traceId;
}

TEST(SchedulerEquivalence, FgLock)
{
    expectIdentical(BenchId::HtH, ProtocolKind::FgLock);
}

TEST(SchedulerEquivalence, Getm)
{
    expectIdentical(BenchId::HtH, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, GetmLowContention)
{
    // A sparser workload exercises long idle gaps, where the event
    // loop actually skips cycles instead of degenerating to +1 steps.
    expectIdentical(BenchId::Atm, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, WarpTmLL)
{
    expectIdentical(BenchId::Atm, ProtocolKind::WarpTmLL);
}

TEST(SchedulerEquivalence, WarpTmEL)
{
    expectIdentical(BenchId::HtH, ProtocolKind::WarpTmEL);
}

TEST(SchedulerEquivalence, Eapg)
{
    expectIdentical(BenchId::Atm, ProtocolKind::Eapg);
}

TEST(SchedulerEquivalence, CheckerInvisibleGetm)
{
    expectCheckerInvisible(BenchId::HtH, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, CheckerInvisibleWarpTmLL)
{
    expectCheckerInvisible(BenchId::Atm, ProtocolKind::WarpTmLL);
}

TEST(SchedulerEquivalence, CheckerInvisibleWarpTmEL)
{
    expectCheckerInvisible(BenchId::HtH, ProtocolKind::WarpTmEL);
}

TEST(SchedulerEquivalence, CheckerInvisibleEapg)
{
    expectCheckerInvisible(BenchId::Atm, ProtocolKind::Eapg);
}

TEST(SchedulerEquivalence, TracerInvisibleGetm)
{
    expectTracerInvisible(BenchId::HtH, ProtocolKind::Getm);
}

TEST(SchedulerEquivalence, TracerInvisibleWarpTmLL)
{
    expectTracerInvisible(BenchId::Atm, ProtocolKind::WarpTmLL);
}

TEST(SchedulerEquivalence, TracerInvisibleWarpTmEL)
{
    expectTracerInvisible(BenchId::HtH, ProtocolKind::WarpTmEL);
}

TEST(SchedulerEquivalence, TracerInvisibleEapg)
{
    expectTracerInvisible(BenchId::Atm, ProtocolKind::Eapg);
}

} // namespace
} // namespace getm
