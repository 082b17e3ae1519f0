/**
 * @file
 * getm_sim: command-line driver for the simulator.
 *
 * Runs any Table III benchmark under any protocol with the knobs the
 * evaluation sweeps, and prints a result summary (optionally the full
 * statistics dump or the kernel disassembly). It is a one-point sweep:
 * the flags resolve into a SweepPoint exactly as a manifest does, and
 * runSweepPoint() (sweep/run_point.hh) runs, checks and judges it, so a
 * point gives the same metrics document here and under getm-sweep.
 * Examples:
 *
 *     getm_sim --bench HT-H --protocol getm
 *     getm_sim --bench ATM --protocol warptm --scale 0.5 --stats
 *     getm_sim --bench AP --protocol fglock --disasm
 *     getm_sim --list
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "check/checker.hh"
#include "check/fault.hh"
#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "gpu/config_file.hh"
#include "power/tm_structures.hh"
#include "sweep/run_point.hh"
#include "workloads/workload.hh"

using namespace getm;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --bench SPEC        HT-H HT-M HT-L ATM CL CLto BH CC AP,\n"
        "                      or a parameterized OLTP spec such as\n"
        "                      YCSB:theta=0.95 or BANK:accounts=1e5\n"
        "                      (see --list-benches)\n"
        "  --protocol NAME     getm | warptm | warptm-el | eapg | fglock\n"
        "  --scale F           workload scale (default 0.25; 1.0 = paper)\n"
        "  --seed N            workload seed (default 7)\n"
        "  --concurrency N     tx warps/core (default: Table IV optimum;\n"
        "                      0 = unlimited)\n"
        "  --cores N           SIMT cores (default 15)\n"
        "  --partitions N      memory partitions (default 6)\n"
        "  --granule N         GETM metadata granularity bytes (def. 32)\n"
        "  --table-entries N   GETM precise entries GPU-wide (def. 4096)\n"
        "  --max-registers     GETM ablation: registers instead of Bloom\n"
        "  --rollover N        force GETM timestamp rollover at N\n"
        "  --config FILE       apply a key=value configuration file\n"
        "  --timeline FILE     write a Chrome-trace tx timeline\n"
        "                      (named tracks; telemetry counter rows)\n"
        "  --metrics FILE      write the full metrics document (JSON:\n"
        "                      stats tree, abort-reason breakdown,\n"
        "                      hot-address table, sampled time-series)\n"
        "  --sample-interval N telemetry sampling period in cycles\n"
        "                      (default 512 when --metrics is given,\n"
        "                      else 0 = off)\n"
        "  --hot-addrs N       rows in the hot-address table (def. 16)\n"
        "  --trace-tx N        trace every Nth transaction's lifecycle\n"
        "                      (1 = all; 0 = off). Adds a \"tx_trace\"\n"
        "                      section to --metrics and per-warp spans\n"
        "                      to --timeline; observe-only, so simulated\n"
        "                      timing is unchanged\n"
        "  --check[=LEVEL]     runtime correctness checker: read |\n"
        "                      serial (default) | ref. Violations go to\n"
        "                      stderr and fail the run; timing and all\n"
        "                      reported stats are unchanged\n"
        "  --inject=FAULT[@P]  inject a protocol fault with probability\n"
        "                      P (default 1): skip-rts-bump |\n"
        "                      force-store-grant | commit-stale-read |\n"
        "                      skip-validation | corrupt-commit |\n"
        "                      drop-commit-write | leak-lock\n"
        "  --max-cycles N      per-run simulation safety bound\n"
        "                      (default 2000000000)\n"
        "  --watchdog-cycles N declare livelock after N visited cycles\n"
        "                      without an instruction retiring or a tx\n"
        "                      lane committing (default 2000000; 0 off)\n"
        "  --timeout-sec S     abort the run after S seconds of wall\n"
        "                      clock (default 0 = unlimited)\n"
        "  --checkpoint-every N  write a crash-safe machine snapshot\n"
        "                      every N simulated cycles (at the first\n"
        "                      visited cycle at or past each multiple\n"
        "                      of N); restores are byte-identical\n"
        "  --checkpoint-dir D  snapshot directory (default .)\n"
        "  --restore PATH      resume from a snapshot file, or from the\n"
        "                      newest snapshot in a directory\n"
        "  --ckpt-kill-at N    crash-test hook: vanish (as if SIGKILLed,\n"
        "                      exit 137) at the first visited cycle >= N\n"
        "  --stats             dump all statistics\n"
        "  --json              machine-readable result summary\n"
        "  --disasm            print the kernel disassembly and exit\n"
        "  --area              print the protocol's area/power overheads\n"
        "  --list              list benchmarks and protocols\n"
        "  --list-benches      list every registered bench with its\n"
        "                      parameters, defaults and ranges\n"
        "exit codes: 0 ok; 1 internal error; 2 usage; 3 verification\n"
        "or checker violation; 4 simulation error; 5 watchdog guard\n"
        "(livelock, cycle limit, wall timeout); 128+N stopped by\n"
        "signal N (SIGINT/SIGTERM stop cleanly at the next cycle\n"
        "boundary, flushing metrics and a final checkpoint)\n",
        argv0);
}

/** Print @p out (stderr checker summary, metrics file, text or
 *  --json summary); returns the exit status. */
int
printResult(const SweepPoint &point, const PointResult &out,
            bool dump_stats, bool json, const std::string &metrics_path)
{
    const RunResult &result = out.run;
    const bool ok = out.meta.verified;
    if (point.config.checkLevel > 0) {
        std::fprintf(stderr, "%s\n", result.check.summary().c_str());
        for (const Violation &v : result.check.samples)
            std::fprintf(stderr,
                         "  %s addr=%#llx tx=%llu expected=%u actual=%u"
                         "%s%s\n",
                         violationKindName(v.kind),
                         static_cast<unsigned long long>(v.addr),
                         static_cast<unsigned long long>(v.tx),
                         v.expected, v.actual,
                         v.detail.empty() ? "" : ": ",
                         v.detail.c_str());
    }

    if (!metrics_path.empty()) {
        std::string error;
        if (!writeMetricsFile(metrics_path, out.meta, result.stats,
                              result.obs, error)) {
            std::fprintf(stderr, "metrics: %s\n", error.c_str());
            return 1;
        }
        if (!json)
            std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }

    if (json) {
        std::printf("{\"bench\":\"%s\",\"protocol\":\"%s\","
                    "\"scale\":%g,\"threads\":%llu,"
                    "\"cycles\":%llu,\"commits\":%llu,"
                    "\"aborts\":%llu,\"tx_exec\":%llu,"
                    "\"tx_wait\":%llu,\"flits\":%llu,"
                    "\"rollovers\":%llu,\"verified\":%s}\n",
                    out.meta.bench.c_str(), out.meta.protocol.c_str(),
                    point.scale,
                    static_cast<unsigned long long>(out.meta.threads),
                    static_cast<unsigned long long>(result.cycles),
                    static_cast<unsigned long long>(result.commits),
                    static_cast<unsigned long long>(result.aborts),
                    static_cast<unsigned long long>(result.txExecCycles),
                    static_cast<unsigned long long>(result.txWaitCycles),
                    static_cast<unsigned long long>(result.xbarFlits),
                    static_cast<unsigned long long>(result.rollovers),
                    ok ? "true" : "false");
        return ok ? 0 : exitVerification;
    }
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("commits       %llu\n",
                static_cast<unsigned long long>(result.commits));
    std::printf("aborts        %llu (%.0f /1K commits)\n",
                static_cast<unsigned long long>(result.aborts),
                result.abortsPer1kCommits());
    for (unsigned i = 0; i < numAbortReasons; ++i)
        if (result.obs.abortLanesByReason[i])
            std::printf("  %-21s %llu\n",
                        abortReasonName(static_cast<AbortReason>(i)),
                        static_cast<unsigned long long>(
                            result.obs.abortLanesByReason[i]));
    std::printf("tx exec/wait  %llu / %llu warp-cycles\n",
                static_cast<unsigned long long>(result.txExecCycles),
                static_cast<unsigned long long>(result.txWaitCycles));
    std::printf("xbar flits    %llu\n",
                static_cast<unsigned long long>(result.xbarFlits));
    if (result.rollovers)
        std::printf("rollovers     %llu\n",
                    static_cast<unsigned long long>(result.rollovers));
    if (out.labelled) {
        std::printf("hot addresses\n");
        for (const HotAddrRow &row : result.obs.hotAddrs) {
            if (row.label.empty())
                continue;
            std::printf("  %#10llx %8llu events  %s\n",
                        static_cast<unsigned long long>(row.addr),
                        static_cast<unsigned long long>(row.total),
                        row.label.c_str());
        }
    }
    std::printf("verification  %s%s%s\n", ok ? "PASS" : "FAIL",
                ok ? "" : ": ", ok ? "" : out.why.c_str());
    if (dump_stats)
        std::printf("\n%s", result.stats.dump().c_str());
    return ok ? 0 : exitVerification;
}

} // namespace

int
main(int argc, char **argv)
{
    // The flags fill a one-point sweep; its defaults are the CLI's.
    SweepPoint point;
    GpuConfig &cfg = point.config;
    std::optional<std::uint64_t> concurrency;
    bool dump_stats = false, disasm = false, area = false;
    bool json = false;
    std::string metrics_path;
    bool sample_interval_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            std::string spec_error;
            if (!parseWorkloadSpec(next(), point.bench, spec_error)) {
                std::fprintf(stderr, "%s\n", spec_error.c_str());
                return 2;
            }
        } else if (arg == "--protocol") {
            if (!parseProtocolName(next(), point.protocol)) {
                std::fprintf(stderr, "unknown protocol\n");
                return 2;
            }
        } else if (arg == "--scale") {
            point.scale = std::atof(next());
        } else if (arg == "--seed") {
            point.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--concurrency") {
            concurrency = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--cores") {
            cfg.numCores = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--partitions") {
            cfg.numPartitions = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--granule") {
            cfg.getmGranule = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--table-entries") {
            cfg.getmPreciseEntriesTotal =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--max-registers") {
            cfg.getmUseMaxRegisters = true;
        } else if (arg == "--rollover") {
            cfg.rolloverThreshold = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--config") {
            std::string error;
            if (!loadConfigFile(next(), cfg, error)) {
                std::fprintf(stderr, "config: %s\n", error.c_str());
                return 2;
            }
        } else if (arg == "--timeline") {
            cfg.timelinePath = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--sample-interval") {
            cfg.sampleInterval = std::strtoull(next(), nullptr, 10);
            sample_interval_set = true;
        } else if (arg == "--hot-addrs") {
            cfg.hotAddrTopN = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--trace-tx") {
            cfg.traceTx = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--check" || arg.rfind("--check=", 0) == 0) {
            const std::string text =
                arg == "--check" ? "on" : arg.substr(8);
            CheckLevel level;
            if (!parseCheckLevel(text, level)) {
                std::fprintf(stderr, "bad check level '%s'\n",
                             text.c_str());
                return 2;
            }
            cfg.checkLevel = static_cast<unsigned>(level);
        } else if (arg.rfind("--inject=", 0) == 0) {
            std::string text = arg.substr(9);
            double prob = 1.0;
            const auto at = text.find('@');
            if (at != std::string::npos) {
                prob = std::atof(text.c_str() + at + 1);
                text.erase(at);
            }
            FaultKind kind;
            if (!parseFaultKind(text, kind) || prob < 0.0 ||
                prob > 1.0) {
                std::fprintf(stderr, "bad fault spec '%s'\n",
                             arg.c_str());
                return 2;
            }
            cfg.injectFault = static_cast<unsigned>(kind);
            cfg.injectProb = prob;
        } else if (arg == "--max-cycles") {
            point.maxCycles = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--watchdog-cycles") {
            cfg.watchdogCycles = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--timeout-sec") {
            cfg.timeoutSec = std::atof(next());
        } else if (arg == "--checkpoint-every") {
            cfg.ckptEvery = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--checkpoint-dir") {
            cfg.ckptDir = next();
        } else if (arg == "--restore") {
            cfg.restorePath = next();
        } else if (arg == "--ckpt-kill-at") {
            cfg.ckptKillAt = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--disasm") {
            disasm = true;
        } else if (arg == "--area") {
            area = true;
        } else if (arg == "--list") {
            std::printf("benchmarks: %s\n",
                        registeredBenchNames().c_str());
            std::printf("protocols: getm warptm warptm-el eapg "
                        "fglock\n");
            return 0;
        } else if (arg == "--list-benches") {
            printBenchRegistry();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (area) {
        const OverheadReport report = tmOverheads(point.protocol, cfg);
        for (const auto &row : report.rows)
            std::printf("%-32s %7.1f KB x%-3u %8.3f mm^2 %9.2f mW\n",
                        row.name.c_str(), row.kilobytesPerInstance,
                        row.instances, row.estimate.areaMm2,
                        row.estimate.powerMw);
        std::printf("%-32s %14s %8.3f mm^2 %9.2f mW\n", "TOTAL", "",
                    report.totalAreaMm2, report.totalPowerMw);
        return 0;
    }

    point.resolve(concurrency,
                  !metrics_path.empty() && !sample_interval_set);

    // Graceful shutdown: SIGINT/SIGTERM set a flag the simulation
    // loops poll at every cycle boundary; the run then stops cleanly
    // (final checkpoint when enabled) and surfaces here as SimError
    // INTERRUPT, flushing partial metrics before exiting 128+signal.
    std::signal(SIGINT, [](int sig) { requestStop(sig); });
    std::signal(SIGTERM, [](int sig) { requestStop(sig); });

    try {
        const PointResult out =
            runSweepPoint(point, [&](const Workload &workload) {
                if (disasm) {
                    std::printf("%s",
                                workload.kernel().disassemble().c_str());
                    return false;
                }
                if (!json)
                    std::printf("running %s under %s (scale %.3g, %llu "
                                "threads)...\n",
                                point.bench.token().c_str(),
                                protocolName(point.protocol), point.scale,
                                static_cast<unsigned long long>(
                                    workload.numThreads()));
                return true;
            });
        return disasm ? 0
                      : printResult(point, out, dump_stats, json,
                                    metrics_path);
    } catch (const SimError &e) {
        // A typed simulation pathology: dump the diagnostic snapshot,
        // export a failure document when metrics were requested, and
        // exit with the taxonomy's status (4 general, 5 watchdog,
        // 128+signal for a clean stop) — distinct from verification
        // failure (3) and usage errors (2).
        std::fprintf(stderr, "%s\n", e.diagnostic().toText().c_str());
        if (!metrics_path.empty()) {
            MetricsFailure failure;
            failure.status = simErrorStatus(e.kind());
            failure.kind = simErrorKindName(e.kind());
            failure.message = e.diagnostic().message;
            failure.diagnosticJson = e.diagnostic().toJson();
            std::string error;
            if (!writeFailureFile(metrics_path, failureMeta(point),
                                  failure, error))
                std::fprintf(stderr, "metrics: %s\n", error.c_str());
            else if (!json)
                std::printf("wrote failure document to %s\n",
                            metrics_path.c_str());
        }
        if (e.kind() == SimErrorKind::Interrupt)
            return 128 + (stopSignal() ? stopSignal() : SIGTERM);
        return simErrorExitCode(e.kind());
    }
}
