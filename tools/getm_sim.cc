/**
 * @file
 * getm_sim: command-line driver for the simulator.
 *
 * Runs any Table III benchmark under any protocol with the knobs the
 * evaluation sweeps, and prints a result summary (optionally the full
 * statistics dump or the kernel disassembly). Examples:
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
#include "check/reference_exec.hh"
#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "obs/metrics.hh"
#include "power/tm_structures.hh"
#include "workloads/registry.hh"

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

void
listBenches()
{
    for (const BenchInfo &info : benchRegistry()) {
        std::printf("%-6s %s\n", info.name, info.summary);
        for (const BenchParamInfo &param : info.params)
            std::printf("       %-10s %-12g default; range [%g, %g]: %s\n",
                        param.key, param.def, param.min, param.max,
                        param.help);
    }
}

std::optional<ProtocolKind>
parseProtocol(std::string name)
{
    for (auto &ch : name)
        ch = static_cast<char>(std::tolower(ch));
    if (name == "getm")
        return ProtocolKind::Getm;
    if (name == "warptm" || name == "warptm-ll")
        return ProtocolKind::WarpTmLL;
    if (name == "warptm-el" || name == "el")
        return ProtocolKind::WarpTmEL;
    if (name == "eapg")
        return ProtocolKind::Eapg;
    if (name == "fglock" || name == "lock")
        return ProtocolKind::FgLock;
    return std::nullopt;
}

int
runSimulation(const WorkloadSpec &bench, ProtocolKind protocol,
              double scale, std::uint64_t seed, GpuConfig &cfg,
              bool dump_stats, bool disasm, bool json,
              const std::string &metrics_path,
              std::uint64_t max_cycles);

} // namespace

int
main(int argc, char **argv)
{
    WorkloadSpec bench{"HT-H"};
    ProtocolKind protocol = ProtocolKind::Getm;
    double scale = 0.25;
    std::uint64_t seed = 7;
    std::optional<unsigned> concurrency;
    GpuConfig cfg = GpuConfig::gtx480();
    bool dump_stats = false, disasm = false, area = false;
    bool json = false;
    std::string metrics_path;
    bool sample_interval_set = false;
    std::uint64_t max_cycles = 2'000'000'000ull;

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
            if (!parseWorkloadSpec(next(), bench, spec_error)) {
                std::fprintf(stderr, "%s\n", spec_error.c_str());
                return 2;
            }
        } else if (arg == "--protocol") {
            auto parsed = parseProtocol(next());
            if (!parsed) {
                std::fprintf(stderr, "unknown protocol\n");
                return 2;
            }
            protocol = *parsed;
        } else if (arg == "--scale") {
            scale = std::atof(next());
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--concurrency") {
            const unsigned long value = std::strtoul(next(), nullptr, 10);
            concurrency = value == 0 ? 0xffffffffu
                                     : static_cast<unsigned>(value);
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
            max_cycles = std::strtoull(next(), nullptr, 10);
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
            listBenches();
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
        const OverheadReport report = tmOverheads(protocol, cfg);
        for (const auto &row : report.rows)
            std::printf("%-32s %7.1f KB x%-3u %8.3f mm^2 %9.2f mW\n",
                        row.name.c_str(), row.kilobytesPerInstance,
                        row.instances, row.estimate.areaMm2,
                        row.estimate.powerMw);
        std::printf("%-32s %14s %8.3f mm^2 %9.2f mW\n", "TOTAL", "",
                    report.totalAreaMm2, report.totalPowerMw);
        return 0;
    }

    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.core.txWarpLimit =
        concurrency ? *concurrency : optimalConcurrency(bench, protocol);
    // A metrics document without time-series is half a metrics document:
    // default the sampler on unless the user chose an interval.
    if (!metrics_path.empty() && !sample_interval_set &&
        cfg.sampleInterval == 0)
        cfg.sampleInterval = 512;

    // Graceful shutdown: SIGINT/SIGTERM set a flag the simulation
    // loops poll at every cycle boundary; the run then stops cleanly
    // (final checkpoint when enabled) and surfaces here as SimError
    // INTERRUPT, flushing partial metrics before exiting 128+signal.
    std::signal(SIGINT, [](int sig) { requestStop(sig); });
    std::signal(SIGTERM, [](int sig) { requestStop(sig); });

    try {
        return runSimulation(bench, protocol, scale, seed, cfg,
                             dump_stats, disasm, json, metrics_path,
                             max_cycles);
    } catch (const SimError &e) {
        // A typed simulation pathology: dump the diagnostic snapshot,
        // export a failure document when metrics were requested, and
        // exit with the taxonomy's status (4 general, 5 watchdog,
        // 128+signal for a clean stop) — distinct from verification
        // failure (3) and usage errors (2).
        std::fprintf(stderr, "%s\n", e.diagnostic().toText().c_str());
        if (!metrics_path.empty()) {
            MetricsMeta meta;
            meta.bench = bench.token();
            meta.protocol = protocolName(protocol);
            meta.scale = scale;
            meta.seed = seed;
            meta.config = configProvenance(cfg);
            MetricsFailure failure;
            failure.status = simErrorStatus(e.kind());
            failure.kind = simErrorKindName(e.kind());
            failure.message = e.diagnostic().message;
            failure.diagnosticJson = e.diagnostic().toJson();
            std::string error;
            if (!writeFailureFile(metrics_path, meta, failure, error))
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

namespace {

int
runSimulation(const WorkloadSpec &bench, ProtocolKind protocol,
              double scale, std::uint64_t seed, GpuConfig &cfg,
              bool dump_stats, bool disasm, bool json,
              const std::string &metrics_path,
              std::uint64_t max_cycles)
{
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(bench, scale, seed);
    workload->setup(gpu, protocol == ProtocolKind::FgLock);

    if (disasm) {
        std::printf("%s", workload->kernel().disassemble().c_str());
        return 0;
    }

    if (!json)
        std::printf("running %s under %s (scale %.3g, %llu threads)...\n",
                    bench.token().c_str(), protocolName(protocol), scale,
                    static_cast<unsigned long long>(
                        workload->numThreads()));
    RunResult result = gpu.run(workload->kernel(),
                               workload->numThreads(), max_cycles);

    // Label hot granules the workload can explain (zipf head keys,
    // hot accounts); paper workloads leave every label empty.
    bool have_labels = false;
    for (HotAddrRow &row : result.obs.hotAddrs)
        have_labels |= workload->addrInfo(row.addr, row.label);

    Checker *checker = gpu.checkerPtr();
    if (checker && checker->level() >= CheckLevel::Ref) {
        // Ref level: replay the kernel on a single-threaded reference
        // executor over an identically-seeded memory image and compare
        // final contents. Order-sensitive workloads can legitimately
        // diverge (see check/reference_exec.hh).
        GpuConfig ref_cfg = cfg;
        ref_cfg.checkLevel = 0;
        ref_cfg.injectFault = 0;
        GpuSystem ref_gpu(ref_cfg);
        auto ref_workload = makeWorkload(bench, scale, seed);
        ref_workload->setup(ref_gpu, protocol == ProtocolKind::FgLock);
        check::referenceRun(ref_workload->kernel(),
                            ref_workload->numThreads(), ref_gpu.memory());
        checker->crossCheckReference(ref_gpu.memory(), gpu.memory());
        result.check = checker->report();
    }

    const bool check_clean = result.check.totalViolations == 0;
    if (checker) {
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

    std::string why;
    const bool ok = workload->verify(gpu, why) && check_clean;
    if (!check_clean && why.empty())
        why = "runtime checker reported violations";

    if (!metrics_path.empty()) {
        MetricsMeta meta;
        meta.bench = bench.token();
        meta.protocol = protocolName(protocol);
        meta.scale = scale;
        meta.seed = seed;
        meta.threads = workload->numThreads();
        meta.verified = ok;
        meta.cycles = result.cycles;
        meta.commits = result.commits;
        meta.aborts = result.aborts;
        meta.txExecCycles = result.txExecCycles;
        meta.txWaitCycles = result.txWaitCycles;
        meta.xbarFlits = result.xbarFlits;
        meta.rollovers = result.rollovers;
        meta.maxLogicalTs = result.maxLogicalTs;
        meta.config = configProvenance(cfg);
        if (result.check.totalViolations) {
            meta.checkLevel = checkLevelName(result.check.level);
            for (unsigned i = 0;
                 i < static_cast<unsigned>(ViolationKind::Count); ++i)
                if (result.check.byKind[i])
                    meta.checkViolations.emplace_back(
                        violationKindName(static_cast<ViolationKind>(i)),
                        result.check.byKind[i]);
        }
        std::string error;
        if (!writeMetricsFile(metrics_path, meta, result.stats,
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
                    bench.token().c_str(), protocolName(protocol),
                    scale,
                    static_cast<unsigned long long>(
                        workload->numThreads()),
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
    if (have_labels) {
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
                ok ? "" : ": ", ok ? "" : why.c_str());
    if (dump_stats)
        std::printf("\n%s", result.stats.dump().c_str());
    return ok ? 0 : exitVerification;
}

} // namespace
