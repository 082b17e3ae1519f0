/**
 * @file
 * getm-sweep: parallel, resumable experiment orchestrator.
 *
 * Enumerates the (config x workload x protocol) points of a sweep
 * manifest, runs each as an isolated in-process simulation on a worker
 * pool, and merges the per-point `getm-metrics` documents into one
 * `sweep.json` keyed by point id. Completed points whose spec hash
 * still matches are skipped on rerun, so an interrupted sweep resumes
 * where it stopped. See docs/SWEEPS.md for the manifest schema.
 *
 *     getm-sweep --manifest configs/sweeps/smoke.sweep
 *     getm-sweep --manifest configs/sweeps/fig10_12_protocols.sweep \
 *         --dir out/fig10_12 --jobs 8
 *     getm-sweep --manifest m.sweep --list
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "common/thread_pool.hh"
#include "sweep/runner.hh"
#include "workloads/registry.hh"

using namespace getm;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --manifest FILE [options]\n"
        "  --manifest FILE  sweep manifest (required; see docs/SWEEPS.md)\n"
        "  --dir DIR        working directory for per-point results and\n"
        "                   resume state (default: sweep-<name>)\n"
        "  --out FILE       merged document path (default: DIR/sweep.json)\n"
        "  --jobs N         worker threads (default: hardware threads)\n"
        "  --force          rerun every point, ignoring resume state\n"
        "  --trace-tx N     trace every Nth transaction per point and\n"
        "                   write DIR/points/<id>.trace.json; spec\n"
        "                   hashes and sweep.json bytes are unchanged\n"
        "  --shard I/N      run only the points whose enumeration index\n"
        "                   is I mod N (deterministic partitioning for\n"
        "                   multi-process/multi-host sweeps); reassemble\n"
        "                   with --merge (docs/DURABILITY.md)\n"
        "  --merge DIR      merge mode (repeatable): reassemble the\n"
        "                   merged sweep.json from completed shard\n"
        "                   working directories, byte-identical to the\n"
        "                   single-process document; no points run\n"
        "  --checkpoint-every N  snapshot each point's machine every N\n"
        "                   simulated cycles into DIR/ckpt/<id>; killed\n"
        "                   or retried points resume from their last\n"
        "                   checkpoint instead of cycle 0\n"
        "  --list           print the enumerated point ids and exit\n"
        "  --list-benches   list every registered bench with its\n"
        "                   parameters, defaults and ranges\n"
        "  --quiet          no per-point progress lines\n"
        "exit codes: 0 ok; 1 infrastructure error; 2 usage; 3 one or\n"
        "more points failed workload verification or the checker; 4 one\n"
        "or more points died in a typed simulation failure; 128+N\n"
        "stopped by signal N (SIGINT/SIGTERM: in-flight points stop at\n"
        "their next cycle boundary, flush final checkpoints when\n"
        "enabled, and the identical rerun resumes)\n",
        argv0);
}

/**
 * Map a completed outcome onto the taxonomy the usage text documents:
 * verification failures exit 3, typed simulation failures exit 4 (the
 * simulation failure wins when both occur -- it is the one a shard
 * orchestrator must triage first).
 */
int
sweepStatus(const SweepOutcome &outcome, const std::string &dir)
{
    int status = 0;
    if (outcome.unverified) {
        std::fprintf(stderr,
                     "getm-sweep: %u point%s FAILED workload "
                     "verification (see meta.verified)\n",
                     outcome.unverified,
                     outcome.unverified == 1 ? "" : "s");
        status = exitVerification;
    }
    if (outcome.failed) {
        std::fprintf(stderr,
                     "getm-sweep: %u point%s FAILED to simulate "
                     "(failure documents in %s/points):\n",
                     outcome.failed, outcome.failed == 1 ? "" : "s",
                     dir.c_str());
        for (const SweepFailure &f : outcome.failures)
            std::fprintf(stderr, "  %-10s %s (%u attempt%s): %s\n",
                         f.status.c_str(), f.id.c_str(), f.attempts,
                         f.attempts == 1 ? "" : "s",
                         f.message.c_str());
        status = exitSimError;
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string manifest_path;
    SweepOptions options;
    options.dir.clear();
    std::vector<std::string> merge_dirs;
    bool list = false;

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
        if (arg == "--manifest") {
            manifest_path = next();
        } else if (arg == "--dir") {
            options.dir = next();
        } else if (arg == "--out") {
            options.outPath = next();
        } else if (arg == "--jobs") {
            options.jobs = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--force") {
            options.force = true;
        } else if (arg == "--trace-tx") {
            options.traceTx = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--shard") {
            unsigned index = 0, count = 0;
            if (std::sscanf(next(), "%u/%u", &index, &count) != 2 ||
                count == 0 || index >= count) {
                std::fprintf(stderr,
                             "--shard wants I/N with 0 <= I < N\n");
                return 2;
            }
            options.shardIndex = index;
            options.shardCount = count;
        } else if (arg == "--merge") {
            merge_dirs.emplace_back(next());
        } else if (arg == "--checkpoint-every") {
            options.ckptEvery = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-benches") {
            printBenchRegistry();
            return 0;
        } else if (arg == "--quiet") {
            options.progress = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (manifest_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    SweepManifest manifest;
    std::string error;
    if (!manifest.load(manifest_path, error)) {
        std::fprintf(stderr, "getm-sweep: %s: %s\n",
                     manifest_path.c_str(), error.c_str());
        return 2;
    }

    if (list) {
        std::vector<SweepPoint> points;
        if (!manifest.enumerate(points, error)) {
            std::fprintf(stderr, "getm-sweep: %s\n", error.c_str());
            return 2;
        }
        for (const SweepPoint &point : points)
            std::printf("%s %s\n", point.specHashHex().c_str(),
                        point.id.c_str());
        std::printf("%zu points\n", points.size());
        return 0;
    }

    if (options.dir.empty())
        options.dir = "sweep-" + manifest.name();
    const std::string out_path = options.outPath.empty()
                                     ? options.dir + "/sweep.json"
                                     : options.outPath;

    SweepOutcome outcome;
    if (!merge_dirs.empty()) {
        // Merge mode: no simulation; reassemble the byte-identical
        // merged document from completed shard directories.
        if (!mergeSweep(manifest, options, merge_dirs, outcome,
                        error)) {
            std::fprintf(stderr, "getm-sweep: %s\n", error.c_str());
            return 1;
        }
        std::printf("%s: merged %u points from %zu shard%s -> %s\n",
                    manifest.name().c_str(), outcome.total,
                    merge_dirs.size(),
                    merge_dirs.size() == 1 ? "" : "s",
                    out_path.c_str());
        return sweepStatus(outcome, options.dir);
    }

    // Graceful shutdown: SIGINT/SIGTERM set a flag every in-flight
    // point's cycle loop polls at its next cycle boundary; points
    // wind down cleanly (final checkpoints when enabled), queued
    // points never start, and the identical rerun resumes.
    std::signal(SIGINT, [](int sig) { requestStop(sig); });
    std::signal(SIGTERM, [](int sig) { requestStop(sig); });

    const unsigned jobs =
        options.jobs ? options.jobs : ThreadPool::defaultThreads();
    if (options.progress)
        std::fprintf(stderr,
                     "getm-sweep: %s -> %s (%u worker%s)\n",
                     manifest.name().c_str(), options.dir.c_str(), jobs,
                     jobs == 1 ? "" : "s");

    if (!runSweep(manifest, options, outcome, error)) {
        std::fprintf(stderr, "getm-sweep: %s\n", error.c_str());
        return 1;
    }

    if (outcome.interrupted) {
        const int sig = stopSignal() ? stopSignal() : SIGTERM;
        std::fprintf(stderr,
                     "getm-sweep: stopped by signal %d; partial "
                     "results in %s (rerun to resume)\n",
                     sig, options.dir.c_str());
        return 128 + sig;
    }

    std::printf("%s: %u points (%u ran, %u resumed) -> %s\n",
                manifest.name().c_str(), outcome.total, outcome.ran,
                outcome.skipped, out_path.c_str());
    return sweepStatus(outcome, options.dir);
}
