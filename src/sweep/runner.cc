#include "sweep/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "ckpt/checkpoint.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/stop_flag.hh"
#include "common/thread_pool.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "obs/metrics.hh"
#include "obs/tx_tracer.hh"
#include "workloads/workload.hh"

namespace getm {

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::stringstream buffer;
    buffer << file.rdbuf();
    out = buffer.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &content,
          std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) ==
        content.size();
    std::fclose(f);
    if (!ok)
        error = "short write to " + path;
    return ok;
}

/**
 * Simulate one point end to end and render its metrics document.
 * With @p trace_tx nonzero the run is traced and @p trace_doc receives
 * the standalone trace document; the returned metrics document stays
 * byte-identical to an untraced run (the TracerInvisible guarantee is
 * what makes enabling tracing on an existing sweep safe).
 */
/** Per-point durability wiring, resolved by the retry loop. */
struct PointCkpt
{
    std::uint64_t every = 0;  ///< Periodic cadence (0 = off).
    std::string dir;          ///< DIR/ckpt/<id> when enabled.
    bool restore = false;     ///< Resume from dir's latest snapshot.
    std::uint64_t killAt = 0; ///< GETM_SWEEP_KILL_AT crash hook.
};

std::string
simulatePoint(const SweepPoint &point, std::uint64_t trace_tx,
              const PointCkpt &ckpt, bool &verified,
              std::string &trace_doc)
{
    GpuConfig run_cfg = point.config;
    run_cfg.traceTx = trace_tx;
    // Like traceTx, the durability knobs are applied after enumeration
    // and absent from provenance (docs/DURABILITY.md): a checkpointed,
    // restored, or crash-cut point hashes and reports identically to
    // an uninterrupted one.
    run_cfg.ckptEvery = ckpt.every;
    run_cfg.ckptDir = ckpt.dir;
    if (ckpt.restore)
        run_cfg.restorePath = ckpt.dir;
    run_cfg.ckptKillAt = ckpt.killAt;
    GpuSystem gpu(run_cfg);
    auto workload = makeWorkload(point.bench, point.scale, point.seed);
    workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
    RunResult result =
        gpu.run(workload->kernel(), workload->numThreads(),
                point.maxCycles);

    // Label hot granules the workload can explain (zipf head keys, hot
    // accounts). Workloads without a mapping leave rows untouched, so
    // their documents keep their exact pre-label bytes.
    for (HotAddrRow &row : result.obs.hotAddrs)
        workload->addrInfo(row.addr, row.label);

    std::string why;
    verified = workload->verify(gpu, why);
    // A runtime-checker violation is a verification failure: the point
    // ran, but its execution was provably not serializable/opaque.
    if (result.check.totalViolations)
        verified = false;

    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.seed;
    meta.threads = workload->numThreads();
    meta.verified = verified;
    meta.cycles = result.cycles;
    meta.commits = result.commits;
    meta.aborts = result.aborts;
    meta.txExecCycles = result.txExecCycles;
    meta.txWaitCycles = result.txWaitCycles;
    meta.xbarFlits = result.xbarFlits;
    meta.rollovers = result.rollovers;
    meta.maxLogicalTs = result.maxLogicalTs;
    meta.config = configProvenance(point.config);
    if (result.check.totalViolations) {
        meta.checkLevel = checkLevelName(result.check.level);
        for (unsigned i = 0;
             i < static_cast<unsigned>(ViolationKind::Count); ++i)
            if (result.check.byKind[i])
                meta.checkViolations.emplace_back(
                    violationKindName(static_cast<ViolationKind>(i)),
                    result.check.byKind[i]);
    }
    if (result.obs.txTrace.enabled) {
        trace_doc = txTraceToJson(result.obs.txTrace, point.id);
        // The trace lives in the side file only: stripping it here
        // keeps the per-point document — and thus sweep.json — byte
        // identical to an untraced sweep.
        result.obs.txTrace.enabled = false;
    }
    return metricsToJson(meta, result.stats, result.obs);
}

/** Identity-only meta for a point that never produced a result. */
MetricsMeta
failureMeta(const SweepPoint &point)
{
    MetricsMeta meta;
    meta.bench = point.bench.token();
    meta.protocol = protocolName(point.protocol);
    meta.scale = point.scale;
    meta.seed = point.seed;
    meta.config = configProvenance(point.config);
    return meta;
}

/**
 * Deterministic reseed for retry attempt @p attempt (1-based): fold
 * the attempt index into the workload/GPU seed so the retry explores
 * a different schedule while staying reproducible.
 */
SweepPoint
reseededPoint(const SweepPoint &point, unsigned attempt)
{
    SweepPoint retry = point;
    retry.seed = point.seed + 0x9e3779b97f4a7c15ull * attempt;
    retry.config.seed = retry.seed;
    return retry;
}

/**
 * Deterministic capped-backoff delay before retry @p attempt
 * (1-based): 25 ms doubling to a 400 ms ceiling, plus up to one
 * period of jitter folded from the point's spec hash and the attempt
 * index -- never the wall clock -- so shard retry schedules are
 * byte-reproducible across hosts and reruns (docs/DURABILITY.md).
 */
std::chrono::milliseconds
retryBackoff(const SweepPoint &point, unsigned attempt)
{
    constexpr std::uint64_t base_ms = 25, cap_ms = 400;
    const unsigned shift = attempt > 4 ? 4u : attempt - 1;
    const std::uint64_t period = std::min(cap_ms, base_ms << shift);
    // splitmix64-style fold of (specHash, attempt): decorrelates the
    // retry pacing of points that share a manifest without consulting
    // a clock or any global RNG.
    std::uint64_t x = point.specHash() + 0x9e3779b97f4a7c15ull * attempt;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return std::chrono::milliseconds(period + x % (period + 1));
}

/** Does @p dir hold a completed snapshot to resume from? */
bool
checkpointAvailable(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::exists(
        dir + "/" + ckpt::latestPointerName, ec);
}

/**
 * The failure status of a per-point document, or "" for a successful
 * metrics document. Our own compact writer emits the failure head as
 * `"failure":{"status":"<token>"`, so a substring probe is exact; the
 * merge path uses this to rebuild the failures section byte-for-byte.
 */
std::string
failureStatusOf(const std::string &doc)
{
    static constexpr char marker[] = "\"failure\":{\"status\":\"";
    const auto pos = doc.find(marker);
    if (pos == std::string::npos)
        return "";
    const auto start = pos + sizeof(marker) - 1;
    const auto end = doc.find('"', start);
    return end == std::string::npos ? std::string()
                                    : doc.substr(start, end - start);
}

/**
 * Duplicate ids would make two workers (or two shards) race on the
 * same result files; reject them before anything runs.
 */
bool
checkUniqueIds(const std::vector<SweepPoint> &points, std::string &error)
{
    std::map<std::string, unsigned> seen;
    for (const SweepPoint &point : points)
        if (++seen[point.id] == 2) {
            error = "manifest enumerates duplicate point id '" +
                    point.id + "'";
            return false;
        }
    return true;
}

/**
 * Render and write the merged document: fixed head, failures keyed
 * and sorted by id, then every per-point document spliced in id
 * order. Shared by the live run and --merge so both emit identical
 * bytes from identical point results. @p load fetches one validated
 * per-point document by id; @p failures must already be sorted.
 */
bool
writeMergedDocument(
    const SweepManifest &manifest,
    const std::vector<SweepPoint> &points,
    const std::function<bool(const std::string &, std::string &,
                             std::string &)> &load,
    const std::vector<SweepFailure> &failures,
    const std::string &out_path, std::string &error)
{
    std::map<std::string, const SweepPoint *> by_id;
    for (const SweepPoint &point : points)
        by_id.emplace(point.id, &point);

    JsonWriter w;
    w.beginObject();
    w.member("schema", sweepSchemaName);
    w.member("version", sweepSchemaVersion);
    w.key("sweep").beginObject();
    w.member("name", manifest.name());
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          manifest.manifestHash()));
        w.member("manifest_hash", buf);
    }
    w.member("num_points",
             static_cast<std::uint64_t>(points.size()));
    // Emitted only when something failed, so a clean sweep document
    // stays byte-identical to the pre-failure-isolation format.
    if (!failures.empty()) {
        w.member("num_failed",
                 static_cast<std::uint64_t>(failures.size()));
        w.key("failures").beginObject();
        for (const SweepFailure &f : failures)
            w.member(f.id, f.status);
        w.endObject();
    }
    w.endObject();
    w.key("points").beginObject();
    for (const auto &[id, point] : by_id) {
        std::string doc;
        if (!load(id, doc, error))
            return false;
        w.key(id).rawValue(doc);
        (void)point;
    }
    w.endObject();
    w.endObject();

    return writeFile(out_path, w.take() + "\n", error);
}

} // namespace

bool
runSweep(const SweepManifest &manifest, const SweepOptions &options,
         SweepOutcome &outcome, std::string &error)
{
    outcome = SweepOutcome{};

    std::vector<SweepPoint> points;
    if (!manifest.enumerate(points, error))
        return false;
    if (points.empty()) {
        error = "manifest enumerates no points";
        return false;
    }
    if (!checkUniqueIds(points, error))
        return false;

    // Deterministic sharding: keep every shardCount-th point starting
    // at shardIndex. Enumeration order is a pure function of the
    // manifest, so shard membership is identical on every host; a
    // shard larger than the point count legitimately runs nothing.
    if (options.shardCount) {
        if (options.shardIndex >= options.shardCount) {
            error = "shard index " +
                    std::to_string(options.shardIndex) +
                    " out of range (shard count " +
                    std::to_string(options.shardCount) + ")";
            return false;
        }
        std::vector<SweepPoint> mine;
        for (std::size_t i = 0; i < points.size(); ++i)
            if (i % options.shardCount == options.shardIndex)
                mine.push_back(std::move(points[i]));
        points.swap(mine);
    }
    outcome.total = static_cast<unsigned>(points.size());

    const std::string points_dir = options.dir + "/points";
    const std::string state_dir = options.dir + "/state";
    std::error_code fs_error;
    std::filesystem::create_directories(points_dir, fs_error);
    std::filesystem::create_directories(state_dir, fs_error);
    if (fs_error) {
        error = "cannot create " + options.dir + ": " +
                fs_error.message();
        return false;
    }

    const unsigned jobs =
        options.jobs ? options.jobs : ThreadPool::defaultThreads();

    std::mutex mtx; // Guards outcome counters, progress, first error.
    std::string worker_error;
    unsigned done = 0;
    const auto t0 = std::chrono::steady_clock::now();

    auto progress = [&](const char *verb, const SweepPoint &point,
                        const std::string &detail) {
        if (!options.progress)
            return;
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::fprintf(stderr, "[%3u/%3u %6.1fs] %-8s %s%s\n", done,
                     outcome.total, secs, verb, point.id.c_str(),
                     detail.c_str());
    };

    // Crash-test hook for the kill-resume CI job: forwarded to every
    // point as GpuConfig::ckptKillAt, so the first point to reach the
    // cycle vanishes mid-sweep exactly like an OOM-kill would.
    std::uint64_t kill_at = 0;
    if (const char *kill = std::getenv("GETM_SWEEP_KILL_AT"))
        kill_at = std::strtoull(kill, nullptr, 10);

    auto runPoint = [&](const SweepPoint &point) {
        if (stopRequested()) {
            // Queued behind the stop: never started, nothing written;
            // the rerun picks it up.
            std::lock_guard<std::mutex> lock(mtx);
            outcome.interrupted = true;
            return;
        }

        const std::string json_path =
            points_dir + "/" + point.id + ".json";
        const std::string hash_path =
            state_dir + "/" + point.id + ".hash";
        const std::string hash = point.specHashHex();

        if (!options.force) {
            std::string stored, doc, ignored;
            if (readFile(hash_path, stored) && stored == hash &&
                readFile(json_path, doc) &&
                jsonValidate(doc, ignored)) {
                std::lock_guard<std::mutex> lock(mtx);
                ++outcome.skipped;
                ++done;
                progress("resume", point, "");
                return;
            }
        }

        // Per-point durability wiring (docs/DURABILITY.md): periodic
        // snapshots land in DIR/ckpt/<id>. Any completed snapshot
        // there -- left behind by a killed sweep invocation or by a
        // failed attempt's final checkpoint -- makes the next attempt
        // resume mid-kernel instead of re-simulating from cycle 0.
        PointCkpt ckpt;
        ckpt.every = options.ckptEvery;
        if (ckpt.every)
            ckpt.dir = options.dir + "/ckpt/" + point.id;
        ckpt.killAt = kill_at;

        // Attempt the point, retrying after a typed simulation
        // failure up to the manifest's `retries` budget. Failures are
        // isolated: the point records a failure document and the
        // sweep continues.
        bool verified = false;
        std::string doc;
        std::string trace_doc;
        MetricsFailure failure;
        bool failed = false;
        bool interrupted = false;
        unsigned attempt = 0;
        for (;;) {
            ckpt.restore =
                ckpt.every != 0 && checkpointAvailable(ckpt.dir);
            // With checkpointing on, every attempt keeps the original
            // seed -- the snapshot's config hash covers it -- so
            // resume-from-checkpoint replaces the classic reseed
            // schedule; reseeds still apply when nothing can resume.
            const SweepPoint &attempt_point =
                (attempt == 0 || ckpt.every)
                    ? point
                    : reseededPoint(point, attempt);
            bool checkpoint_fault = false;
            try {
                doc = simulatePoint(attempt_point, options.traceTx, ckpt,
                                    verified, trace_doc);
                failed = false;
            } catch (const SimError &e) {
                failed = true;
                failure.status = simErrorStatus(e.kind());
                failure.kind = simErrorKindName(e.kind());
                failure.message = e.diagnostic().message;
                failure.diagnosticJson = e.diagnostic().toJson();
                interrupted = e.kind() == SimErrorKind::Interrupt;
                checkpoint_fault =
                    e.kind() == SimErrorKind::Checkpoint;
            } catch (const std::exception &e) {
                failed = true;
                failure.status = "error";
                failure.kind = "INTERNAL";
                failure.message = e.what();
                failure.diagnosticJson.clear();
            }
            if (interrupted || !failed || attempt >= point.retries ||
                stopRequested())
                break;
            // A snapshot the decoder rejects must not poison every
            // retry: drop the checkpoint directory and cold-start.
            if (checkpoint_fault && !ckpt.dir.empty()) {
                std::error_code ec;
                std::filesystem::remove_all(ckpt.dir, ec);
            }
            ++attempt;
            {
                std::lock_guard<std::mutex> lock(mtx);
                progress("retry", point,
                         "  attempt " + std::to_string(attempt + 1) +
                             " after " + failure.status);
            }
            std::this_thread::sleep_for(retryBackoff(point, attempt));
        }
        if (interrupted) {
            // A graceful stop is not a point failure: write no
            // document and no state hash, so the identical rerun
            // reruns this point -- resuming from the final checkpoint
            // the stop just flushed when checkpointing is on.
            std::lock_guard<std::mutex> lock(mtx);
            outcome.interrupted = true;
            ++done;
            progress("stopped", point, "  (interrupted)");
            return;
        }
        if (failed) {
            failure.attempts = attempt + 1;
            doc = failureToJson(failureMeta(point), failure);
        }
        if (ckpt.every) {
            if (failed && checkpointAvailable(ckpt.dir)) {
                // Park the newest snapshot next to the failure
                // document (the SimError path wrote it moments ago),
                // so a stuck run degrades into a resumable one even
                // after the checkpoint directory is cleaned.
                try {
                    const std::string last =
                        ckpt::resolveRestorePath(ckpt.dir);
                    std::error_code ec;
                    std::filesystem::copy_file(
                        last,
                        points_dir + "/" + point.id + ".final.ckpt",
                        std::filesystem::copy_options::
                            overwrite_existing,
                        ec);
                } catch (const SimError &) {
                    // Best effort; the diagnostic stays primary.
                }
            } else if (!failed) {
                // A completed point no longer needs its snapshots.
                std::error_code ec;
                std::filesystem::remove_all(ckpt.dir, ec);
            }
        }

        // A failed point stores a poisoned hash, so resume always
        // reruns it (the failure document stays inspectable
        // meanwhile); a successful point stores the real hash.
        std::string write_error;
        bool wrote =
            writeFile(json_path, doc, write_error) &&
            writeFile(hash_path, failed ? "failed " + hash : hash,
                      write_error);
        if (wrote && !failed && !trace_doc.empty())
            wrote = writeFile(points_dir + "/" + point.id +
                                  ".trace.json",
                              trace_doc, write_error);

        std::lock_guard<std::mutex> lock(mtx);
        ++outcome.ran;
        ++done;
        if (failed) {
            ++outcome.failed;
            outcome.failures.push_back(SweepFailure{
                point.id, failure.status, failure.message,
                attempt + 1});
        } else if (!verified) {
            ++outcome.unverified;
        }
        if (!wrote && worker_error.empty())
            worker_error = write_error;
        progress(failed ? "FAILED" : "ran", point,
                 failed ? "  (" + failure.status + ")"
                 : verified ? ""
                            : "  VERIFICATION FAILED");
    };

    if (jobs <= 1) {
        for (const SweepPoint &point : points)
            runPoint(point);
    } else {
        ThreadPool pool(jobs);
        for (const SweepPoint &point : points)
            pool.submit([&runPoint, &point] { runPoint(point); });
        pool.wait();
    }

    if (!worker_error.empty()) {
        error = worker_error;
        return false;
    }

    // A graceful stop leaves the sweep partial: skip the merge (some
    // points have no documents yet) and let the caller report
    // 128+signal. The identical rerun resumes -- completed points
    // skip by hash, interrupted points restore from their final
    // checkpoints.
    if (outcome.interrupted || stopRequested()) {
        outcome.interrupted = true;
        return true;
    }

    // Merge, keyed and sorted by id so the bytes are independent of
    // execution order and worker count.
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.id < b.id;
              });
    auto load = [&](const std::string &id, std::string &doc,
                    std::string &load_error) {
        if (!readFile(points_dir + "/" + id + ".json", doc)) {
            load_error = "missing point result for " + id;
            return false;
        }
        // Trust but verify: a corrupt per-point file must not produce
        // a corrupt merged document.
        std::string json_error;
        if (!jsonValidate(doc, json_error)) {
            load_error = "point " + id + ": " + json_error;
            return false;
        }
        return true;
    };
    const std::string out_path = options.outPath.empty()
                                     ? options.dir + "/sweep.json"
                                     : options.outPath;
    return writeMergedDocument(manifest, points, load,
                               outcome.failures, out_path, error);
}

bool
mergeSweep(const SweepManifest &manifest, const SweepOptions &options,
           const std::vector<std::string> &shard_dirs,
           SweepOutcome &outcome, std::string &error)
{
    outcome = SweepOutcome{};
    if (shard_dirs.empty()) {
        error = "--merge needs at least one shard directory";
        return false;
    }

    std::vector<SweepPoint> points;
    if (!manifest.enumerate(points, error))
        return false;
    outcome.total = static_cast<unsigned>(points.size());
    if (points.empty()) {
        error = "manifest enumerates no points";
        return false;
    }
    if (!checkUniqueIds(points, error))
        return false;

    // Locate and validate every point's document up front, rebuilding
    // the failures head from the documents themselves, so the merged
    // bytes match a single-process run of the same point results.
    std::map<std::string, std::string> docs;
    for (const SweepPoint &point : points) {
        std::string doc;
        bool found = false;
        for (const std::string &dir : shard_dirs)
            if (readFile(dir + "/points/" + point.id + ".json", doc)) {
                found = true;
                break;
            }
        if (!found) {
            error = "point " + point.id + " not found under any shard "
                    "directory (is every shard complete?)";
            return false;
        }
        std::string json_error;
        if (!jsonValidate(doc, json_error)) {
            error = "point " + point.id + ": " + json_error;
            return false;
        }
        const std::string status = failureStatusOf(doc);
        if (!status.empty()) {
            ++outcome.failed;
            outcome.failures.push_back(SweepFailure{
                point.id, status,
                "recorded in the shard's failure document", 0});
        } else if (doc.find("\"verified\":false") !=
                   std::string::npos) {
            ++outcome.unverified;
        }
        docs.emplace(point.id, std::move(doc));
    }
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.id < b.id;
              });

    const std::string out_path = options.outPath.empty()
                                     ? options.dir + "/sweep.json"
                                     : options.outPath;
    std::error_code fs_error;
    const auto parent =
        std::filesystem::path(out_path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, fs_error);

    auto load = [&](const std::string &id, std::string &doc,
                    std::string &load_error) {
        (void)load_error;
        doc = docs.at(id);
        return true;
    };
    return writeMergedDocument(manifest, points, load,
                               outcome.failures, out_path, error);
}

} // namespace getm
