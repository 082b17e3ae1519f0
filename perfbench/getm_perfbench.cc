/**
 * @file
 * End-to-end benchmark driver for GETM-Sim (see perfbench/README.md).
 *
 * One workload is a fixed set of (bench, protocol) simulation points,
 * enumerated by the sweep manifest parser so every point is configured
 * exactly as `getm-sweep` configures it (Table IV concurrency, 512-cycle
 * telemetry sampler). Points run back to back on one thread, each one
 * through the library's public entry points: makeWorkload, the
 * GpuSystem constructor, Workload::setup, GpuSystem::run,
 * Workload::verify and metricsToJson.
 *
 *     getm_perfbench --workload ycsb-hot [--seed 7] [--seconds 10]
 *                    [--trace 0|1] [--workdir DIR]
 *
 * Untraced (--trace 0): whole passes over the points repeat until
 * --seconds have elapsed (at least two, so every point's simulated
 * fingerprint is compared across runs) and the end-to-end metrics are
 * printed; their host times are scaled to reference-host seconds by a
 * speed probe taken between points. Traced (--trace 1): one untraced
 * and one traced pass, then the per-layer measurements (2-thread loop,
 * checker, sweep runner, structure timings). Spans are recorded only
 * here, around the calls into each layer, kept in memory and written to
 * DIR/spans-*.json at exit. The last stdout line is one JSON object with
 * the verdict and the metrics; the exit status is nonzero when any point
 * failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/violation.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"
#include "gpu/config_file.hh"
#include "gpu/gpu_system.hh"
#include "mem/backing_store.hh"
#include "mem/cache_model.hh"
#include "noc/crossbar.hh"
#include "obs/metrics.hh"
#include "sweep/manifest.hh"
#include "sweep/runner.hh"
#include "tm/intra_warp_cd.hh"
#include "workloads/workload.hh"

#ifndef GETM_PERFBENCH_BUILD_TYPE
#define GETM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace getm;
using Clock = std::chrono::steady_clock;

/** Results of timed structure operations land here, so the compiler
 *  cannot drop the operations. */
volatile std::uint64_t benchmarkSink = 0;

/** Simulated cycles of each GETM point that the 1- and 2-thread loops
 *  are timed on in the traced run (see runLoopPrefix). */
constexpr Cycle threads2Cycles = 200'000;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The workloads. Each body is a sweep manifest minus its seed line;
 * why each was chosen is in README.md.
 */
struct WorkloadDef
{
    const char *name;
    const char *manifest;
};

const WorkloadDef workloadDefs[] = {
    // configs/sweeps/fig10_12_protocols.sweep: the paper's evaluation.
    {"paper-suite",
     "bench = all\nprotocol = warptm eapg getm fglock\nscale = 1.0\n"},
    {"ycsb-hot",
     "bench = YCSB:theta=0.99\nprotocol = getm warptm fglock\n"
     "scale = 0.5\n"},
    {"ycsb-uniform-read",
     "bench = YCSB:theta=0:read=90:rmw=10\n"
     "protocol = getm warptm warptm-el eapg fglock\nscale = 1.0\n"},
};

std::string
manifestText(const WorkloadDef &def, std::uint64_t seed)
{
    return std::string("name = ") + def.name + "\n" + def.manifest +
           "seed = " + std::to_string(seed) + "\n";
}

// ---------------------------------------------------------------------
// Spans: name, start, end and parent, in memory until exit.

class SpanLog
{
  public:
    bool enabled = false;

    int
    open(const std::string &name, int parent)
    {
        if (!enabled)
            return -1;
        spans.push_back(Span{name, parent, now(), -1.0});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[static_cast<std::size_t>(id)].end = now();
    }

    bool
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject();
        w.member("schema", "getm-perfbench-spans");
        w.key("spans").beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            w.beginObject();
            w.member("id", static_cast<std::uint64_t>(i));
            w.member("parent", static_cast<std::int64_t>(spans[i].parent));
            w.member("name", spans[i].name);
            w.member("start_s", spans[i].start);
            w.member("end_s", spans[i].end);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(path);
        out << w.take() << "\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        double start, end;
    };

    double now() const { return since(origin); }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

/** Times one stage; also records it as a span when tracing. */
class Stage
{
  public:
    Stage(SpanLog &log_, const char *name, int parent, double &out_)
        : log(log_), id(log_.open(name, parent)), out(out_),
          t0(Clock::now())
    {
    }

    ~Stage()
    {
        out += since(t0);
        log.close(id);
    }

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

  private:
    SpanLog &log;
    int id;
    double &out;
    Clock::time_point t0;
};

/**
 * Host-speed probe. On a shared host the speed of cache-sensitive code
 * such as the simulator drifts by up to ~2x within minutes, while a
 * compute-only loop barely notices. Random reads over a 4 MiB buffer
 * slow down together with the simulator (README.md, "Host record and
 * noise"), so end-to-end host times are scaled by the probe time
 * measured next to them.
 */
class SpeedProbe
{
  public:
    /** Probe time on the reference host: scaled times read as seconds
     *  there (4-vCPU Intel Xeon host, median). */
    static constexpr double referenceS = 0.025;

    /** A measured interval is scaled by the median probe taken within
     *  this many seconds of it. */
    static constexpr double windowS = 2.0;

    SpeedProbe() : buffer(1u << 20)
    {
        for (std::size_t i = 0; i < buffer.size(); ++i)
            buffer[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }

    /** Time one probe (about 25 ms on the reference host). */
    double
    sample()
    {
        const auto t0 = Clock::now();
        std::uint64_t idx = 1, sum = 0;
        for (int i = 0; i < 8'000'000; ++i) {
            idx = idx * 6364136223846793005ull + 1442695040888963407ull;
            sum += buffer[(idx >> 33) & (buffer.size() - 1)];
        }
        benchmarkSink = sum;
        return since(t0);
    }

  private:
    std::vector<std::uint32_t> buffer;
};

// ---------------------------------------------------------------------
// One point.

/** Simulated statistics that must repeat exactly across runs. */
struct Fingerprint
{
    std::uint64_t cycles = 0, commits = 0, aborts = 0, flits = 0,
                  instructions = 0;

    bool operator==(const Fingerprint &) const = default;
};

/** Host times and simulated counts of one point execution. */
struct PointRun
{
    bool ok = false;
    std::string why;
    double makeS = 0, constructS = 0, setupS = 0, runS = 0, verifyS = 0,
           metricsS = 0, wallS = 0;
    Fingerprint fp;
    std::uint64_t violations = 0;
    /** Seconds since the driver started, when the point began and
     *  ended. */
    double begin = 0, end = 0;
    /** Reference-host seconds per measured second (SpeedProbe). */
    double hostScale = 1.0;
    /** Layer counters (see collectCounts). */
    std::map<std::string, double> counts;

    double setupTotal() const { return makeS + constructS + setupS; }
};

/** Counter @p key of @p pr (0 when the point failed before counting). */
double
countOf(const PointRun &pr, const std::string &key)
{
    auto it = pr.counts.find(key);
    return it == pr.counts.end() ? 0.0 : it->second;
}

void
collectCounts(GpuSystem &gpu, const RunResult &result, PointRun &pr)
{
    auto &c = pr.counts;
    const StatSet &s = result.stats;
    c["cycles"] = static_cast<double>(result.cycles);
    c["instructions"] = static_cast<double>(s.counter("instructions"));
    c["tx_exec_cycles"] = static_cast<double>(result.txExecCycles);
    c["tx_wait_cycles"] = static_cast<double>(result.txWaitCycles);
    c["throttle_stalls"] = static_cast<double>(s.counter("throttle_stalls"));
    c["commit_lanes"] = static_cast<double>(s.counter("tx_commit_lanes"));
    c["aborts"] = static_cast<double>(result.aborts);
    for (unsigned r = 0; r < numAbortReasons; ++r)
        c[std::string("aborts.") +
          abortReasonName(static_cast<AbortReason>(r))] =
            static_cast<double>(result.obs.abortLanesByReason[r]);
    c["flits"] = static_cast<double>(result.xbarFlits);
    c["messages"] = static_cast<double>(s.counter("messages"));
    c["queueing_count"] = static_cast<double>(s.sampleCount("queueing"));
    c["queueing_sum"] = s.mean("queueing") * c["queueing_count"];
    // The merged "read_misses" sums every core's L1 and every LLC
    // slice; the slices are read separately to split the two.
    double llc_read = 0, llc_write = 0;
    for (unsigned p = 0; p < gpu.numPartitions(); ++p) {
        const StatSet &llc = gpu.partitionAt(p).llc().stats();
        llc_read += static_cast<double>(llc.counter("read_misses"));
        llc_write += static_cast<double>(llc.counter("write_misses"));
    }
    c["l1_misses"] =
        static_cast<double>(s.counter("read_misses")) - llc_read;
    c["llc_read_misses"] = llc_read;
    // MemPartition::accessLlc enqueues one DRAM request per LLC miss.
    c["dram_requests"] = llc_read + llc_write;
    c["meta_lookups"] = static_cast<double>(s.counter("lookups"));
    c["meta_cycles_count"] =
        static_cast<double>(s.sampleCount("access_cycles"));
    c["meta_cycles_sum"] = s.mean("access_cycles") * c["meta_cycles_count"];
    c["bloom_evictions"] =
        static_cast<double>(s.counter("evictions_to_bloom"));
    c["stall_enqueues"] = static_cast<double>(s.counter("enqueues"));
    c["stall_full_rejections"] =
        static_cast<double>(s.counter("full_rejections"));
    c["stall_peak"] = static_cast<double>(result.obs.stallPeakOccupancy);
    c["stall_depth_sum"] = static_cast<double>(result.obs.stallDepthSum);
    c["stall_depth_count"] =
        static_cast<double>(result.obs.stallDepthCount);
    c["footprint_bytes"] = static_cast<double>(gpu.memory().allocated());
}

/**
 * Run @p point end to end. @p cfg_edit adjusts the run's GpuConfig
 * (thread count, checker) without touching the point's identity.
 */
PointRun
runPoint(const SweepPoint &point, SpanLog &log, int parent,
         const std::function<void(GpuConfig &)> &cfg_edit = {})
{
    PointRun pr;
    const int span = log.open(point.id, parent);
    const auto t0 = Clock::now();
    try {
        std::unique_ptr<Workload> workload;
        {
            Stage st(log, "workloads.make", span, pr.makeS);
            workload = makeWorkload(point.bench, point.scale, point.seed);
        }
        GpuConfig cfg = point.config;
        if (cfg_edit)
            cfg_edit(cfg);
        std::unique_ptr<GpuSystem> gpu;
        {
            Stage st(log, "gpu.construct", span, pr.constructS);
            gpu = std::make_unique<GpuSystem>(cfg);
        }
        {
            Stage st(log, "workloads.setup", span, pr.setupS);
            workload->setup(*gpu, point.protocol == ProtocolKind::FgLock);
        }
        RunResult result;
        {
            Stage st(log, "gpu.run", span, pr.runS);
            result = gpu->run(workload->kernel(), workload->numThreads(),
                              point.maxCycles);
        }
        bool verified = false;
        {
            Stage st(log, "workloads.verify", span, pr.verifyS);
            verified = workload->verify(*gpu, pr.why);
        }
        pr.violations = result.check.totalViolations;
        pr.fp = Fingerprint{result.cycles, result.commits, result.aborts,
                            result.xbarFlits,
                            result.stats.counter("instructions")};
        collectCounts(*gpu, result, pr);
        {
            Stage st(log, "obs.metrics_json", span, pr.metricsS);
            for (HotAddrRow &row : result.obs.hotAddrs)
                workload->addrInfo(row.addr, row.label);
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
            const std::string doc =
                metricsToJson(meta, result.stats, result.obs);
            std::string json_error;
            if (!jsonValidate(doc, json_error)) {
                verified = false;
                pr.why = "metrics document: " + json_error;
            }
        }
        pr.ok = verified && pr.violations == 0;
        if (verified && pr.violations)
            pr.why = std::to_string(pr.violations) + " checker violations";
    } catch (const std::exception &e) {
        pr.ok = false;
        pr.why = e.what();
    }
    pr.wallS = since(t0);
    log.close(span);
    if (!pr.ok)
        std::printf("# FAILED %s: %s\n", point.id.c_str(), pr.why.c_str());
    return pr;
}

/** What the first cycles of a point's run simulated, and its host time. */
struct LoopPrefix
{
    double runS = 0;
    std::uint64_t cycles = 0, instructions = 0, commitLanes = 0;

    bool
    sameSimulation(const LoopPrefix &o) const
    {
        return cycles == o.cycles && instructions == o.instructions &&
               commitLanes == o.commitLanes;
    }
};

/**
 * Run @p point at @p threads loop threads for at most @p cap cycles and
 * time GpuSystem::run. A point that ends earlier runs whole; one that
 * does not stops at the cycle bound, and its counts come from the
 * CYCLE_LIMIT diagnostic. The bound keeps the 2-thread loop, whose
 * spin barrier slows down sharply when the host is oversubscribed, to
 * a fixed amount of simulated work.
 */
LoopPrefix
runLoopPrefix(const SweepPoint &point, unsigned threads, Cycle cap)
{
    auto workload = makeWorkload(point.bench, point.scale, point.seed);
    GpuConfig cfg = point.config;
    cfg.simThreads = threads;
    GpuSystem gpu(cfg);
    workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
    LoopPrefix out;
    const auto t0 = Clock::now();
    try {
        const RunResult r =
            gpu.run(workload->kernel(), workload->numThreads(), cap);
        out.runS = since(t0);
        out.cycles = r.cycles;
        out.instructions = r.stats.counter("instructions");
        out.commitLanes = r.stats.counter("tx_commit_lanes");
    } catch (const SimError &e) {
        out.runS = since(t0);
        const SimDiagnostic &d = e.diagnostic();
        if (d.kind != SimErrorKind::CycleLimit)
            throw;
        out.cycles = d.cycle;
        out.instructions = d.instructions;
        out.commitLanes = d.commitLanes;
    }
    return out;
}

/** Build a point's machine and workload only (set-up timing rounds). */
double
setupOnly(const SweepPoint &point)
{
    const auto t0 = Clock::now();
    auto workload = makeWorkload(point.bench, point.scale, point.seed);
    GpuSystem gpu(point.config);
    workload->setup(gpu, point.protocol == ProtocolKind::FgLock);
    return since(t0);
}

// ---------------------------------------------------------------------
// Small helpers.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
gmean(const std::vector<double> &v)
{
    if (v.size() < 2)
        return v.empty() ? 0.0 : v.front();
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Median host nanoseconds per operation of @p op over @p n ops. */
double
nsPerOp(std::size_t n, const std::function<void(std::size_t)> &op)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            op(i);
        reps.push_back(since(t0) * 1e9 / static_cast<double>(n));
    }
    return median(reps);
}

/** A deterministic uniform stream of @p n granule-aligned addresses. */
std::vector<Addr>
addressStream(std::size_t n, std::uint64_t granules, unsigned granule,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> out(n);
    for (Addr &a : out)
        a = 0x10000 + rng.below(std::max<std::uint64_t>(granules, 1)) *
                          granule;
    return out;
}

/**
 * Effective parallel capacity: the same spin loop in 4 threads at
 * once vs alone (4 = four free cores).
 */
double
parallelCapacity()
{
    constexpr unsigned workers = 4;
    auto spin = [] {
        std::uint64_t x = 88172645463325252ull;
        for (std::uint64_t i = 0; i < 60'000'000ull; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        static std::atomic<std::uint64_t> sink{0};
        sink.fetch_xor(x, std::memory_order_relaxed);
    };
    auto t0 = Clock::now();
    spin();
    const double one = since(t0);
    t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < workers; ++i)
        pool.emplace_back(spin);
    for (std::thread &t : pool)
        t.join();
    return workers * one / since(t0);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/** An ordered list of (name, value, unit) rows. */
struct MetricRow
{
    std::string name;
    double value;
    std::string unit;
};

void
printRows(const char *title, const std::vector<MetricRow> &rows)
{
    std::printf("# %s\n", title);
    for (const MetricRow &r : rows)
        std::printf("#   %-34s %18.10g %s\n", r.name.c_str(), r.value,
                    r.unit.c_str());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_build/perfbench/work";
    std::string commit = "unknown";
    std::string command;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = value == "1";
            else if (arg == "--workdir")
                opt.workdir = value;
            else if (arg == "--commit")
                opt.commit = value;
            else if (arg == "--command")
                opt.command = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !opt.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME [--seed N] [--seconds S] "
                     "[--trace 0|1] [--workdir DIR] [--commit SHA] "
                     "[--command TEXT]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs)
        if (opt.workload == d.name)
            def = &d;
    if (!def) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    SweepManifest manifest;
    std::vector<SweepPoint> points;
    std::string error;
    if (!manifest.parse(manifestText(*def, opt.seed), "", error) ||
        !manifest.enumerate(points, error)) {
        std::fprintf(stderr, "manifest: %s\n", error.c_str());
        return 2;
    }
    std::vector<std::size_t> getm_idx;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].protocol == ProtocolKind::Getm)
            getm_idx.push_back(i);

    SpanLog log;
    log.enabled = opt.trace;
    const int run_span = log.open("run", -1);
    const int wl_span = log.open(def->name, run_span);
    const auto start = Clock::now();
    const double cpu0 = cpuSeconds();

    // ---- Passes over every point. -----------------------------------
    // The speed probe runs before the first point and after every
    // point; each sample is kept with the time it was taken.
    SpeedProbe probe;
    std::vector<std::pair<double, double>> probes;
    auto takeProbe = [&] {
        const double t = since(start);
        probes.emplace_back(t, probe.sample());
    };
    std::vector<std::vector<PointRun>> passes;
    std::vector<double> pass_wall;
    std::uint64_t attempted = 0, failed = 0;
    auto runPass = [&](bool traced) {
        log.enabled = traced;
        const int pass_span = log.open(
            "pass" + std::to_string(passes.size()), wl_span);
        const auto t0 = Clock::now();
        std::vector<PointRun> pass;
        takeProbe();
        for (const SweepPoint &point : points) {
            const double begin = since(start);
            pass.push_back(runPoint(point, log, pass_span));
            pass.back().begin = begin;
            pass.back().end = since(start);
            takeProbe();
            ++attempted;
            if (!pass.back().ok)
                ++failed;
        }
        pass_wall.push_back(since(t0));
        log.close(pass_span);
        passes.push_back(std::move(pass));
    };
    if (opt.trace) {
        runPass(false);
        runPass(true);
    } else {
        while (passes.size() < 2 || since(start) < opt.seconds)
            runPass(false);
    }
    log.enabled = opt.trace;

    // Every later run of a point must reproduce pass 0 exactly.
    const std::vector<PointRun> &base = passes.front();
    for (std::size_t p = 1; p < passes.size(); ++p)
        for (std::size_t i = 0; i < points.size(); ++i)
            if (passes[p][i].ok && passes[p][i].fp != base[i].fp) {
                ++failed;
                std::printf("# MISMATCH %s: pass %zu fingerprint differs\n",
                            points[i].id.c_str(), p);
            }

    // ---- Set-up-only rounds, so set-up has at least nine samples. -----
    struct SetupRound
    {
        double raw, begin, end;
    };
    std::vector<SetupRound> extra_rounds;
    for (std::size_t r = passes.size(); r < 9; ++r) {
        takeProbe();
        const double begin = since(start);
        double raw = 0;
        try {
            for (const SweepPoint &point : points)
                raw += setupOnly(point);
        } catch (const std::exception &e) {
            ++failed;
            std::printf("# FAILED set-up round: %s\n", e.what());
        }
        extra_rounds.push_back({raw, begin, since(start)});
    }
    takeProbe();

    // Reference-host seconds per measured second over [begin, end]: the
    // median probe sample within SpeedProbe::windowS of it. One sample
    // is noisy; the host's drift shows over several seconds.
    auto hostScale = [&](double begin, double end) {
        std::vector<double> near;
        for (const auto &[t, s] : probes)
            if (t >= begin - SpeedProbe::windowS &&
                t <= end + SpeedProbe::windowS)
                near.push_back(s);
        return SpeedProbe::referenceS / median(near);
    };
    for (auto &pass : passes)
        for (PointRun &pr : pass)
            pr.hostScale = hostScale(pr.begin, pr.end);

    std::vector<double> setup_rounds, setup_raw;
    for (const auto &pass : passes) {
        double s = 0, raw = 0;
        for (const PointRun &pr : pass) {
            s += pr.setupTotal() * pr.hostScale;
            raw += pr.setupTotal();
        }
        setup_rounds.push_back(s);
        setup_raw.push_back(raw);
    }
    for (const SetupRound &r : extra_rounds) {
        setup_rounds.push_back(r.raw * hostScale(r.begin, r.end));
        setup_raw.push_back(r.raw);
    }

    // ---- End-to-end metrics. ----------------------------------------
    // Host times are scaled to the reference host, then taken as
    // per-point medians over the passes and summed, so a slow stretch
    // of the host costs only the points it overlapped.
    double wall_s = 0, wall_raw = 0, run_s = 0, cycles = 0, instr = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<double> walls, raws, runs;
        for (const auto &pass : passes) {
            walls.push_back(pass[i].wallS * pass[i].hostScale);
            raws.push_back(pass[i].wallS);
            runs.push_back(pass[i].runS * pass[i].hostScale);
        }
        wall_s += median(walls);
        wall_raw += median(raws);
        run_s += median(runs);
        cycles += static_cast<double>(base[i].fp.cycles);
        instr += static_cast<double>(base[i].fp.instructions);
    }
    std::map<std::string, std::vector<double>> cycles_by_protocol;
    for (std::size_t i = 0; i < points.size(); ++i)
        cycles_by_protocol[protocolName(points[i].protocol)].push_back(
            static_cast<double>(base[i].fp.cycles));
    const double getm_gmean = gmean(cycles_by_protocol["GETM"]);
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    std::vector<MetricRow> e2e = {
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup_rounds), "s"},
        {"sim_mcycles_per_s", cycles / run_s / 1e6, "Mcycle/s"},
        {"sim_minstr_per_s", instr / run_s / 1e6, "Minstr/s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"getm_cycles_gmean", getm_gmean, "cycles"},
    };

    std::vector<MetricRow> model;
    for (const auto &[proto, v] : cycles_by_protocol)
        model.push_back({"model.cycles_gmean." + proto, gmean(v), "cycles"});
    model.push_back({"model.wtm_over_getm",
                     gmean(cycles_by_protocol["WarpTM-LL"]) / getm_gmean,
                     "ratio"});
    model.push_back({"model.fglock_over_getm",
                     gmean(cycles_by_protocol["FGLock"]) / getm_gmean,
                     "ratio"});

    // ---- Per-layer metrics (traced run only). ------------------------
    std::vector<MetricRow> layer;
    if (opt.trace) {
        const std::vector<PointRun> &traced = passes.back();
        auto sum = [&](const std::vector<std::size_t> &idx,
                       const std::function<double(const PointRun &)> &f) {
            double s = 0;
            for (std::size_t i : idx)
                s += f(traced[i]);
            return s;
        };
        std::vector<std::size_t> all_idx(points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
            all_idx[i] = i;
        auto count = [&](const std::vector<std::size_t> &idx,
                         const std::string &key) {
            return sum(idx, [&](const PointRun &pr) {
                return countOf(pr, key);
            });
        };
        auto all = [&](const std::string &key) { return count(all_idx, key); };
        auto getm = [&](const std::string &key) {
            return count(getm_idx, key);
        };
        auto ratio = [](double a, double b) { return b ? a / b : 0.0; };

        const double layer_run_s =
            sum(all_idx, [](auto &p) { return p.runS; });
        const double layer_cycles = all("cycles");
        const double layer_instr = all("instructions");
        layer.push_back({"workloads.make_s",
                         sum(all_idx, [](auto &p) { return p.makeS; }), "s"});
        layer.push_back({"workloads.setup_s",
                         sum(all_idx, [](auto &p) { return p.setupS; }),
                         "s"});
        layer.push_back({"workloads.verify_s",
                         sum(all_idx, [](auto &p) { return p.verifyS; }),
                         "s"});
        layer.push_back({"gpu.construct_s",
                         sum(all_idx, [](auto &p) { return p.constructS; }),
                         "s"});
        layer.push_back({"gpu.run_s", layer_run_s, "s"});
        // Every protocol gets a row (0 s where the workload does not
        // run it), so all workloads report the same metric names.
        std::map<std::string, double> run_by_proto;
        const std::pair<const char *, ProtocolKind> protocols[] = {
            {"getm", ProtocolKind::Getm},
            {"warptm", ProtocolKind::WarpTmLL},
            {"warptm-el", ProtocolKind::WarpTmEL},
            {"eapg", ProtocolKind::Eapg},
            {"fglock", ProtocolKind::FgLock}};
        for (const auto &[cli, kind] : protocols) {
            double s = 0;
            for (std::size_t i = 0; i < points.size(); ++i)
                if (points[i].protocol == kind)
                    s += traced[i].runS;
            run_by_proto[cli] = s;
            layer.push_back({std::string("gpu.run_s.") + cli, s, "s"});
        }
        layer.push_back({"gpu.sim_cycles", layer_cycles, "cycles"});
        layer.push_back({"gpu.host_ns_per_cycle",
                         layer_run_s / layer_cycles * 1e9, "ns/cycle"});

        layer.push_back({"simt.instructions", layer_instr, "count"});
        layer.push_back({"simt.host_us_per_kinstr",
                         layer_run_s / layer_instr * 1e9, "us/kinstr"});
        layer.push_back({"simt.tx_exec_cycles", all("tx_exec_cycles"),
                         "cycles"});
        layer.push_back({"simt.tx_wait_cycles", all("tx_wait_cycles"),
                         "cycles"});
        layer.push_back({"simt.throttle_stalls", all("throttle_stalls"),
                         "count"});

        const double commits = all("commit_lanes");
        const double aborts = all("aborts");
        layer.push_back({"tm.commit_lanes", commits, "count"});
        layer.push_back({"tm.aborts", aborts, "count"});
        layer.push_back({"tm.useful_ratio", ratio(commits, commits + aborts),
                         "ratio"});
        for (unsigned r = 0; r < numAbortReasons; ++r) {
            const std::string reason =
                abortReasonName(static_cast<AbortReason>(r));
            layer.push_back({"tm.aborts." + reason, all("aborts." + reason),
                             "count"});
        }

        layer.push_back({"core.meta_lookups", getm("meta_lookups"),
                         "count"});
        layer.push_back({"core.meta_access_cycles",
                         ratio(getm("meta_cycles_sum"),
                               getm("meta_cycles_count")),
                         "cycles"});
        layer.push_back({"core.bloom_evictions", getm("bloom_evictions"),
                         "count"});
        layer.push_back({"core.stall_enqueues", getm("stall_enqueues"),
                         "count"});
        layer.push_back({"core.stall_full_rejections",
                         getm("stall_full_rejections"), "count"});
        double stall_peak = 0;
        for (std::size_t i : getm_idx)
            stall_peak =
                std::max(stall_peak, countOf(traced[i], "stall_peak"));
        layer.push_back({"core.stall_peak_occupancy", stall_peak, "entries"});
        layer.push_back({"core.stall_waiters_per_addr",
                         ratio(getm("stall_depth_sum"),
                               getm("stall_depth_count")),
                         "requests"});

        layer.push_back({"noc.flits", all("flits"), "count"});
        layer.push_back({"noc.messages", all("messages"), "count"});
        layer.push_back({"noc.queueing_cycles",
                         ratio(all("queueing_sum"), all("queueing_count")),
                         "cycles"});
        layer.push_back({"mem.l1_misses", all("l1_misses"), "count"});
        layer.push_back({"mem.llc_read_misses", all("llc_read_misses"),
                         "count"});
        layer.push_back({"mem.dram_requests", all("dram_requests"),
                         "count"});
        layer.push_back({"obs.metrics_json_s",
                         sum(all_idx, [](auto &p) { return p.metricsS; }),
                         "s"});
        layer.push_back({"trace.overhead_frac",
                         pass_wall[1] / pass_wall[0] - 1.0, "ratio"});

        // The "same points" below are the workload's GETM points, timed
        // directly in the untraced pass.
        double direct_run = 0, direct_wall = 0;
        for (std::size_t i : getm_idx) {
            direct_run += base[i].runS;
            direct_wall += base[i].wallS;
        }
        // The 2-thread loop is measured, not gated: its speed is a
        // ROADMAP decision, and its determinism is reported as a count.
        // Both loops run the same bounded prefix of each GETM point.
        double t1_prefix = 0, t2_prefix = 0;
        std::uint64_t t2_bad = 0;
        {
            const int span = log.open("gpu.threads2", wl_span);
            for (std::size_t i : getm_idx) {
                const int pspan = log.open(points[i].id, span);
                try {
                    const LoopPrefix one =
                        runLoopPrefix(points[i], 1, threads2Cycles);
                    const LoopPrefix two =
                        runLoopPrefix(points[i], 2, threads2Cycles);
                    t1_prefix += one.runS;
                    t2_prefix += two.runS;
                    if (!two.sameSimulation(one)) {
                        ++t2_bad;
                        std::printf(
                            "# MISMATCH %s: gpu.threads2 differs in the "
                            "first %llu cycles (cycles %llu vs %llu, "
                            "commit lanes %llu vs %llu) [not gated]\n",
                            points[i].id.c_str(),
                            static_cast<unsigned long long>(threads2Cycles),
                            static_cast<unsigned long long>(two.cycles),
                            static_cast<unsigned long long>(one.cycles),
                            static_cast<unsigned long long>(two.commitLanes),
                            static_cast<unsigned long long>(one.commitLanes));
                    }
                } catch (const std::exception &e) {
                    ++t2_bad;
                    std::printf("# MISMATCH %s: gpu.threads2 threw: %s "
                                "[not gated]\n",
                                points[i].id.c_str(), e.what());
                }
                log.close(pspan);
            }
            log.close(span);
        }
        layer.push_back({"gpu.threads2_speedup",
                         t2_prefix ? t1_prefix / t2_prefix : 0.0, "x"});
        layer.push_back({"gpu.threads2_mismatches",
                         static_cast<double>(t2_bad), "count"});

        // Checked reruns must reproduce the direct run's fingerprint;
        // a point that fails or differs counts as failed.
        double check_run = 0;
        std::uint64_t check_viol = 0;
        {
            const int span = log.open("check.serial", wl_span);
            for (std::size_t i : getm_idx) {
                PointRun pr =
                    runPoint(points[i], log, span, [](GpuConfig &c) {
                        c.checkLevel =
                            static_cast<unsigned>(CheckLevel::Serial);
                    });
                if (pr.ok && pr.fp != base[i].fp)
                    std::printf("# MISMATCH %s: check.serial fingerprint "
                                "differs (cycles %llu vs %llu, commits "
                                "%llu vs %llu)\n",
                                points[i].id.c_str(),
                                static_cast<unsigned long long>(pr.fp.cycles),
                                static_cast<unsigned long long>(
                                    base[i].fp.cycles),
                                static_cast<unsigned long long>(
                                    pr.fp.commits),
                                static_cast<unsigned long long>(
                                    base[i].fp.commits));
                ++attempted;
                if (!pr.ok || pr.fp != base[i].fp)
                    ++failed;
                check_run += pr.runS;
                check_viol += pr.violations;
            }
            log.close(span);
        }
        layer.push_back({"check.overhead_x", check_run / direct_run, "x"});
        layer.push_back({"check.violations",
                         static_cast<double>(check_viol), "count"});

        {
            // runSweep at jobs=1 over the same points, minus their
            // direct wall time.
            std::string text = manifestText(*def, opt.seed);
            const auto pos = text.find("protocol = ");
            text.replace(pos, text.find('\n', pos) - pos, "protocol = getm");
            SweepManifest getm_manifest;
            SweepOptions sopt;
            sopt.dir = opt.workdir + "/sweep-" + def->name;
            sopt.jobs = 1;
            sopt.force = true;
            sopt.progress = false;
            SweepOutcome outcome;
            std::filesystem::remove_all(sopt.dir);
            const int span = log.open("sweep.runSweep", wl_span);
            const auto t0 = Clock::now();
            const bool ok =
                getm_manifest.parse(text, "", error) &&
                runSweep(getm_manifest, sopt, outcome, error);
            const double sweep_wall = since(t0);
            log.close(span);
            std::filesystem::remove_all(sopt.dir);
            attempted += outcome.total;
            if (!ok || outcome.unverified || outcome.failed) {
                failed += ok ? outcome.unverified + outcome.failed : 1;
                std::printf("# FAILED runSweep: %s\n", error.c_str());
            }
            layer.push_back({"sweep.overhead_s", sweep_wall - direct_wall,
                             "s"});
        }

        // ---- Structure timings on streams shaped by the GETM points.
        const int micro_span = log.open("structures", wl_span);
        const GpuConfig &cfg = points[getm_idx.front()].config;
        const std::uint64_t granules = static_cast<std::uint64_t>(
            getm("footprint_bytes") / static_cast<double>(getm_idx.size()) /
            cfg.getmGranule);
        constexpr std::size_t n = 1 << 16;
        const std::vector<Addr> keys =
            addressStream(n, granules, cfg.getmGranule, opt.seed);
        const std::vector<Addr> lookups =
            addressStream(n, granules, cfg.getmGranule, opt.seed + 1);

        MetadataTable::Config mcfg;
        mcfg.preciseEntries =
            std::max(16u, cfg.getmPreciseEntriesTotal / cfg.numPartitions);
        mcfg.bloomEntries =
            std::max(16u, cfg.getmBloomEntriesTotal / cfg.numPartitions);
        MetadataTable table("perfbench.meta", mcfg);
        const double meta_ns =
            nsPerOp(n, [&](std::size_t i) { table.access(keys[i]); });

        RecencyBloom bloom(mcfg.bloomEntries / 4, cfg.seed);
        std::uint64_t sink = 0;
        const double bloom_ns = nsPerOp(n, [&](std::size_t i) {
            bloom.insert(keys[i], i, i);
            sink += bloom.lookup(lookups[i]).first;
        });

        StallBuffer stall("perfbench.stall", cfg.getmStall);
        const double stall_ns = nsPerOp(n, [&](std::size_t i) {
            const Addr key = keys[i] % (cfg.getmStall.lines * 32);
            MemMsg msg;
            msg.ts = i;
            if (stall.enqueue(key, std::move(msg)) && stall.hasWaiters(key))
                sink += stall.popOldest(key).ts;
        });

        IntraWarpCd iwcd;
        const double iwcd_ns = nsPerOp(n, [&](std::size_t i) {
            sink += iwcd.checkAndRecord(i % 32, keys[i], (i & 3) == 0);
            if (i % 256 == 255)
                iwcd.clear();
        });

        Crossbar<MemMsg> xbar("perfbench.xbar", cfg.numCores,
                              cfg.numPartitions, cfg.xbar);
        Cycle now = 0;
        const double msg_ns = nsPerOp(n, [&](std::size_t i) {
            ++now;
            const unsigned dst =
                static_cast<unsigned>(keys[i] / 32 % cfg.numPartitions);
            xbar.send(static_cast<unsigned>(i % cfg.numCores), dst, 32,
                      now, MemMsg{});
            for (unsigned d = 0; d < cfg.numPartitions; ++d)
                while (xbar.hasReady(d, now))
                    sink += xbar.popReady(d).addr;
        });

        CacheModel llc("perfbench.llc", cfg.llcBytesPerPartition,
                       cfg.llcAssoc, cfg.lineBytes);
        const double cache_ns = nsPerOp(n, [&](std::size_t i) {
            sink += llc.access(keys[i], (i & 3) == 0).hit;
        });

        BackingStore store;
        const Addr region = store.allocate(
            (granules + 1) * cfg.getmGranule + 0x10000);
        for (std::size_t i = 0; i < n; ++i)
            store.write(region + keys[i], static_cast<std::uint32_t>(i));
        const double read_ns = nsPerOp(n, [&](std::size_t i) {
            sink += store.read(region + lookups[i]);
        });
        log.close(micro_span);
        benchmarkSink = sink;

        layer.push_back({"core.meta_access_ns", meta_ns, "ns"});
        layer.push_back({"core.bloom_ns", bloom_ns, "ns"});
        layer.push_back({"core.stall_buffer_ns", stall_ns, "ns"});
        layer.push_back({"tm.intra_warp_cd_ns", iwcd_ns, "ns"});
        layer.push_back({"noc.msg_ns", msg_ns, "ns"});
        layer.push_back({"mem.cache_access_ns", cache_ns, "ns"});
        layer.push_back({"mem.backing_read_ns", read_ns, "ns"});
        const double getm_run = run_by_proto["getm"];
        layer.push_back(
            {"core.host_share_est",
             (getm("meta_lookups") * meta_ns +
              getm("bloom_evictions") * bloom_ns +
              (getm("stall_enqueues") + getm("stall_full_rejections")) *
                  stall_ns) *
                 1e-9 / getm_run,
             "ratio"});
        for (const MetricRow &m : model)
            layer.push_back(m);
    }
    log.close(wl_span);
    log.close(run_span);

    // ---- Report. ----------------------------------------------------
    const double wall_total = since(start);
    const double cpu_total = cpuSeconds() - cpu0;
    const double capacity = parallelCapacity();
    std::printf("# host: nproc=%u parallel_capacity=%.2f cpu=\"%s\" "
                "compiler=\"g++ %s\" build=%s commit=%s\n",
                std::thread::hardware_concurrency(), capacity,
                cpuModel().c_str(), __VERSION__, GETM_PERFBENCH_BUILD_TYPE,
                opt.commit.c_str());
    std::printf("# command: %s\n", opt.command.c_str());
    std::printf("# workload=%s seed=%llu points=%zu passes=%zu trace=%d\n",
                def->name, static_cast<unsigned long long>(opt.seed),
                points.size(), passes.size(), opt.trace ? 1 : 0);
    std::printf("# noise: process cpu/wall %.3f; pass wall (s):",
                cpu_total / wall_total);
    for (double w : pass_wall)
        std::printf(" %.4f", w);
    std::vector<double> probe_times;
    for (const auto &sample : probes)
        probe_times.push_back(sample.second);
    std::printf("\n# speed probe: median %.5f s over %zu samples "
                "(reference %.3f s); unscaled wall_s %.6g s, "
                "setup_s %.6g s\n",
                median(probe_times), probes.size(), SpeedProbe::referenceS,
                wall_raw, median(setup_raw));
    std::vector<MetricRow> e2e_print = e2e;
    e2e_print.push_back({"failed_frac", failed_frac, "ratio"});
    printRows("end-to-end", e2e_print);
    printRows("model", model);
    if (opt.trace) {
        printRows("per-layer", layer);
        std::filesystem::create_directories(opt.workdir);
        const std::string spans_path = opt.workdir + "/spans-" +
                                       def->name + "-seed" +
                                       std::to_string(opt.seed) + ".json";
        if (log.write(spans_path))
            std::printf("# spans: %s\n", spans_path.c_str());
        else
            std::printf("# spans: cannot write %s\n", spans_path.c_str());
    }

    JsonWriter w;
    w.beginObject();
    w.member("correct", failed == 0);
    w.member("attempted", attempted);
    w.member("failed", failed);
    w.key("metrics").beginObject();
    for (const MetricRow &m : opt.trace ? layer : e2e) {
        w.key(m.name).beginObject();
        w.member("value", m.value);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.take().c_str());
    return failed == 0 ? 0 : 1;
}
