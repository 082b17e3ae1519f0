/**
 * @file
 * Structured metrics export.
 *
 * Serializes a complete run record — identity/provenance, headline run
 * numbers, the full statistics tree (counters, maxima, averages,
 * histograms), abort/stall reason breakdowns, the hot-address table,
 * and sampled time-series — into one versioned JSON document
 * ("schema": "getm-metrics"). The document is self-describing and
 * byte-stable for a given run, so downstream tooling
 * (tools/check_metrics.py, plotting scripts) can rely on its shape.
 *
 * The exporter is deliberately independent of the gpu layer: callers
 * flatten their configuration into MetricsMeta key/value provenance
 * rather than passing GpuConfig here.
 */

#ifndef GETM_OBS_METRICS_HH
#define GETM_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "obs/observability.hh"
#include "obs/schema_version.hh"

namespace getm {

/** Schema identity stamped into every metrics document (version in
 *  obs/schema_version.hh, shared with tools/check_metrics.py). */
inline constexpr const char *metricsSchemaName = "getm-metrics";

/** Run identity, headline results, and config provenance. */
struct MetricsMeta
{
    std::string bench;
    std::string protocol;
    double scale = 0.0;
    std::uint64_t seed = 0;
    std::uint64_t threads = 0;
    bool verified = false;

    // Headline run numbers (RunResult flattened by the caller).
    std::uint64_t cycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t txExecCycles = 0;
    std::uint64_t txWaitCycles = 0;
    std::uint64_t xbarFlits = 0;
    std::uint64_t rollovers = 0;
    std::uint64_t maxLogicalTs = 0;

    /** Config provenance: ordered key/value pairs (values pre-rendered). */
    std::vector<std::pair<std::string, std::string>> config;

    /**
     * Runtime-checker verdict, pre-rendered by the caller as
     * violation-kind → count rows (this layer stays independent of
     * src/check just as it is of src/gpu). Left empty on clean or
     * unchecked runs, in which case no "check" section is emitted and
     * the document stays byte-identical to a checker-off run.
     */
    std::vector<std::pair<std::string, std::uint64_t>> checkViolations;
    /** Checker level name ("read"/"serial"/"ref"); set with violations. */
    std::string checkLevel;
};

/**
 * A failed run, pre-flattened by the caller (this layer stays
 * independent of common/sim_error just as it is of src/gpu): the
 * typed status/kind strings come from simErrorStatus()/
 * simErrorKindName() and @c diagnosticJson is the pre-rendered
 * SimDiagnostic::toJson() object, spliced verbatim.
 */
struct MetricsFailure
{
    std::string status;  ///< "deadlock", "livelock", "timeout", ...
    std::string kind;    ///< "DEADLOCK", "LIVELOCK", ...
    std::string message; ///< Human-readable one-liner.
    std::uint64_t attempts = 1; ///< Tries the sweep made (1 + retries).
    std::string diagnosticJson; ///< Rendered SimDiagnostic, may be "".
};

/** Render the full metrics document as a JSON string. */
std::string metricsToJson(const MetricsMeta &meta, const StatSet &stats,
                          const ObsReport &obs);

/**
 * Render a failure document: same schema/meta/config head as a full
 * metrics document, but a "failure" section in place of run/stats
 * (meta carries identity only; headline numbers stay zero).
 */
std::string failureToJson(const MetricsMeta &meta,
                          const MetricsFailure &failure);

/**
 * Write @p text to @p path verbatim (also the sweep runner's writer).
 * @return false (with @p error set) on I/O failure.
 */
bool writeTextFile(const std::string &path, const std::string &text,
                   std::string &error);

/**
 * Render and write the metrics document to @p path.
 * @return false (with @p error set) on I/O failure.
 */
bool writeMetricsFile(const std::string &path, const MetricsMeta &meta,
                      const StatSet &stats, const ObsReport &obs,
                      std::string &error);

/**
 * Render and write a failure document to @p path.
 * @return false (with @p error set) on I/O failure.
 */
bool writeFailureFile(const std::string &path, const MetricsMeta &meta,
                      const MetricsFailure &failure, std::string &error);

} // namespace getm

#endif // GETM_OBS_METRICS_HH
