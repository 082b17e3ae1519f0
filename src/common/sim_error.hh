/**
 * @file
 * Typed, catchable simulation errors with structured diagnostics.
 *
 * Simulation pathologies (deadlock, livelock, cycle-limit overruns,
 * wall-clock timeouts, invalid configurations) are *recoverable* from
 * the harness's point of view: a sweep must survive a stuck point and
 * record what happened. They therefore throw SimError rather than
 * calling panic()/abort(), which stays reserved for genuine internal
 * invariant violations (simulator bugs).
 *
 * A SimError carries a SimDiagnostic: a plain-data snapshot of the
 * stuck machine (cycle, progress counters, per-warp scheduler states,
 * starving warps, in-flight NoC messages, GETM metadata/stall-buffer
 * occupancy, top conflict addresses). The snapshot renders as
 * human-readable text (toText(), printed by the CLIs) and as a JSON
 * object (toJson(), embedded in the metrics document's "failure"
 * section -- see obs/metrics.hh).
 */

#ifndef GETM_COMMON_SIM_ERROR_HH
#define GETM_COMMON_SIM_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace getm {

/** What went wrong, from the harness's point of view. */
enum class SimErrorKind : std::uint8_t
{
    Deadlock,   ///< No future events, yet the run is not done.
    Livelock,   ///< Events fire but nothing retires or commits.
    CycleLimit, ///< The max_cycles safety bound was exceeded.
    WallTimeout,///< The --timeout-sec wall-clock budget was exceeded.
    Config,     ///< Invalid configuration rejected up front.
    Internal,   ///< Escaped internal error, wrapped for reporting.
    Checkpoint, ///< Unusable checkpoint file (corrupt, skewed, wrong).
    Interrupt,  ///< SIGINT/SIGTERM clean stop at a cycle boundary.
};

/** Stable upper-case kind name ("DEADLOCK", "LIVELOCK", ...). */
const char *simErrorKindName(SimErrorKind kind);

/** Lower-case status token recorded in sweep/failure documents
 *  ("deadlock", "livelock", "cycle-limit", "timeout", ...). */
const char *simErrorStatus(SimErrorKind kind);

/**
 * Process exit code the CLIs use for this failure kind. The contract
 * (docs/DURABILITY.md): 0 success, 2 usage error, 3 verification or
 * checker violation, 4 general SimError taxonomy, 5 watchdog/timeout
 * guards (livelock, wall-clock, cycle-limit), 128+signal for a clean
 * SIGINT/SIGTERM stop.
 */
int simErrorExitCode(SimErrorKind kind);

/** Exit codes shared by getm-sim and getm-sweep (see above). */
inline constexpr int exitUsage = 2;
inline constexpr int exitVerification = 3;
inline constexpr int exitSimError = 4;
inline constexpr int exitWatchdog = 5;

/** Structured snapshot of a failed simulation, attached to SimError. */
struct SimDiagnostic
{
    SimErrorKind kind = SimErrorKind::Internal;
    std::string message;

    std::uint64_t cycle = 0;        ///< Simulated cycle at failure.
    std::uint64_t sinceProgressCycles = 0; ///< Watchdog window burned.
    std::uint64_t instructions = 0; ///< Warp instructions retired.
    std::uint64_t commitLanes = 0;  ///< Lane-level tx commits.
    std::uint64_t nocInFlightUp = 0;   ///< Messages in the up crossbar.
    std::uint64_t nocInFlightDown = 0; ///< ... and the down crossbar.

    /** Scheduler-state histogram over every resident warp. */
    std::vector<std::pair<std::string, unsigned>> warpStates;

    /** Warps stuck in long consecutive-abort streaks (worst first). */
    struct StarvingWarp
    {
        unsigned core = 0;
        unsigned slot = 0;
        std::uint64_t gwid = 0;
        unsigned consecutiveAborts = 0;
        std::string state;
    };
    std::vector<StarvingWarp> starvingWarps;

    /** GETM per-partition occupancy (empty for other protocols). */
    struct PartitionRow
    {
        unsigned partition = 0;
        unsigned metaOccupancy = 0;  ///< Precise entries in use.
        unsigned metaLocked = 0;     ///< ... of which hold write locks.
        unsigned stallOccupancy = 0; ///< Requests parked in the buffer.
    };
    std::vector<PartitionRow> partitions;

    /** Most-contended granules (from the conflict profiler). */
    struct HotAddr
    {
        std::uint64_t addr = 0;
        std::uint64_t total = 0;
    };
    std::vector<HotAddr> hotAddrs;

    /** Multi-line human-readable dump (for stderr). */
    std::string toText() const;

    /** Render as one JSON object (the metrics "failure.diagnostic"). */
    std::string toJson() const;
};

/**
 * A recoverable simulation failure. what() is
 * "<KIND>: <message>"; the full snapshot rides in diagnostic().
 */
class SimError : public std::runtime_error
{
  public:
    SimError(SimErrorKind kind, const std::string &message)
        : std::runtime_error(std::string(simErrorKindName(kind)) + ": " +
                             message)
    {
        diag.kind = kind;
        diag.message = message;
    }

    explicit SimError(SimDiagnostic diagnostic)
        : std::runtime_error(
              std::string(simErrorKindName(diagnostic.kind)) + ": " +
              diagnostic.message),
          diag(std::move(diagnostic))
    {
    }

    SimErrorKind kind() const { return diag.kind; }
    const SimDiagnostic &diagnostic() const { return diag; }

  private:
    SimDiagnostic diag;
};

} // namespace getm

#endif // GETM_COMMON_SIM_ERROR_HH
