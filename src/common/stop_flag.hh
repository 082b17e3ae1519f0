/**
 * @file
 * Process-wide graceful-stop flag.
 *
 * The CLIs install SIGINT/SIGTERM handlers that call requestStop();
 * the simulation loops poll stopRequested() at every iteration top and
 * wind down cleanly: final checkpoint when enabled, partial metrics
 * flushed, exit 128+signal.
 *
 * A lock-free std::atomic<int> store is async-signal-safe, which is
 * all a handler does here; everything else (checkpoint write, metric
 * flush) happens on the simulation thread after the poll.
 */

#ifndef GETM_COMMON_STOP_FLAG_HH
#define GETM_COMMON_STOP_FLAG_HH

#include <atomic>

namespace getm {

namespace detail {
inline std::atomic<int> stopSignalValue{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handlers need a lock-free stop flag");
} // namespace detail

/** Record a termination request (async-signal-safe). */
inline void
requestStop(int signal)
{
    detail::stopSignalValue.store(signal, std::memory_order_relaxed);
}

/** The signal that requested the stop, or 0 when none has. */
inline int
stopSignal()
{
    return detail::stopSignalValue.load(std::memory_order_relaxed);
}

/** Has a graceful stop been requested? */
inline bool
stopRequested()
{
    return stopSignal() != 0;
}

/** Reset the flag (tests; a fresh embedded run). */
inline void
clearStopRequest()
{
    detail::stopSignalValue.store(0, std::memory_order_relaxed);
}

} // namespace getm

#endif // GETM_COMMON_STOP_FLAG_HH
