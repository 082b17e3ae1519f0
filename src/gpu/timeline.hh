/**
 * @file
 * Transaction-lifecycle timeline recorder.
 *
 * Records per-warp transactional spans (attempt begin -> commit/retire)
 * and instant events (aborts, retries, rollovers) and serializes them in
 * the Chrome trace-event JSON format, viewable in chrome://tracing or
 * Perfetto. Cores map to "processes" and warp slots to "threads", so a
 * loaded GPU renders as a familiar Gantt chart of transactions.
 *
 * Beyond spans, the recorder supports:
 *  - counter ("C") events: sampled telemetry rendered by Perfetto as
 *    counter tracks (warp occupancy, stall-buffer fill, ...);
 *  - metadata ("M") events: process_name/thread_name records so tracks
 *    appear as "core 3" / "warp slot 12" instead of bare pids/tids.
 *
 * All event names pass through jsonEscape(), so arbitrary names cannot
 * corrupt the emitted document.
 *
 * Enable via GpuConfig::timelinePath (or `getm_sim --timeline out.json`).
 */

#ifndef GETM_GPU_TIMELINE_HH
#define GETM_GPU_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace getm {

/** Collects trace events for one run. */
class Timeline
{
  public:
    /** Open a span (Chrome "B" event). */
    void
    begin(CoreId core, std::uint32_t slot, const char *name, Cycle ts)
    {
        events.push_back({Kind::Begin, core, slot, name, ts, 0.0});
    }

    /** Close the innermost span (Chrome "E" event). */
    void
    end(CoreId core, std::uint32_t slot, Cycle ts)
    {
        events.push_back({Kind::End, core, slot, "", ts, 0.0});
    }

    /** Record an instant event (Chrome "i"). */
    void
    instant(CoreId core, std::uint32_t slot, const char *name, Cycle ts)
    {
        events.push_back({Kind::Instant, core, slot, name, ts, 0.0});
    }

    /** Record a complete span (Chrome "X": start + duration). */
    void
    complete(std::uint32_t pid, std::uint32_t tid,
             const std::string &name, Cycle ts, Cycle dur)
    {
        events.push_back({Kind::Complete, pid, tid, name, ts,
                          static_cast<double>(dur)});
    }

    /** Record a counter sample (Chrome "C"; one track per name). */
    void
    counter(std::uint32_t pid, const std::string &name, Cycle ts,
            double value)
    {
        events.push_back({Kind::Counter, pid, 0, name, ts, value});
    }

    /** Name a process track ("M"/process_name, e.g. "core 3"). */
    void
    nameProcess(std::uint32_t pid, const std::string &name)
    {
        events.push_back({Kind::ProcessName, pid, 0, name, 0, 0.0});
    }

    /** Name a thread track ("M"/thread_name, e.g. "warp slot 12"). */
    void
    nameThread(std::uint32_t pid, std::uint32_t tid,
               const std::string &name)
    {
        events.push_back({Kind::ThreadName, pid, tid, name, 0, 0.0});
    }

    std::size_t size() const { return events.size(); }

    /** Checkpoint hook: every recorded event. */
    template <class Ar> void ckpt(Ar &ar) { ar(events); }

    /** Serialize as Chrome trace-event JSON. */
    std::string toJson() const;

    /** Write to @p path; returns false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    enum class Kind : std::uint8_t
    {
        Begin,
        End,
        Instant,
        Complete,
        Counter,
        ProcessName,
        ThreadName,
    };

    struct Event
    {
        Kind kind;
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
        Cycle ts;
        double value;

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(kind, pid, tid, name, ts, value);
        }
    };

    std::vector<Event> events;
};

} // namespace getm

#endif // GETM_GPU_TIMELINE_HH
