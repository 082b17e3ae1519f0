/**
 * @file
 * Crossbar interconnect timing model.
 *
 * The simulated GPU (Table II) uses two crossbars: one "up" network from
 * SIMT cores to memory partitions and one "down" network back. Each
 * message occupies its injection and ejection ports for one cycle per
 * flit, plus a fixed pipeline latency, which captures the serialization
 * and contention effects that make WarpTM's two-round-trip commits
 * expensive without simulating individual flits.
 *
 * Timing is computed analytically at send time; delivery ordering per
 * destination is by computed arrival cycle (ties broken FIFO).
 */

#ifndef GETM_NOC_CROSSBAR_HH
#define GETM_NOC_CROSSBAR_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace getm {

/** Port-occupancy bookkeeping shared by all crossbar instantiations. */
class CrossbarTiming
{
  public:
    struct Config
    {
        /** Pipeline traversal latency in cycles (Table II: 5). */
        Cycle latency = 5;
        /** Bytes per flit (one flit crosses a port per cycle). */
        unsigned flitBytes = 32;
    };

    CrossbarTiming(std::string name_, unsigned num_src, unsigned num_dst,
                   const Config &config);

    /**
     * Compute the delivery cycle for a message of @p bytes sent from
     * @p src to @p dst at time @p now, updating port occupancy and
     * traffic statistics.
     */
    Cycle route(unsigned src, unsigned dst, unsigned bytes, Cycle now);

    /** Total flits that have crossed this crossbar (Fig. 12 metric). */
    std::uint64_t totalFlits() const { return flits; }

    StatSet &stats() { return statSet; }
    const StatSet &stats() const { return statSet; }

    /** Checkpoint hook: port occupancy clocks + traffic stats. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(srcFree, dstFree, flits, statSet);
    }

  private:
    Config cfg;
    std::vector<Cycle> srcFree;
    std::vector<Cycle> dstFree;
    std::uint64_t flits = 0;
    StatSet statSet;

    // Hot-path stat handles: one add/sample per routed message.
    StatSet::Counter &stMessages;
    StatSet::Counter &stFlits;
    StatSet::Counter &stBytes;
    StatSet::Average &stQueueing;
};

/**
 * A crossbar carrying messages of payload type @p MsgT.
 *
 * Messages are enqueued with send() and drained per destination with
 * popReady(); nextArrival() supports idle-cycle skipping in the top-level
 * simulation loop.
 */
template <typename MsgT>
class Crossbar
{
  public:
    Crossbar(std::string name_, unsigned num_src, unsigned num_dst,
             const CrossbarTiming::Config &config)
        : timing(std::move(name_), num_src, num_dst, config),
          inbox(num_dst)
    {
    }

    /**
     * Observer invoked for every send with the routed message and its
     * send/arrival cycles. Purely passive — it sees timing that is
     * already decided, so installing one cannot perturb the NoC model
     * (the transaction tracer's hop-latency accounting hangs here).
     */
    using SendHook =
        std::function<void(const MsgT &, Cycle sent, Cycle arrived)>;

    /** Send @p msg; returns its delivery cycle. */
    Cycle
    send(unsigned src, unsigned dst, unsigned bytes, Cycle now, MsgT msg)
    {
        const Cycle when = timing.route(src, dst, bytes, now);
        if (sendHook)
            sendHook(msg, now, when);
        inbox[dst].push(Entry{when, seq++, std::move(msg)});
        ++pending;
        if (!arrivalDirty && when < cachedArrival)
            cachedArrival = when;
        return when;
    }

    /** Install (or clear, with nullptr) the passive send observer. */
    void setSendHook(SendHook hook) { sendHook = std::move(hook); }

    /** True if a message for @p dst has arrived by @p now. */
    bool
    hasReady(unsigned dst, Cycle now) const
    {
        return !inbox[dst].empty() && inbox[dst].top().when <= now;
    }

    /** Pop the oldest arrived message for @p dst (must be hasReady()). */
    MsgT
    popReady(unsigned dst)
    {
        Entry top = inbox[dst].top();
        inbox[dst].pop();
        --pending;
        // The popped entry may have been the cached minimum; recompute
        // lazily on the next nextArrival() call.
        arrivalDirty = true;
        return std::move(top.msg);
    }

    /** Earliest pending arrival across all destinations (or ~0). */
    Cycle
    nextArrival() const
    {
        if (arrivalDirty) {
            Cycle best = ~static_cast<Cycle>(0);
            for (const auto &queue : inbox)
                if (!queue.empty() && queue.top().when < best)
                    best = queue.top().when;
            cachedArrival = best;
            arrivalDirty = false;
        }
        return cachedArrival;
    }

    /** True if no messages are in flight anywhere. */
    bool idle() const { return pending == 0; }

    /** Messages currently queued or in flight (telemetry gauge). */
    std::size_t inFlight() const { return pending; }

    std::uint64_t totalFlits() const { return timing.totalFlits(); }
    StatSet &stats() { return timing.stats(); }

    /**
     * Checkpoint hook: timing state, send sequence, and every in-flight
     * message (each inbox drains/reloads in (when, seq) pop order, a
     * total order, so heap layout is unobservable). The in-flight gauge
     * is recomputed and the arrival cache invalidated on load.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        timing.ckpt(ar);
        ar(seq, inbox);
        if constexpr (!Ar::saving) {
            std::size_t n = 0;
            for (const auto &queue : inbox)
                n += queue.size();
            pending = n;
            arrivalDirty = true;
        }
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        MsgT msg;

        bool
        operator>(const Entry &other) const
        {
            return when != other.when ? when > other.when
                                      : seq > other.seq;
        }

        template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
    };

    CrossbarTiming timing;
    SendHook sendHook;
    std::uint64_t seq = 0;
    /** In-flight gauge: messages sent but not yet popped. */
    std::size_t pending = 0;
    mutable Cycle cachedArrival = ~static_cast<Cycle>(0);
    mutable bool arrivalDirty = false;
    std::vector<std::priority_queue<Entry, std::vector<Entry>,
                                    std::greater<Entry>>>
        inbox;
};

} // namespace getm

#endif // GETM_NOC_CROSSBAR_HH
