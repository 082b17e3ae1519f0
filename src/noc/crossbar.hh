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

#include <algorithm>
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
 * popReady(). A cycle loop that skips idle cycles learns of arrivals
 * without scanning: wakeInto() hands the crossbar one wake entry per
 * destination, and every send lowers its destination's entry to the
 * arrival cycle.
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
        if (wake && when < wake[dst])
            wake[dst] = when;
        return when;
    }

    /** Install (or clear, with nullptr) the passive send observer. */
    void setSendHook(SendHook hook) { sendHook = std::move(hook); }

    /**
     * Push arrivals into @p wake_list (one entry per destination, owned
     * by the caller and outliving the crossbar): each send lowers
     * wake_list[dst] to the message's arrival cycle. Null disables it.
     */
    void wakeInto(Cycle *wake_list) { wake = wake_list; }

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
        // Move the payload out rather than copy it: pop() orders by
        // (when, seq) only, which a moved-from message keeps.
        MsgT msg = std::move(const_cast<Entry &>(inbox[dst].top()).msg);
        inbox[dst].pop();
        --pending;
        return msg;
    }

    /** Arrival cycle of the oldest message queued for @p dst (or ~0). */
    Cycle
    headArrival(unsigned dst) const
    {
        return inbox[dst].empty() ? ~static_cast<Cycle>(0)
                                  : inbox[dst].top().when;
    }

    /** Earliest pending arrival across all destinations (or ~0); a
     *  scan over every inbox, for the legacy loop and tests. */
    Cycle
    nextArrival() const
    {
        Cycle best = ~static_cast<Cycle>(0);
        for (unsigned dst = 0; dst < inbox.size(); ++dst)
            best = std::min(best, headArrival(dst));
        return best;
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
     * is recomputed on load; the wake list is the owner's to rebuild.
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
    Cycle *wake = nullptr;
    std::vector<std::priority_queue<Entry, std::vector<Entry>,
                                    std::greater<Entry>>>
        inbox;
};

} // namespace getm

#endif // GETM_NOC_CROSSBAR_HH
