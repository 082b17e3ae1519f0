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
 * Timing is computed analytically at send time. Each destination's
 * ejection port serializes its arrivals: route() returns
 * max(head arrival, dstFree[dst]) + flits and then sets dstFree[dst] to
 * that cycle, so arrivals at one destination never decrease in send
 * order. (when, seq) order per destination is therefore send order,
 * and each inbox is a plain FIFO ring; send() panics if the invariant
 * ever breaks.
 */

#ifndef GETM_NOC_CROSSBAR_HH
#define GETM_NOC_CROSSBAR_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hh"
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
        Inbox &queue = inbox[dst];
        if (queue.count && when < queue.at(queue.count - 1).when)
            panic("crossbar arrival %llu at dst %u precedes queued %llu",
                  static_cast<unsigned long long>(when), dst,
                  static_cast<unsigned long long>(
                      queue.at(queue.count - 1).when));
        queue.push(when, seq++, std::move(msg));
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
        return inbox[dst].count && inbox[dst].at(0).when <= now;
    }

    /** Pop the oldest arrived message for @p dst (must be hasReady()). */
    MsgT
    popReady(unsigned dst)
    {
        Inbox &queue = inbox[dst];
        MsgT msg = std::move(queue.at(0).msg);
        queue.pop();
        --pending;
        return msg;
    }

    /** Arrival cycle of the oldest message queued for @p dst (or ~0). */
    Cycle
    headArrival(unsigned dst) const
    {
        return inbox[dst].count ? inbox[dst].at(0).when
                                : ~static_cast<Cycle>(0);
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
     * message (each inbox as a count and its entries in FIFO order, so
     * ring layout is unobservable). The in-flight gauge is recomputed
     * on load; the wake list is the owner's to rebuild.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        timing.ckpt(ar);
        ar(seq, inbox);
        if constexpr (!Ar::saving) {
            std::size_t n = 0;
            for (const Inbox &queue : inbox)
                n += queue.count;
            pending = n;
        }
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        MsgT msg;

        template <class Ar> void ckpt(Ar &ar) { ar(when, seq, msg); }
    };

    /**
     * One destination's FIFO: a ring over a vector whose size is zero
     * or a power of two, doubled when full. Popped slots keep their
     * moved-from entries until a later push reuses them.
     */
    struct Inbox
    {
        std::vector<Entry> ring;
        std::size_t head = 0;
        std::size_t count = 0;

        /** The @p i-th entry in FIFO order. */
        Entry &
        at(std::size_t i)
        {
            return ring[(head + i) & (ring.size() - 1)];
        }

        const Entry &
        at(std::size_t i) const
        {
            return ring[(head + i) & (ring.size() - 1)];
        }

        void
        push(Cycle when, std::uint64_t seq, MsgT &&msg)
        {
            if (count == ring.size())
                grow();
            Entry &slot = at(count);
            slot.when = when;
            slot.seq = seq;
            slot.msg = std::move(msg);
            ++count;
        }

        void
        pop()
        {
            head = (head + 1) & (ring.size() - 1);
            --count;
        }

        void
        grow()
        {
            std::vector<Entry> bigger(ring.empty() ? 8 : 2 * ring.size());
            for (std::size_t i = 0; i < count; ++i)
                bigger[i] = std::move(at(i));
            ring = std::move(bigger);
            head = 0;
        }

        /** Same bytes as a std::vector<Entry> in FIFO order. */
        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            if constexpr (Ar::saving) {
                std::uint64_t n = count;
                ar(n);
                for (std::size_t i = 0; i < count; ++i)
                    ar(at(i));
            } else {
                ar(ring);
                head = 0;
                count = ring.size();
                if (count)
                    ring.resize(std::bit_ceil(count));
            }
        }
    };

    CrossbarTiming timing;
    SendHook sendHook;
    std::uint64_t seq = 0;
    /** In-flight gauge: messages sent but not yet popped. */
    std::size_t pending = 0;
    Cycle *wake = nullptr;
    std::vector<Inbox> inbox;
};

} // namespace getm

#endif // GETM_NOC_CROSSBAR_HH
