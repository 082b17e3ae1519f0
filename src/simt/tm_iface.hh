/**
 * @file
 * Interface between the SIMT core and a TM protocol engine.
 *
 * The core owns generic machinery (scheduling, SIMT stack, coalescing,
 * response plumbing, retirement); a TmCoreProtocol implements the
 * protocol-specific behaviour of transactional accesses and commits.
 * Concrete engines: GETM (src/core), WarpTM-LL/-EL (src/warptm), and
 * EAPG (src/eapg). The fine-grained-lock baseline uses no engine at all.
 */

#ifndef GETM_SIMT_TM_IFACE_HH
#define GETM_SIMT_TM_IFACE_HH

#include <array>

#include "simt/warp.hh"
#include "tm/messages.hh"

namespace getm {

class SimtCore;

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

/** Per-lane addresses of one memory instruction. */
using LaneAddrs = std::array<Addr, warpSize>;

/** Per-lane store data of one memory instruction. */
using LaneVals = std::array<std::uint32_t, warpSize>;

/** Core-side protocol engine. */
class TmCoreProtocol
{
  public:
    virtual ~TmCoreProtocol() = default;

    /** A new transaction attempt began (throttle already passed). */
    virtual void onTxBegin(Warp &warp) { (void)warp; }

    /**
     * Handle a transactional load or store.
     *
     * @param warp  Issuing warp (its pendingReg is already set for loads).
     * @param is_store True for stores.
     * @param addrs Per-lane word addresses (valid where @p lanes set).
     * @param vals  Per-lane store data (stores only).
     * @param lanes Active lanes.
     * @param rd    Destination register for loads.
     */
    virtual void txAccess(Warp &warp, bool is_store, const LaneAddrs &addrs,
                          const LaneVals &vals, LaneMask lanes,
                          std::uint8_t rd) = 0;

    /**
     * The warp reached its commit point (all lanes at TxCommit or
     * aborted) and all outstanding accesses have drained. The engine
     * must eventually call SimtCore::retireTxAttempt().
     */
    virtual void txCommitPoint(Warp &warp) = 0;

    /** A protocol-specific response arrived for @p warp. */
    virtual void onResponse(Warp &warp, const MemMsg &msg) = 0;

    /** A broadcast (no warp association) arrived, e.g. EAPG signatures. */
    virtual void onBroadcast(const MemMsg &msg) { (void)msg; }

    /**
     * Run protocol work the engine deferred out of the regular tick
     * into a micro-phase after all cores ticked. WarpTM-EL uses this
     * for commit points: an EL commit applies its write log to shared
     * memory core-side, and deferring it orders every commit of a
     * cycle after all of that cycle's instant validations. Both cycle
     * loops invoke this in core order after the tick phase.
     *
     * @return true if any deferred work ran (the event loop uses this
     *         to refresh the core's wake cycle).
     */
    virtual bool
    runDeferredCommits(Cycle now)
    {
        (void)now;
        return false;
    }

    /** Serialize engine state into a checkpoint (default: stateless). */
    virtual void ckptSave(ckpt::Writer &ar) { (void)ar; }

    /** Restore engine state from a checkpoint (default: stateless). */
    virtual void ckptLoad(ckpt::Reader &ar) { (void)ar; }
};

} // namespace getm

#endif // GETM_SIMT_TM_IFACE_HH
