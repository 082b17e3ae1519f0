/**
 * @file
 * Idealized EarlyAbort/Pause-n-Go baseline (paper Sec. VI-A; proposal of
 * Chen & Peng [26]).
 *
 * EAPG extends WarpTM with broadcast updates about currently committing
 * transactions: when a validation with writes begins at an LLC partition,
 * the writer's conflict set is broadcast to every SIMT core. Cores
 * early-abort running transactions whose read sets intersect it, and
 * pause transactions about to enter validation until the conflicting
 * commit finishes.
 *
 * Following the paper's idealization: broadcasts are charged as 64-bit
 * messages on the crossbar regardless of content, the conflict check at
 * the core is instantaneous and precise, and reference-count table
 * updates cost one cycle for the whole log. The broadcasts still
 * traverse the down crossbar, whose congestion is the mechanism's real
 * cost (Sec. VI-B).
 */

#ifndef GETM_EAPG_EAPG_HH
#define GETM_EAPG_EAPG_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "warptm/wtm_core_tm.hh"
#include "warptm/wtm_partition.hh"

namespace getm {

/** EAPG partition unit: WarpTM plus conflict-set/done broadcasts. */
class EapgPartitionUnit : public WtmPartitionUnit
{
  public:
    EapgPartitionUnit(PartitionContext &context,
                      const WtmPartitionConfig &config, std::string name)
        : WtmPartitionUnit(context, config, std::move(name)),
          stSignatureBroadcasts(
              ctx.stats().addCounter("eapg_signature_broadcasts")),
          stDoneBroadcasts(ctx.stats().addCounter("eapg_done_broadcasts"))
    {
    }

  protected:
    void onValidationStart(const MemMsg &slice, Cycle now) override;
    void onDecisionApplied(std::uint64_t tx_id, Cycle now) override;

  private:
    // Hot-path stat handles: one add per broadcast fan-out.
    StatSet::Counter &stSignatureBroadcasts;
    StatSet::Counter &stDoneBroadcasts;
};

/**
 * Fixed-width Bloom-style address signature: a cheap "maybe" in front
 * of an exact lookup. One bit per address, chosen by a multiplicative
 * hash; no false negatives.
 */
class AddrSignature
{
  public:
    static constexpr unsigned bits = 512;

    void add(Addr addr) { words[bitOf(addr) / 64] |= bitMask(addr); }

    bool
    mayContain(Addr addr) const
    {
        return words[bitOf(addr) / 64] & bitMask(addr);
    }

    AddrSignature &
    operator|=(const AddrSignature &other)
    {
        for (unsigned w = 0; w < words.size(); ++w)
            words[w] |= other.words[w];
        return *this;
    }

    void clear() { words.fill(0); }

  private:
    static unsigned
    bitOf(Addr addr)
    {
        // Fibonacci hashing: the top log2(bits) bits of the product mix
        // every address bit, so word-strided addresses spread evenly.
        return static_cast<unsigned>((addr * 0x9e3779b97f4a7c15ull) >> 55);
    }

    static std::uint64_t
    bitMask(Addr addr)
    {
        return std::uint64_t{1} << (bitOf(addr) % 64);
    }

    static_assert(bits == 1u << 9, "bitOf() keeps the top 9 hash bits");
    std::array<std::uint64_t, bits / 64> words{};
};

/** EAPG core engine: WarpTM plus early abort and pause-n-go. */
class EapgCoreTm : public WtmCoreTm
{
  public:
    EapgCoreTm(SimtCore &core_, std::shared_ptr<WtmShared> shared_)
        : WtmCoreTm(core_, std::move(shared_), WtmMode::LazyLazy),
          stEarlyAborts(core_.stats().addCounter("eapg_early_aborts")),
          stPauses(core_.stats().addCounter("eapg_pauses"))
    {
    }

    void onBroadcast(const MemMsg &msg) override;
    void ckptSave(ckpt::Writer &ar) override;
    void ckptLoad(ckpt::Reader &ar) override;

    /** Remote commits whose signature arrived but commit-done has not. */
    std::size_t liveRemoteWriteSets() const { return liveRemote; }

  protected:
    bool maybePause(Warp &warp) override;

  private:
    /** The write set of one remote commit currently in progress. */
    struct RemoteWriteSet
    {
        std::uint64_t txId = 0;
        std::vector<Addr> addrs; ///< Sorted, unique.
        AddrSignature sig;       ///< Of addrs; rebuilt on load.

        bool
        contains(Addr addr) const
        {
            return sig.mayContain(addr) &&
                   std::binary_search(addrs.begin(), addrs.end(), addr);
        }

        template <class Ar>
        void
        ckpt(Ar &ar)
        {
            ar(txId, addrs);
            if constexpr (!Ar::saving) {
                sig.clear();
                for (Addr addr : addrs)
                    sig.add(addr);
            }
        }
    };

    /** The live write set of @p tx_id, or null. */
    RemoteWriteSet *findRemote(std::uint64_t tx_id);

    /** True if any live remote write set holds @p addr. */
    bool remoteWrites(Addr addr) const;

    /** Recompute remoteSig from the live write sets. */
    void rebuildRemoteSignature();

    /**
     * Write sets of remote commits in progress: remote[0, liveRemote)
     * are live; the entries past them keep their address capacity for
     * reuse. Removal swaps with the last live entry, so order carries
     * no meaning.
     */
    std::vector<RemoteWriteSet> remote;
    std::size_t liveRemote = 0;
    /** OR of every live write set's signature. */
    AddrSignature remoteSig;

    /** Warp slots paused at their commit point. */
    std::vector<std::uint32_t> paused;

    // Hot-path stat handles: one add per early abort / pause.
    StatSet::Counter &stEarlyAborts;
    StatSet::Counter &stPauses;
};

} // namespace getm

#endif // GETM_EAPG_EAPG_HH
