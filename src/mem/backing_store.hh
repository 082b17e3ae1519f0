/**
 * @file
 * Functional model of the simulated global address space.
 *
 * Timing is modelled elsewhere (CacheModel / DramModel); this class only
 * holds data. Storage is paged so sparse address spaces stay cheap: a
 * two-level radix directory maps page numbers to zero-initialised
 * 64 KiB pages allocated on first touch. All workloads operate on
 * 32-bit words, which is also the granularity of value-based
 * validation in WarpTM.
 */

#ifndef GETM_MEM_BACKING_STORE_HH
#define GETM_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace getm {

/** Byte-addressed, word-accessed sparse memory. */
class BackingStore
{
  public:
    static constexpr unsigned wordBytes = 4;

    BackingStore() = default;
    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Read the 32-bit word at byte address @p addr (must be aligned). */
    std::uint32_t read(Addr addr) const;

    /** Write the 32-bit word at byte address @p addr (must be aligned). */
    void write(Addr addr, std::uint32_t value);

    /** Atomically compare-and-swap; returns the old value. */
    std::uint32_t atomicCas(Addr addr, std::uint32_t compare,
                            std::uint32_t swap);

    /** Atomically exchange; returns the old value. */
    std::uint32_t atomicExch(Addr addr, std::uint32_t value);

    /** Atomically add; returns the old value. */
    std::uint32_t atomicAdd(Addr addr, std::uint32_t value);

    /**
     * Bump-allocate a region of @p bytes, aligned to @p align.
     * Used by workloads to lay out their data structures.
     */
    Addr allocate(std::uint64_t bytes, std::uint64_t align = 128);

    /** Total bytes allocated so far. */
    std::uint64_t allocated() const { return allocTop - baseAddr; }

    /**
     * Checkpoint hook: the bump pointer plus *every* allocated page.
     * Allocation is monotonic (pages are never freed), so a snapshot's
     * page set always covers the set a freshly set-up store holds;
     * loading over a fresh store therefore rewrites every byte the
     * workload ever placed, and no stale setup data can survive under
     * a page the snapshot omitted.
     */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(allocTop);
        if constexpr (Ar::saving) {
            std::uint64_t npages = 0;
            forEachPage([&](std::uint64_t, Word *) { ++npages; });
            ar.raw(&npages, sizeof(npages));
            forEachPage([&](std::uint64_t index, Word *words) {
                ar.raw(&index, sizeof(index));
                ar.raw(words, pageBytes);
            });
        } else {
            std::uint64_t npages = 0;
            ar.raw(&npages, sizeof(npages));
            for (std::uint64_t p = 0; p < npages; ++p) {
                std::uint64_t index = 0;
                ar.raw(&index, sizeof(index));
                ar.raw(pageFor(index * pageBytes), pageBytes);
            }
        }
    }

  private:
    /** Visit every allocated page as (page index, word array). */
    template <class Fn>
    void
    forEachPage(Fn &&fn)
    {
        for (std::uint64_t i = 0; i < dirFanout; ++i) {
            if (!root[i])
                continue;
            for (std::uint64_t j = 0; j < dirFanout; ++j)
                if (Word *words = (*root[i])[j].get())
                    fn((i << dirBits) | j, words);
        }
    }

    static constexpr std::uint64_t pageBytes = 1ull << 16;
    static constexpr std::uint64_t wordsPerPage = pageBytes / wordBytes;
    /** Directory fan-out: 2048 x 2048 pages of 64 KiB = 256 GiB. */
    static constexpr unsigned dirBits = 11;
    static constexpr std::uint64_t dirFanout = 1ull << dirBits;

    using Word = std::uint32_t;
    /** One leaf directory: zero-initialised word arrays. */
    using Leaf = std::array<std::unique_ptr<Word[]>, dirFanout>;

    /** Find the page words for @p addr, allocating on first touch. */
    Word *pageFor(Addr addr);
    /** Find the page words for @p addr, or nullptr if never touched. */
    const Word *pageForConst(Addr addr) const;

    // Reserve page 0 so that address 0 is never handed out (null-like).
    static constexpr Addr baseAddr = pageBytes;
    Addr allocTop = baseAddr;

    /** Root directory; leaves and pages are allocated on demand. */
    std::array<std::unique_ptr<Leaf>, dirFanout> root;
};

} // namespace getm

#endif // GETM_MEM_BACKING_STORE_HH
