/**
 * @file
 * Unit and property tests for the GETM metadata storage (cuckoo table +
 * stash + overflow + recency Bloom filter; paper Fig. 8) and the stall
 * buffer (Fig. 9).
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/rng.hh"
#include "core/metadata_table.hh"
#include "core/stall_buffer.hh"

namespace getm {
namespace {

MetadataTable::Config
smallConfig(unsigned entries = 64)
{
    MetadataTable::Config cfg;
    cfg.preciseEntries = entries;
    cfg.stashEntries = 4;
    cfg.bloomEntries = 32;
    return cfg;
}

TEST(RecencyBloom, EmptyReturnsZero)
{
    RecencyBloom bloom(16, 1);
    const auto [wts, rts] = bloom.lookup(0x1234);
    EXPECT_EQ(wts, 0u);
    EXPECT_EQ(rts, 0u);
}

TEST(RecencyBloom, LookupAfterInsertReturnsAtLeastInserted)
{
    RecencyBloom bloom(16, 2);
    bloom.insert(0x100, 7, 9);
    const auto [wts, rts] = bloom.lookup(0x100);
    EXPECT_GE(wts, 7u);
    EXPECT_GE(rts, 9u);
}

TEST(RecencyBloom, NeverUnderestimates)
{
    // Property: for any insertion history, lookup(key) >= the maximum
    // timestamps ever inserted for that key (collisions may only raise
    // the answer). This is what makes eviction to the Bloom filter safe.
    RecencyBloom bloom(8, 3); // tiny: force collisions
    Rng rng(42);
    std::map<Addr, std::pair<LogicalTs, LogicalTs>> truth;
    for (int i = 0; i < 2000; ++i) {
        const Addr key = rng.below(64) * 32;
        const LogicalTs wts = rng.below(1000);
        const LogicalTs rts = rng.below(1000);
        bloom.insert(key, wts, rts);
        auto &entry = truth[key];
        entry.first = std::max(entry.first, wts);
        entry.second = std::max(entry.second, rts);
    }
    for (const auto &[key, expect] : truth) {
        const auto [wts, rts] = bloom.lookup(key);
        EXPECT_GE(wts, expect.first);
        EXPECT_GE(rts, expect.second);
    }
}

TEST(RecencyBloom, FlushResets)
{
    RecencyBloom bloom(16, 4);
    bloom.insert(0x100, 100, 100);
    bloom.flush();
    const auto [wts, rts] = bloom.lookup(0x100);
    EXPECT_EQ(wts, 0u);
    EXPECT_EQ(rts, 0u);
}

TEST(MetadataTable, MissMaterializesFreshEntry)
{
    MetadataTable table("t", smallConfig());
    const MetaAccess access = table.access(0x100);
    ASSERT_NE(access.entry, nullptr);
    EXPECT_EQ(access.entry->key, 0x100u);
    EXPECT_EQ(access.entry->wts, 0u);
    EXPECT_FALSE(access.entry->locked());
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(MetadataTable, HitReturnsSameEntry)
{
    MetadataTable table("t", smallConfig());
    table.access(0x100).entry->wts = 42;
    const MetaAccess again = table.access(0x100);
    EXPECT_EQ(again.entry->wts, 42u);
    EXPECT_EQ(again.cycles, 1u);
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(MetadataTable, EvictionPreservesOverestimate)
{
    // Fill far beyond capacity with unlocked entries carrying known
    // timestamps; any re-materialized entry must not have lower values.
    MetadataTable table("t", smallConfig(16));
    for (Addr key = 0; key < 200; ++key) {
        MetaAccess access = table.access(key * 32);
        access.entry->wts = 500 + key;
        access.entry->rts = 300 + key;
        table.noteTimestamp(access.entry->wts);
    }
    for (Addr key = 0; key < 200; ++key) {
        const MetaAccess access = table.access(key * 32);
        EXPECT_GE(access.entry->wts, 500 + key) << key;
        EXPECT_GE(access.entry->rts, 300 + key) << key;
    }
}

TEST(MetadataTable, LockedEntriesAreNeverLost)
{
    // Lock a set of entries, then hammer the table with other keys; the
    // locked entries must stay precise (findable with exact metadata).
    MetadataTable table("t", smallConfig(32));
    for (Addr key = 0; key < 24; ++key) {
        MetaAccess access = table.access(0x10000 + key * 32);
        access.entry->numWrites = 1;
        access.entry->owner = static_cast<GlobalWarpId>(key);
        access.entry->wts = 1000 + key;
    }
    for (Addr key = 0; key < 500; ++key)
        table.access(key * 32);
    for (Addr key = 0; key < 24; ++key) {
        TxMetadata *entry = table.findPrecise(0x10000 + key * 32);
        ASSERT_NE(entry, nullptr) << key;
        EXPECT_EQ(entry->owner, key);
        EXPECT_EQ(entry->wts, 1000 + key);
    }
}

TEST(MetadataTable, OverflowAbsorbsBeyondCapacity)
{
    // With every entry locked, the structure must still hold them all
    // (cuckoo + stash + unbounded overflow).
    MetadataTable table("t", smallConfig(16));
    const unsigned n = 64;
    for (Addr key = 0; key < n; ++key) {
        MetaAccess access = table.access(key * 32);
        access.entry->numWrites = 1;
        access.entry->owner = 7;
    }
    EXPECT_EQ(table.occupancy(), n);
    EXPECT_EQ(table.lockedCount(), n);
    for (Addr key = 0; key < n; ++key)
        EXPECT_NE(table.findPrecise(key * 32), nullptr);
}

TEST(MetadataTable, AccessCyclesGrowUnderPressure)
{
    MetadataTable table("t", smallConfig(16));
    for (Addr key = 0; key < 64; ++key) {
        MetaAccess access = table.access(key * 32);
        access.entry->numWrites = 1;
    }
    // At least some accesses took more than a single cycle (displacement
    // walks / overflow)...
    EXPECT_GT(table.stats().mean("access_cycles"), 1.0);
}

TEST(MetadataTable, NoteTimestampTracksMax)
{
    MetadataTable table("t", smallConfig());
    table.noteTimestamp(5);
    table.noteTimestamp(3);
    EXPECT_EQ(table.maxTimestamp(), 5u);
}

TEST(MetadataTable, FlushClearsEverythingWhenUnlocked)
{
    MetadataTable table("t", smallConfig());
    for (Addr key = 0; key < 40; ++key)
        table.access(key * 32);
    table.noteTimestamp(99);
    table.flush();
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_EQ(table.maxTimestamp(), 0u);
    // And the Bloom filter was reset too: fresh entries start at zero.
    EXPECT_EQ(table.access(0x100).entry->wts, 0u);
}

TEST(MetadataTableDeath, FlushWithLockedEntryPanics)
{
    MetadataTable table("t", smallConfig());
    table.access(0x100).entry->numWrites = 1;
    EXPECT_DEATH(table.flush(), "locked");
}

// ---- stall buffer --------------------------------------------------------

MemMsg
request(LogicalTs ts)
{
    MemMsg msg;
    msg.ts = ts;
    return msg;
}

TEST(StallBuffer, PopReturnsMinimumWarpts)
{
    StallBuffer buffer("s", {4, 4});
    buffer.enqueue(0x100, request(30));
    buffer.enqueue(0x100, request(10));
    buffer.enqueue(0x100, request(20));
    EXPECT_EQ(buffer.popOldest(0x100).ts, 10u);
    EXPECT_EQ(buffer.popOldest(0x100).ts, 20u);
    EXPECT_EQ(buffer.popOldest(0x100).ts, 30u);
    EXPECT_FALSE(buffer.hasWaiters(0x100));
}

TEST(StallBuffer, RejectsWhenLineFull)
{
    StallBuffer buffer("s", {4, 2});
    EXPECT_TRUE(buffer.enqueue(0x100, request(1)));
    EXPECT_TRUE(buffer.enqueue(0x100, request(2)));
    EXPECT_FALSE(buffer.enqueue(0x100, request(3)));
}

TEST(StallBuffer, RejectedEnqueueLeavesMessageIntact)
{
    StallBuffer buffer("s", {1, 1});
    EXPECT_TRUE(buffer.enqueue(0x100, request(1)));
    MemMsg msg = request(2);
    msg.wid = 5;
    msg.ops = {LaneOp{3, 0x108, 42, 1}, LaneOp{7, 0x10c, 43, 0}};
    EXPECT_FALSE(buffer.enqueue(0x100, std::move(msg)));
    // A rejected request is not moved from (the contract under test).
    EXPECT_EQ(msg.wid, 5u);
    EXPECT_EQ(msg.ts, 2u);
    ASSERT_EQ(msg.ops.size(), 2u);
    EXPECT_EQ(msg.ops[0].addr, 0x108u);
    EXPECT_EQ(msg.ops[1].value, 43u);
    EXPECT_EQ(buffer.occupancy(), 1u);
}

TEST(StallBuffer, RejectsWhenAllLinesBusy)
{
    StallBuffer buffer("s", {2, 4});
    EXPECT_TRUE(buffer.enqueue(0x100, request(1)));
    EXPECT_TRUE(buffer.enqueue(0x200, request(1)));
    EXPECT_FALSE(buffer.enqueue(0x300, request(1)));
    // Draining a line frees it for another address.
    buffer.popOldest(0x100);
    EXPECT_TRUE(buffer.enqueue(0x300, request(1)));
}

TEST(StallBuffer, OccupancyAndWaiters)
{
    StallBuffer buffer("s", {4, 4});
    buffer.enqueue(0x100, request(1));
    buffer.enqueue(0x100, request(2));
    buffer.enqueue(0x200, request(3));
    EXPECT_EQ(buffer.occupancy(), 3u);
    EXPECT_EQ(buffer.waitersOn(0x100), 2u);
    EXPECT_EQ(buffer.waitersOn(0x200), 1u);
    EXPECT_EQ(buffer.waitersOn(0x300), 0u);
}

TEST(StallBuffer, TrackerFollowsGlobalOccupancy)
{
    StallOccupancyTracker tracker;
    StallBuffer a("a", {4, 4});
    StallBuffer b("b", {4, 4});
    a.setTracker(&tracker);
    b.setTracker(&tracker);
    a.enqueue(0x100, request(1));
    b.enqueue(0x200, request(2));
    b.enqueue(0x200, request(3));
    EXPECT_EQ(tracker.current, 3u);
    EXPECT_EQ(tracker.peak, 3u);
    a.popOldest(0x100);
    b.flush();
    EXPECT_EQ(tracker.current, 0u);
    EXPECT_EQ(tracker.peak, 3u);
}

} // namespace
} // namespace getm
