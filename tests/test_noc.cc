/**
 * @file
 * Unit tests for src/noc: crossbar timing, ordering, and accounting.
 */

#include <gtest/gtest.h>

#include <array>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/serial.hh"
#include "noc/crossbar.hh"

namespace getm {
namespace {

CrossbarTiming::Config
config(Cycle latency = 5, unsigned flit = 32)
{
    CrossbarTiming::Config cfg;
    cfg.latency = latency;
    cfg.flitBytes = flit;
    return cfg;
}

TEST(CrossbarTiming, SingleFlitLatency)
{
    CrossbarTiming xbar("x", 2, 2, config());
    // 1 flit: inject at 10, head arrives at 15, ejection 1 cycle.
    EXPECT_EQ(xbar.route(0, 0, 8, 10), 16u);
}

TEST(CrossbarTiming, MultiFlitSerialization)
{
    CrossbarTiming xbar("x", 2, 2, config());
    // 96 bytes = 3 flits.
    EXPECT_EQ(xbar.route(0, 0, 96, 10), 18u);
}

TEST(CrossbarTiming, InjectionPortContention)
{
    CrossbarTiming xbar("x", 2, 2, config());
    const Cycle first = xbar.route(0, 0, 96, 0);  // occupies src 0..3
    const Cycle second = xbar.route(0, 1, 32, 0); // must wait for port
    EXPECT_EQ(first, 8u);
    EXPECT_EQ(second, 9u); // inject at 3, arrive 8, eject 9
}

TEST(CrossbarTiming, EjectionPortContention)
{
    CrossbarTiming xbar("x", 2, 2, config());
    const Cycle a = xbar.route(0, 0, 32, 0);
    const Cycle b = xbar.route(1, 0, 32, 0); // different src, same dst
    EXPECT_EQ(a, 6u);
    EXPECT_EQ(b, 7u); // serialized at the ejection port
}

TEST(CrossbarTiming, FlitAccounting)
{
    CrossbarTiming xbar("x", 2, 2, config());
    xbar.route(0, 0, 32, 0);
    xbar.route(0, 1, 33, 0); // 2 flits
    EXPECT_EQ(xbar.totalFlits(), 3u);
    EXPECT_EQ(xbar.stats().counter("messages"), 2u);
    EXPECT_EQ(xbar.stats().counter("bytes"), 65u);
}

TEST(Crossbar, DeliversInArrivalOrder)
{
    Crossbar<int> xbar("x", 2, 1, config());
    xbar.send(0, 0, 8, 0, 1);
    xbar.send(1, 0, 8, 0, 2);
    xbar.send(0, 0, 8, 1, 3);
    std::vector<int> order;
    for (Cycle now = 0; now < 40; ++now)
        while (xbar.hasReady(0, now))
            order.push_back(xbar.popReady(0));
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
}

TEST(Crossbar, SameSrcDstIsFifo)
{
    // Messages between the same (src, dst) pair must never reorder --
    // GETM relies on this for commit-log vs next-transaction ordering.
    Crossbar<int> xbar("x", 1, 1, config());
    for (int i = 0; i < 50; ++i)
        xbar.send(0, 0, 8 + (i % 3) * 40, i / 2, i);
    int expected = 0;
    for (Cycle now = 0; now < 1000; ++now)
        while (xbar.hasReady(0, now))
            EXPECT_EQ(xbar.popReady(0), expected++);
    EXPECT_EQ(expected, 50);
}

TEST(Crossbar, NextArrivalTracksEarliest)
{
    Crossbar<int> xbar("x", 2, 2, config());
    EXPECT_EQ(xbar.nextArrival(), ~static_cast<Cycle>(0));
    xbar.send(0, 1, 8, 10, 42);
    EXPECT_EQ(xbar.nextArrival(), 16u);
    EXPECT_TRUE(xbar.hasReady(1, 16));
    xbar.popReady(1);
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, SendLowersDestinationWake)
{
    // The cycle loop learns of arrivals from the wake list alone: each
    // send lowers its destination's entry to the arrival cycle and
    // never raises it.
    Crossbar<int> xbar("x", 2, 2, config());
    std::vector<Cycle> wake(2, 100);
    xbar.wakeInto(wake.data());
    EXPECT_EQ(xbar.headArrival(1), ~static_cast<Cycle>(0));
    xbar.send(0, 1, 8, 10, 1);
    EXPECT_EQ(wake[0], 100u);
    EXPECT_EQ(wake[1], 16u);
    EXPECT_EQ(xbar.headArrival(1), 16u);
    wake[1] = 12;
    xbar.send(1, 1, 8, 10, 2); // ejection port busy: arrives at 17
    EXPECT_EQ(wake[1], 12u);
    EXPECT_EQ(xbar.headArrival(1), 16u);
    xbar.popReady(1);
    EXPECT_EQ(xbar.headArrival(1), 17u);
    EXPECT_EQ(xbar.nextArrival(), 17u);
}

TEST(Crossbar, NotReadyBeforeArrival)
{
    Crossbar<int> xbar("x", 1, 1, config());
    xbar.send(0, 0, 8, 0, 7);
    EXPECT_FALSE(xbar.hasReady(0, 5));
    EXPECT_TRUE(xbar.hasReady(0, 6));
}

/** A reference inbox entry: (when, seq, payload), popped smallest first. */
using RefEntry = std::tuple<Cycle, std::uint64_t, int>;
using RefQueue = std::priority_queue<RefEntry, std::vector<RefEntry>,
                                     std::greater<RefEntry>>;

TEST(Crossbar, ManySourcesPopInWhenSeqOrder)
{
    // Eight sources with their own clocks and mixed sizes (0-byte
    // messages take no ejection cycles) feed one destination. The FIFO
    // inbox must pop exactly as a (when, seq) priority queue would.
    constexpr unsigned sources = 8;
    Crossbar<int> xbar("x", sources, 1, config());
    RefQueue reference;
    std::mt19937_64 rng(7);
    const std::array<unsigned, 6> sizes{0, 8, 12, 40, 96, 136};
    std::array<Cycle, sources> clock{};
    std::uint64_t seq = 0;
    int popped = 0;
    for (int i = 0; i < 4000; ++i) {
        const unsigned src = rng() % sources;
        clock[src] += rng() % 4;
        const unsigned bytes = sizes[rng() % sizes.size()];
        const Cycle when = xbar.send(src, 0, bytes, clock[src], i);
        reference.emplace(when, seq++, i);
        if (rng() % 8 != 0)
            continue;
        // Drain at a random source's clock, as a partition would.
        const Cycle now = clock[rng() % sources];
        while (xbar.hasReady(0, now)) {
            ASSERT_FALSE(reference.empty());
            EXPECT_LE(std::get<0>(reference.top()), now);
            EXPECT_EQ(xbar.popReady(0), std::get<2>(reference.top()));
            reference.pop();
            ++popped;
        }
        if (!reference.empty()) {
            EXPECT_GT(std::get<0>(reference.top()), now);
        }
    }
    while (!reference.empty()) {
        ASSERT_EQ(xbar.headArrival(0), std::get<0>(reference.top()));
        EXPECT_EQ(xbar.popReady(0), std::get<2>(reference.top()));
        reference.pop();
        ++popped;
    }
    EXPECT_EQ(popped, 4000);
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, CheckpointKeepsWrappedFifoOrder)
{
    // Wrap the ring (pops advance its head, later sends fill the front
    // slots), then save and reload mid-stream: both copies must drain
    // identically, and the reload must be byte-identical on re-save.
    Crossbar<int> xbar("x", 2, 1, config());
    for (int i = 0; i < 6; ++i)
        xbar.send(i % 2, 0, 8, 0, i);
    for (int i = 0; i < 5; ++i)
        xbar.popReady(0);
    for (int i = 6; i < 12; ++i)
        xbar.send(i % 2, 0, 40, 20, i);

    ckpt::Writer saver;
    xbar.ckpt(saver);
    const std::string bytes = saver.take();
    Crossbar<int> copy("x", 2, 1, config());
    ckpt::Reader loader(bytes.data(), bytes.size());
    copy.ckpt(loader);
    EXPECT_EQ(loader.remaining(), 0u);
    ckpt::Writer resaver;
    copy.ckpt(resaver);
    EXPECT_EQ(resaver.take(), bytes);

    EXPECT_EQ(copy.inFlight(), 7u);
    for (int expected = 5; expected < 12; ++expected) {
        ASSERT_EQ(copy.headArrival(0), xbar.headArrival(0));
        EXPECT_EQ(copy.popReady(0), expected);
        EXPECT_EQ(xbar.popReady(0), expected);
    }
    EXPECT_TRUE(copy.idle());
}

TEST(CrossbarDeath, PortOutOfRange)
{
    CrossbarTiming xbar("x", 2, 2, config());
    EXPECT_DEATH(xbar.route(2, 0, 8, 0), "port out of range");
    EXPECT_DEATH(xbar.route(0, 5, 8, 0), "port out of range");
}

} // namespace
} // namespace getm
