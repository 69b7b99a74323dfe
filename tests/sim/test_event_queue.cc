/**
 * @file
 * sim::EventQueue: min-heap ordering over TimeNs, FIFO tie-breaking
 * (the determinism contract the engine's arrival queue leans on),
 * storage reuse and the empty-queue panics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "test_util.hh"

namespace vattn::sim
{
namespace
{

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue<int> queue;
    queue.push(30, 3);
    queue.push(10, 1);
    queue.push(20, 2);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.nextTimeNs(), TimeNs{10});
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), 3);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameInstantPopsInPushOrder)
{
    // The FIFO tie-break is what makes the engine's arrival admission
    // reproduce the historical stable_sort: same-instant events leave
    // in exactly the order they were scheduled.
    EventQueue<int> queue;
    for (int i = 0; i < 32; ++i) {
        queue.push(100, i);
    }
    queue.push(50, -1);
    EXPECT_EQ(queue.pop(), -1);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(queue.pop(), i);
    }
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrdering)
{
    EventQueue<u64> queue;
    Rng rng(99);
    // Steady-state churn: push a batch, pop the earliest half, repeat.
    // Every popped timestamp must be non-decreasing once the queue has
    // seen everything earlier (we track the floor explicitly).
    std::vector<TimeNs> popped;
    TimeNs floor = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i) {
            // New events never predate what already left the queue
            // (time only moves forward for producers too).
            const TimeNs t =
                floor + static_cast<TimeNs>(rng.uniformInt(0, 1000));
            queue.push(t, t);
        }
        for (int i = 0; i < 4 && !queue.empty(); ++i) {
            const TimeNs t = queue.nextTimeNs();
            EXPECT_EQ(queue.pop(), t);
            popped.push_back(t);
            floor = t;
        }
    }
    while (!queue.empty()) {
        popped.push_back(queue.pop());
    }
    for (std::size_t i = 1; i < popped.size(); ++i) {
        EXPECT_LE(popped[i - 1], popped[i]);
    }
}

TEST(EventQueueTest, PeekDoesNotRemove)
{
    EventQueue<std::string> queue;
    queue.push(7, "first");
    queue.push(9, "second");
    EXPECT_EQ(queue.peek(), "first");
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop(), "first");
    EXPECT_EQ(queue.peek(), "second");
}

TEST(EventQueueTest, ClearEmptiesAndResetsTieBreaks)
{
    EventQueue<int> queue;
    queue.push(5, 1);
    queue.push(5, 2);
    queue.clear();
    EXPECT_TRUE(queue.empty());
    // Tie-break sequence restarts: push order still rules.
    queue.push(5, 10);
    queue.push(5, 11);
    EXPECT_EQ(queue.pop(), 10);
    EXPECT_EQ(queue.pop(), 11);
}

TEST(EventQueueTest, MovableOnlyPayload)
{
    EventQueue<std::unique_ptr<int>> queue;
    queue.push(2, std::make_unique<int>(2));
    queue.push(1, std::make_unique<int>(1));
    EXPECT_EQ(*queue.pop(), 1);
    EXPECT_EQ(*queue.pop(), 2);
}

TEST(EventQueueTest, NoEventSentinelSortsAfterEverything)
{
    EXPECT_GT(kNoEventNs, TimeNs{0});
    // Any real timestamp the simulation can produce sorts before it.
    EXPECT_LT(static_cast<TimeNs>(1) << 60, kNoEventNs);
}

TEST(EventQueueTest, EmptyAccessPanics)
{
    test::ScopedThrowErrors throw_errors;
    EventQueue<int> queue;
    EXPECT_THROW((void)queue.nextTimeNs(), SimError);
    EXPECT_THROW((void)queue.peek(), SimError);
    EXPECT_THROW((void)queue.pop(), SimError);
}

} // namespace
} // namespace vattn::sim
