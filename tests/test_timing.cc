/**
 * @file
 * Unit tests for queue-based event timing control (paper §5.2):
 * exact label fire times, the implicit start label, hazard counting,
 * and the queue-state snapshots of paper Tables 2-4.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "timing/controller.hh"

namespace quma::timing {
namespace {

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, FifoAndCapacity)
{
    EventQueue<PulseEvent> q(2);
    EXPECT_TRUE(q.push({1, 0x1, 0}));
    EXPECT_TRUE(q.push({2, 0x1, 1}));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push({3, 0x1, 2}));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().label, 1u);
}

TEST(EventQueue, SaturationCounters)
{
    EventQueue<PulseEvent> q(2);
    EXPECT_EQ(q.pushFailed(), 0u);
    EXPECT_EQ(q.highWaterMark(), 0u);
    q.push({1, 0x1, 0});
    EXPECT_EQ(q.highWaterMark(), 1u);
    q.push({2, 0x1, 1});
    EXPECT_EQ(q.highWaterMark(), 2u);
    EXPECT_FALSE(q.push({3, 0x1, 2}));
    EXPECT_FALSE(q.push({4, 0x1, 3}));
    EXPECT_EQ(q.pushFailed(), 2u);

    // Draining does not lower the high-water mark...
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(1, fired, stale);
    EXPECT_EQ(q.highWaterMark(), 2u);
    // ...and clearStats zeroes both without touching the contents.
    q.clearStats();
    EXPECT_EQ(q.pushFailed(), 0u);
    EXPECT_EQ(q.highWaterMark(), 0u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(TimingControllerStats, QueueStatsReportSaturation)
{
    TimingConfig cfg;
    cfg.pulseQueueCapacity = 2;
    cfg.numPulseQueues = 1;
    TimingController tcu(cfg);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 1});
    EXPECT_FALSE(tcu.pushPulse(0, {3, 0x1, 2}));

    TimingUnitStats stats = tcu.queueStats();
    ASSERT_EQ(stats.pulse.size(), 1u);
    EXPECT_EQ(stats.pulse[0].pushFailed, 1u);
    EXPECT_EQ(stats.pulse[0].highWater, 2u);
    EXPECT_EQ(stats.pulse[0].capacity, 2u);
    EXPECT_EQ(stats.totalPushFailed(), 1u);

    // reset() rewinds the counters with everything else.
    tcu.reset();
    EXPECT_EQ(tcu.queueStats().totalPushFailed(), 0u);
    EXPECT_EQ(tcu.queueStats().pulse[0].highWater, 0u);
}

TEST(EventQueue, PopMatchingTakesAllFrontMatches)
{
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({1, 0x2, 1});
    q.push({2, 0x1, 2});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(1, fired, stale);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopMatchingDropsStale)
{
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({3, 0x1, 1});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(3, fired, stale);
    EXPECT_EQ(stale, 1u);
    EXPECT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].label, 3u);
    // The drop is also counted on the queue itself, so stats paths
    // that never see the out-param still observe it.
    EXPECT_EQ(q.staleDropped(), 1u);
    q.clearStats();
    EXPECT_EQ(q.staleDropped(), 0u);
}

TEST(EventQueue, PopMatchingDropsAWholeStaleRunAtOnce)
{
    // Three orphans for labels that already passed, then the live
    // run, then a future event: one pop clears the orphans, takes
    // the full matching run, and leaves the future event queued.
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({2, 0x1, 1});
    q.push({2, 0x2, 2});
    q.push({5, 0x1, 3});
    q.push({5, 0x2, 4});
    q.push({9, 0x1, 5});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(5, fired, stale);
    EXPECT_EQ(stale, 3u);
    EXPECT_EQ(q.staleDropped(), 3u);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].label, 5u);
    EXPECT_EQ(fired[1].label, 5u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().label, 9u);
}

TEST(EventQueue, PopMatchingLeavesFutureEventsUntouched)
{
    // Nothing matches and nothing is stale: the pop must be a
    // complete no-op -- no fires, no drops, contents intact.
    EventQueue<PulseEvent> q(8);
    q.push({7, 0x1, 0});
    q.push({8, 0x1, 1});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(3, fired, stale);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(q.staleDropped(), 0u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().label, 7u);
}

TEST(EventQueue, PopMatchingOnlyDropsStaleAheadOfTheMatch)
{
    // An out-of-order laggard BEHIND the matching run is not touched
    // by this pop -- stale dropping only clears the front run -- but
    // the NEXT pop retires it, and the counters accumulate across
    // both calls into the same out-param.
    EventQueue<PulseEvent> q(8);
    q.push({5, 0x1, 0});
    q.push({3, 0x1, 1}); // out of order: still behind label 5
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(5, fired, stale);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].label, 5u);
    EXPECT_EQ(stale, 0u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().label, 3u);

    q.popMatching(6, fired, stale);
    EXPECT_EQ(fired.size(), 1u); // nothing new fired
    EXPECT_EQ(stale, 1u);        // ...but the laggard was retired
    EXPECT_EQ(q.staleDropped(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleDropCounterAccumulatesAcrossPops)
{
    EventQueue<PulseEvent> q(8);
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    for (TimingLabel label : {1u, 2u, 3u, 4u}) {
        q.push({label, 0x1, 0});
        q.popMatching(label + 1, fired, stale);
    }
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(stale, 4u);
    EXPECT_EQ(q.staleDropped(), 4u);
    // clearStats() resets the counter, not the queue's behaviour.
    q.clearStats();
    q.push({1, 0x1, 0});
    q.popMatching(2, fired, stale);
    EXPECT_EQ(q.staleDropped(), 1u);
}

TEST(TimingControllerStats, QueueStatsReportStaleDrops)
{
    // A queued pulse for label 1, but no time point ever broadcasts
    // label 1: when label 2 fires, popMatching drops the orphan as
    // stale, and that drop must surface in the queue stats.
    TimingController tcu;
    tcu.start(0);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.pushTimePoint(10, 2);
    tcu.advanceTo(10);
    TimingUnitStats stats = tcu.queueStats();
    EXPECT_EQ(stats.totalStaleDropped(), 1u);
    EXPECT_EQ(stats.pulse[0].staleDropped, 1u);
    tcu.reset();
    EXPECT_EQ(tcu.queueStats().totalStaleDropped(), 0u);
}

// --------------------------------------------------------------- controller

struct FireLog
{
    std::vector<std::pair<Cycle, PulseEvent>> pulses;
    std::vector<std::pair<Cycle, MpgEvent>> mpgs;
    std::vector<std::pair<Cycle, MdEvent>> mds;

    void
    attach(TimingController &tcu)
    {
        tcu.setPulseSink([this](unsigned, Cycle td,
                                const PulseEvent &ev) {
            pulses.emplace_back(td, ev);
        });
        tcu.setMpgSink([this](Cycle td, const MpgEvent &ev) {
            mpgs.emplace_back(td, ev);
        });
        tcu.setMdSink([this](unsigned, Cycle td, const MdEvent &ev) {
            mds.emplace_back(td, ev);
        });
    }
};

TEST(TimingController, FiresAtExactCumulativeCycles)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);

    tcu.start(0);
    // Paper Figure 5 round 0: intervals 40000, 4, 4.
    tcu.pushTimePoint(40000, 1);
    tcu.pushTimePoint(4, 2);
    tcu.pushTimePoint(4, 3);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.pushMpg({3, 0x1, 300});
    tcu.pushMd(0, {3, 0x1, 7});

    tcu.advanceTo(39999);
    EXPECT_TRUE(log.pulses.empty());
    tcu.advanceTo(40000);
    ASSERT_EQ(log.pulses.size(), 1u);
    EXPECT_EQ(log.pulses[0].first, 40000u);
    tcu.advanceTo(40008);
    ASSERT_EQ(log.pulses.size(), 2u);
    EXPECT_EQ(log.pulses[1].first, 40004u);
    ASSERT_EQ(log.mpgs.size(), 1u);
    EXPECT_EQ(log.mpgs[0].first, 40008u);
    ASSERT_EQ(log.mds.size(), 1u);
    EXPECT_EQ(log.mds[0].first, 40008u);
    EXPECT_TRUE(tcu.violations().clean());
}

TEST(TimingController, ImplicitLabelZeroFiresAtStart)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.pushPulse(0, {0, 0x1, 5});
    tcu.start(100);
    ASSERT_EQ(log.pulses.size(), 1u);
    EXPECT_EQ(log.pulses[0].first, 100u);
    EXPECT_EQ(tcu.lastBroadcastLabel(), 0u);
}

TEST(TimingController, MultipleEventsSameLabel)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.pushTimePoint(10, 1);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {1, 0x2, 4});
    tcu.pushPulse(1, {1, 0x4, 5});
    tcu.advanceTo(10);
    EXPECT_EQ(log.pulses.size(), 3u);
}

TEST(TimingController, LatePointCountsViolation)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.advanceTo(100);
    // A wait of 30 cycles arriving when TD is already at 100: due at
    // 30, i.e. 70 cycles late.
    tcu.pushTimePoint(30, 1);
    EXPECT_EQ(tcu.violations().latePoints, 1u);
    EXPECT_EQ(tcu.violations().totalLateCycles, 70u);
    tcu.advanceTo(101);
    EXPECT_EQ(tcu.lastBroadcastLabel(), 1u);
}

TEST(TimingController, StaleEventCountsViolation)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.pushTimePoint(10, 1);
    tcu.advanceTo(10); // label 1 fired with no event waiting
    tcu.pushPulse(0, {1, 0x1, 0});
    EXPECT_EQ(tcu.violations().staleEvents, 1u);
    // The stale event was dropped, not queued.
    EXPECT_TRUE(tcu.pulseQueueSnapshot(0).empty());
}

TEST(TimingController, ChainedIntervalsAreRelative)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(50);
    tcu.pushTimePoint(10, 1);
    tcu.pushTimePoint(20, 2);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.advanceTo(200);
    ASSERT_EQ(log.pulses.size(), 2u);
    EXPECT_EQ(log.pulses[0].first, 60u);
    EXPECT_EQ(log.pulses[1].first, 80u);
}

TEST(TimingController, QueueFullBackpressure)
{
    TimingConfig cfg;
    cfg.timingQueueCapacity = 2;
    TimingController tcu(cfg);
    tcu.start(0);
    EXPECT_TRUE(tcu.pushTimePoint(5, 1));
    EXPECT_TRUE(tcu.pushTimePoint(5, 2));
    EXPECT_TRUE(tcu.timingQueueFull());
    EXPECT_FALSE(tcu.pushTimePoint(5, 3));
    tcu.advanceTo(5);
    EXPECT_FALSE(tcu.timingQueueFull());
    EXPECT_TRUE(tcu.pushTimePoint(5, 3));
}

/**
 * Reproduce paper Tables 2-4: the queue contents of the AllXY
 * experiment before TD starts and after the first fires. Events are
 * pushed exactly as the QMB would for rounds 0 and 1.
 */
class AllxyQueueStateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        log.attach(tcu);
        // Round 0: Wait 40000; Pulse I; Wait 4; Pulse I; Wait 4;
        //          MPG 300; MD r7.
        tcu.pushTimePoint(40000, 1);
        tcu.pushPulse(0, {1, 0x1, 0});
        tcu.pushTimePoint(4, 2);
        tcu.pushPulse(0, {2, 0x1, 0});
        tcu.pushTimePoint(4, 3);
        tcu.pushMpg({3, 0x1, 300});
        tcu.pushMd(0, {3, 0x1, 7});
        // Round 1: same with X180 (uop 1).
        tcu.pushTimePoint(40000, 4);
        tcu.pushPulse(0, {4, 0x1, 1});
        tcu.pushTimePoint(4, 5);
        tcu.pushPulse(0, {5, 0x1, 1});
        tcu.pushTimePoint(4, 6);
        tcu.pushMpg({6, 0x1, 300});
        tcu.pushMd(0, {6, 0x1, 7});
    }

    TimingController tcu;
    FireLog log;
};

TEST_F(AllxyQueueStateTest, Table2StateBeforeStart)
{
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 6u);
    EXPECT_EQ(timing[0], (TimePoint{40000, 1}));
    EXPECT_EQ(timing[1], (TimePoint{4, 2}));
    EXPECT_EQ(timing[2], (TimePoint{4, 3}));
    EXPECT_EQ(timing[3], (TimePoint{40000, 4}));
    EXPECT_EQ(timing[4], (TimePoint{4, 5}));
    EXPECT_EQ(timing[5], (TimePoint{4, 6}));

    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 4u);
    EXPECT_EQ(pulses[0], (PulseEvent{1, 0x1, 0})); // (I, 1)
    EXPECT_EQ(pulses[1], (PulseEvent{2, 0x1, 0})); // (I, 2)
    EXPECT_EQ(pulses[2], (PulseEvent{4, 0x1, 1})); // (Xpi, 4)
    EXPECT_EQ(pulses[3], (PulseEvent{5, 0x1, 1})); // (Xpi, 5)

    auto mpgs = tcu.mpgQueueSnapshot();
    ASSERT_EQ(mpgs.size(), 2u);
    EXPECT_EQ(mpgs[0].label, 3u);
    EXPECT_EQ(mpgs[1].label, 6u);

    auto mds = tcu.mdQueueSnapshot(0);
    ASSERT_EQ(mds.size(), 2u);
    EXPECT_EQ(mds[0].label, 3u);
    EXPECT_EQ(mds[0].destReg, 7);
    EXPECT_EQ(mds[1].label, 6u);
}

TEST_F(AllxyQueueStateTest, Table3StateAtTd40000)
{
    tcu.start(0);
    tcu.advanceTo(40000);
    // The first I fired; timing queue front is now (4, 2).
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 5u);
    EXPECT_EQ(timing[0], (TimePoint{4, 2}));
    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 3u);
    EXPECT_EQ(pulses[0], (PulseEvent{2, 0x1, 0}));
    // MPG/MD untouched.
    EXPECT_EQ(tcu.mpgQueueSnapshot().size(), 2u);
    EXPECT_EQ(tcu.mdQueueSnapshot(0).size(), 2u);
}

TEST_F(AllxyQueueStateTest, Table4StateAtTd40008)
{
    tcu.start(0);
    tcu.advanceTo(40008);
    // Labels 1-3 fired: both I pulses, the first MPG and MD.
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 3u);
    EXPECT_EQ(timing[0], (TimePoint{40000, 4}));
    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_EQ(pulses[0], (PulseEvent{4, 0x1, 1}));
    EXPECT_EQ(tcu.mpgQueueSnapshot().size(), 1u);
    EXPECT_EQ(tcu.mpgQueueSnapshot()[0].label, 6u);
    EXPECT_EQ(tcu.mdQueueSnapshot(0).size(), 1u);
    EXPECT_TRUE(tcu.violations().clean());
}

TEST_F(AllxyQueueStateTest, FullDrainLeavesQueuesEmpty)
{
    tcu.start(0);
    tcu.advanceTo(80016);
    EXPECT_TRUE(tcu.allQueuesEmpty());
    EXPECT_EQ(log.pulses.size(), 4u);
    EXPECT_EQ(log.mpgs.size(), 2u);
    EXPECT_EQ(log.mds.size(), 2u);
    // Paper Table 5 fire times.
    EXPECT_EQ(log.pulses[2].first, 80008u);
    EXPECT_EQ(log.pulses[3].first, 80012u);
    EXPECT_EQ(log.mpgs[1].first, 80016u);
}

} // namespace
} // namespace quma::timing
