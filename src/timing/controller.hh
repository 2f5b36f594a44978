/**
 * @file
 * The timing control unit (paper §5.2).
 *
 * Splits the microarchitecture into a non-deterministic domain (the
 * pipeline filling the queues as fast as possible) and a
 * deterministic domain (this unit firing events at exact cycles).
 *
 * A timing queue buffers (interval, label) time points; event queues
 * buffer labelled events. A counter in the timing controller counts
 * cycles of the deterministic clock TD; when it reaches the front
 * interval the label is broadcast to every event queue, matching
 * events fire, and the counter restarts.
 *
 * Hazard accounting (exercised by failure-injection tests and the
 * scalability bench):
 *  - LATE TIME POINT: a Wait reached the unit after its due cycle
 *    had already passed (the upstream pipeline fell behind);
 *  - STALE EVENT: an event arrived after its label had already been
 *    broadcast, or was still queued when a later label fired.
 */

#ifndef QUMA_TIMING_CONTROLLER_HH
#define QUMA_TIMING_CONTROLLER_HH

#include <functional>
#include <optional>
#include <vector>

#include "timing/events.hh"
#include "timing/queues.hh"

namespace quma::timing {

/** Configuration of the timing control unit. */
struct TimingConfig
{
    std::size_t timingQueueCapacity = 64;
    std::size_t pulseQueueCapacity = 64;
    std::size_t mpgQueueCapacity = 32;
    std::size_t mdQueueCapacity = 32;
    /** One pulse queue per u-op unit (AWG). */
    unsigned numPulseQueues = 3;
    /** One MD queue per measurement discrimination unit. */
    unsigned numMdQueues = 1;

    bool operator==(const TimingConfig &) const = default;
};

/** Saturation counters of one bounded queue. */
struct QueueSaturation
{
    std::size_t pushFailed = 0;
    std::size_t highWater = 0;
    std::size_t capacity = 0;
    /** Stale payloads silently dropped by popMatching. */
    std::size_t staleDropped = 0;

    bool operator==(const QueueSaturation &) const = default;
};

/**
 * Saturation counters of every queue in the unit. A non-zero
 * pushFailed means the producer hit backpressure (the push is retried
 * by the pipeline, so no event is lost -- but a job scheduler
 * watching these knows the machine is running at queue capacity).
 */
struct TimingUnitStats
{
    QueueSaturation timing;
    QueueSaturation mpg;
    std::vector<QueueSaturation> pulse;
    std::vector<QueueSaturation> md;

    std::size_t
    totalPushFailed() const
    {
        std::size_t total = timing.pushFailed + mpg.pushFailed;
        for (const auto &s : pulse)
            total += s.pushFailed;
        for (const auto &s : md)
            total += s.pushFailed;
        return total;
    }

    std::size_t
    totalStaleDropped() const
    {
        std::size_t total = timing.staleDropped + mpg.staleDropped;
        for (const auto &s : pulse)
            total += s.staleDropped;
        for (const auto &s : md)
            total += s.staleDropped;
        return total;
    }

    bool operator==(const TimingUnitStats &) const = default;
};

/** Counters for the hazards described above. */
struct TimingViolations
{
    std::size_t latePoints = 0;
    std::size_t staleEvents = 0;
    /** Total lateness (cycles) accumulated by late points. */
    Cycle totalLateCycles = 0;

    bool clean() const { return latePoints == 0 && staleEvents == 0; }

    bool operator==(const TimingViolations &) const = default;
};

class TimingController
{
  public:
    using PulseSink =
        std::function<void(unsigned queue, Cycle td, const PulseEvent &)>;
    using MpgSink = std::function<void(Cycle td, const MpgEvent &)>;
    using MdSink =
        std::function<void(unsigned queue, Cycle td, const MdEvent &)>;

    explicit TimingController(TimingConfig config = {});

    const TimingConfig &config() const { return cfg; }

    void setPulseSink(PulseSink sink) { pulseSink = std::move(sink); }
    void setMpgSink(MpgSink sink) { mpgSink = std::move(sink); }
    void setMdSink(MdSink sink) { mdSink = std::move(sink); }

    /** Observer invoked for every label broadcast (tracing). */
    using FireObserver = std::function<void(Cycle, TimingLabel)>;
    void setFireObserver(FireObserver observer)
    {
        fireObserver = std::move(observer);
    }

    /**
     * Start the deterministic clock at the given cycle. Broadcasts
     * the implicit label 0 so events queued before the first Wait
     * fire at TD start.
     */
    void start(Cycle at);
    bool started() const { return isStarted; }

    /** Drop all queued state and return to the unstarted condition. */
    void reset();

    /** Push a time point; false when the timing queue is full. */
    bool pushTimePoint(Cycle interval, TimingLabel label);
    bool pushPulse(unsigned queue, const PulseEvent &event);
    bool pushMpg(const MpgEvent &event);
    bool pushMd(unsigned queue, const MdEvent &event);

    /**
     * Cycle at which the next time point is due, if any. A late
     * point reports the current lateness horizon (it fires as soon
     * as the machine advances).
     */
    std::optional<Cycle> nextDueCycle() const;

    /** Fire every time point due at or before `now`. */
    void advanceTo(Cycle now);

    const TimingViolations &violations() const { return viol; }
    /** Per-queue saturation counters since the last reset(). */
    TimingUnitStats queueStats() const;
    TimingLabel lastBroadcastLabel() const { return lastLabel; }
    /** Due cycle of the most recently fired time point. */
    Cycle lastFireCycle() const { return lastFire; }

    // Introspection for tests and the queue-state reproductions.
    std::vector<TimePoint> timingQueueSnapshot() const;
    std::vector<PulseEvent> pulseQueueSnapshot(unsigned queue) const;
    std::vector<MpgEvent> mpgQueueSnapshot() const;
    std::vector<MdEvent> mdQueueSnapshot(unsigned queue) const;
    bool timingQueueFull() const { return timingQueue.full(); }
    /** Entries a push could still fill (capacity minus size). */
    std::size_t pulseQueueFree(unsigned queue) const;
    bool mpgQueueFull() const { return mpgQueue.full(); }
    std::size_t mdQueueFree(unsigned queue) const;
    bool allQueuesEmpty() const;

  private:
    void fire(Cycle due, TimingLabel label);

    TimingConfig cfg;
    EventQueue<TimePoint> timingQueue;
    std::vector<EventQueue<PulseEvent>> pulseQueues;
    EventQueue<MpgEvent> mpgQueue;
    std::vector<EventQueue<MdEvent>> mdQueues;

    PulseSink pulseSink;
    MpgSink mpgSink;
    MdSink mdSink;
    FireObserver fireObserver;

    bool isStarted = false;
    Cycle lastFire = 0;
    /** Due cycle of the latest pushed time point (chained). */
    Cycle tailDue = 0;
    TimingLabel lastLabel = 0;
    Cycle nowCycle = 0;
    TimingViolations viol;

    /** fire()'s per-queue scratch: the events matching the label. */
    std::vector<PulseEvent> firedPulses;
    std::vector<MpgEvent> firedMpgs;
    std::vector<MdEvent> firedMds;
};

} // namespace quma::timing

#endif // QUMA_TIMING_CONTROLLER_HH
