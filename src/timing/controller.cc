#include "timing/controller.hh"

#include "common/logging.hh"

namespace quma::timing {

TimingController::TimingController(TimingConfig config)
    : cfg(config), timingQueue(config.timingQueueCapacity),
      mpgQueue(config.mpgQueueCapacity)
{
    if (cfg.numPulseQueues == 0 || cfg.numMdQueues == 0)
        fatal("TimingController needs at least one pulse and MD queue");
    for (unsigned i = 0; i < cfg.numPulseQueues; ++i)
        pulseQueues.emplace_back(cfg.pulseQueueCapacity);
    for (unsigned i = 0; i < cfg.numMdQueues; ++i)
        mdQueues.emplace_back(cfg.mdQueueCapacity);
}

void
TimingController::reset()
{
    timingQueue.clear();
    timingQueue.clearStats();
    for (auto &q : pulseQueues) {
        q.clear();
        q.clearStats();
    }
    mpgQueue.clear();
    mpgQueue.clearStats();
    for (auto &q : mdQueues) {
        q.clear();
        q.clearStats();
    }
    isStarted = false;
    lastFire = 0;
    tailDue = 0;
    lastLabel = 0;
    nowCycle = 0;
    viol = TimingViolations{};
}

void
TimingController::start(Cycle at)
{
    quma_assert(!isStarted, "timing controller started twice");
    if (timingQueue.empty()) {
        tailDue = at;
    } else {
        // Time points pushed before start computed their due cycles
        // relative to 0; starting anywhere else would invalidate
        // the chained lateness accounting.
        quma_assert(at == 0,
                    "a pre-filled timing queue requires TD start at 0");
    }
    isStarted = true;
    nowCycle = at;
    lastFire = at;
    fire(at, 0);
}

bool
TimingController::pushTimePoint(Cycle interval, TimingLabel label)
{
    quma_assert(interval > 0, "time point needs a positive interval");
    TimePoint tp{interval, label};
    // A full queue rejects the push and counts it (backpressure is
    // the saturation signal the job scheduler watches).
    if (!timingQueue.push(tp))
        return false;
    Cycle due = tailDue + interval;
    if (isStarted && due < nowCycle) {
        ++viol.latePoints;
        viol.totalLateCycles += nowCycle - due;
    }
    tailDue = due;
    return true;
}

bool
TimingController::pushPulse(unsigned queue, const PulseEvent &event)
{
    quma_assert(queue < pulseQueues.size(), "pulse queue out of range");
    if (isStarted && event.label <= lastLabel) {
        ++viol.staleEvents;
        return true; // consumed (dropped): its time point already fired
    }
    return pulseQueues[queue].push(event);
}

bool
TimingController::pushMpg(const MpgEvent &event)
{
    if (isStarted && event.label <= lastLabel) {
        ++viol.staleEvents;
        return true;
    }
    return mpgQueue.push(event);
}

bool
TimingController::pushMd(unsigned queue, const MdEvent &event)
{
    quma_assert(queue < mdQueues.size(), "MD queue out of range");
    if (isStarted && event.label <= lastLabel) {
        ++viol.staleEvents;
        return true;
    }
    return mdQueues[queue].push(event);
}

std::optional<Cycle>
TimingController::nextDueCycle() const
{
    if (!isStarted || timingQueue.empty())
        return std::nullopt;
    Cycle due = lastFire + timingQueue.front().interval;
    return due;
}

void
TimingController::advanceTo(Cycle now)
{
    quma_assert(now >= nowCycle, "TD moved backwards");
    nowCycle = now;
    while (isStarted && !timingQueue.empty()) {
        Cycle due = lastFire + timingQueue.front().interval;
        if (due > now)
            break;
        TimingLabel label = timingQueue.front().label;
        // Remove before firing so snapshots inside sinks see the
        // post-fire state (paper Tables 2-4 convention).
        timingQueue.pop();
        quma_assert(timingQueue.empty() ||
                        timingQueue.front().label != label,
                    "timing queue labels must be unique and ordered");
        fire(due, label);
    }
}

void
TimingController::fire(Cycle due, TimingLabel label)
{
    lastFire = due;
    lastLabel = label;
    if (fireObserver)
        fireObserver(due, label);

    // Every queue is popped before its sinks run, into scratch
    // vectors whose capacity is kept from fire to fire.
    std::size_t stale = 0;
    for (unsigned qi = 0; qi < pulseQueues.size(); ++qi) {
        firedPulses.clear();
        pulseQueues[qi].popMatching(label, firedPulses, stale);
        for (const auto &ev : firedPulses)
            if (pulseSink)
                pulseSink(qi, due, ev);
    }
    firedMpgs.clear();
    mpgQueue.popMatching(label, firedMpgs, stale);
    for (const auto &ev : firedMpgs)
        if (mpgSink)
            mpgSink(due, ev);
    for (unsigned qi = 0; qi < mdQueues.size(); ++qi) {
        firedMds.clear();
        mdQueues[qi].popMatching(label, firedMds, stale);
        for (const auto &ev : firedMds)
            if (mdSink)
                mdSink(qi, due, ev);
    }
    viol.staleEvents += stale;
}

namespace {

template <typename T>
QueueSaturation
saturationOf(const EventQueue<T> &q)
{
    return {q.pushFailed(), q.highWaterMark(), q.capacity(),
            q.staleDropped()};
}

} // namespace

TimingUnitStats
TimingController::queueStats() const
{
    TimingUnitStats stats;
    stats.timing = saturationOf(timingQueue);
    stats.mpg = saturationOf(mpgQueue);
    for (const auto &q : pulseQueues)
        stats.pulse.push_back(saturationOf(q));
    for (const auto &q : mdQueues)
        stats.md.push_back(saturationOf(q));
    return stats;
}

std::vector<TimePoint>
TimingController::timingQueueSnapshot() const
{
    return timingQueue.snapshot();
}

std::vector<PulseEvent>
TimingController::pulseQueueSnapshot(unsigned queue) const
{
    quma_assert(queue < pulseQueues.size(), "pulse queue out of range");
    return pulseQueues[queue].snapshot();
}

std::vector<MpgEvent>
TimingController::mpgQueueSnapshot() const
{
    return mpgQueue.snapshot();
}

std::vector<MdEvent>
TimingController::mdQueueSnapshot(unsigned queue) const
{
    quma_assert(queue < mdQueues.size(), "MD queue out of range");
    return mdQueues[queue].snapshot();
}

std::size_t
TimingController::pulseQueueFree(unsigned queue) const
{
    quma_assert(queue < pulseQueues.size(), "pulse queue out of range");
    const auto &q = pulseQueues[queue];
    return q.capacity() - q.size();
}

std::size_t
TimingController::mdQueueFree(unsigned queue) const
{
    quma_assert(queue < mdQueues.size(), "MD queue out of range");
    const auto &q = mdQueues[queue];
    return q.capacity() - q.size();
}

bool
TimingController::allQueuesEmpty() const
{
    if (!timingQueue.empty() || !mpgQueue.empty())
        return false;
    for (const auto &q : pulseQueues)
        if (!q.empty())
            return false;
    for (const auto &q : mdQueues)
        if (!q.empty())
            return false;
    return true;
}

} // namespace quma::timing
