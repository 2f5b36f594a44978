/**
 * @file
 * Bounded FIFO event queues used by the timing control unit.
 */

#ifndef QUMA_TIMING_QUEUES_HH
#define QUMA_TIMING_QUEUES_HH

#include <vector>

#include "common/ring.hh"
#include "common/types.hh"

namespace quma::timing {

/**
 * A bounded FIFO of labelled events, held in a ring of its capacity.
 * The stored type T must expose a `label` member.
 */
template <typename T>
class EventQueue
{
  public:
    explicit EventQueue(std::size_t capacity = 64) : q(capacity) {}

    std::size_t capacity() const { return q.capacity(); }
    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    bool full() const { return q.full(); }

    /** Rejected pushes since the last clearStats() (backpressure). */
    std::size_t pushFailed() const { return pushFailedCount; }
    /** Deepest occupancy reached since the last clearStats(). */
    std::size_t highWaterMark() const { return highWater; }
    /** Stale front entries dropped by popMatching since clearStats():
     *  payloads silently discarded because their time point already
     *  passed -- a saturation signal just like pushFailed. */
    std::size_t staleDropped() const { return staleDroppedCount; }

    /** Enqueue; returns false (and drops nothing) when full. */
    bool
    push(const T &event)
    {
        if (full()) {
            ++pushFailedCount;
            return false;
        }
        q.push_back(event);
        if (q.size() > highWater)
            highWater = q.size();
        return true;
    }

    /** Front element; queue must not be empty. */
    const T &front() const { return q.front(); }

    /** Drop the front entry; queue must not be empty. */
    void pop() { q.pop_front(); }

    /**
     * Pop every front entry whose label matches `label` into `fired`.
     * Front entries with a SMALLER label are stale (their time point
     * already passed): they are dropped and counted in `stale`.
     */
    void
    popMatching(TimingLabel label, std::vector<T> &fired,
                std::size_t &stale)
    {
        while (!q.empty() && q.front().label < label) {
            q.pop_front();
            ++stale;
            ++staleDroppedCount;
        }
        while (!q.empty() && q.front().label == label) {
            fired.push_back(q.front());
            q.pop_front();
        }
    }

    /** Snapshot of the queue contents, front first. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(q.size());
        for (std::size_t i = 0; i < q.size(); ++i)
            out.push_back(q[i]);
        return out;
    }

    void clear() { q.clear(); }

    /** Zero the saturation counters (queue contents untouched). */
    void
    clearStats()
    {
        pushFailedCount = 0;
        highWater = 0;
        staleDroppedCount = 0;
    }

  private:
    RingBuffer<T> q;
    std::size_t pushFailedCount = 0;
    std::size_t highWater = 0;
    std::size_t staleDroppedCount = 0;
};

} // namespace quma::timing

#endif // QUMA_TIMING_QUEUES_HH
