/**
 * @file
 * A bounded FIFO over one contiguous array: the storage behind the
 * quantum microinstruction buffer and the timing control unit's event
 * queues.
 *
 * Storage grows by doubling up to the capacity the first time the
 * occupancy needs it and is kept across clear(), so a machine that is
 * reset and re-run with the same program pushes and pops without
 * touching the heap. Growing lazily keeps a large configured capacity
 * from costing memory it never uses.
 */

#ifndef QUMA_COMMON_RING_HH
#define QUMA_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace quma {

template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : cap(capacity)
    {
        quma_assert(capacity > 0, "ring capacity must be positive");
    }

    std::size_t capacity() const { return cap; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }

    /** Append at the back; the ring must not be full. */
    void
    push_back(const T &value)
    {
        quma_assert(count < cap, "push_back on a full ring");
        if (count == slots.size())
            grow();
        slots[wrap(head + count)] = value;
        ++count;
    }

    /** Oldest element; the ring must not be empty. */
    const T &
    front() const
    {
        quma_assert(count > 0, "front() on an empty ring");
        return slots[head];
    }

    void
    pop_front()
    {
        quma_assert(count > 0, "pop_front() on an empty ring");
        head = wrap(head + 1);
        --count;
    }

    /** The i-th element counted from the front. */
    const T &
    operator[](std::size_t i) const
    {
        quma_assert(i < count, "ring index out of range");
        return slots[wrap(head + i)];
    }

    /** Drop every element; the storage is kept for reuse. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** Fold an index in [0, 2 * storage) back into the storage. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots.size() ? i - slots.size() : i;
    }

    /** Double the storage (at most to the capacity), front first. */
    void
    grow()
    {
        std::vector<T> bigger(
            std::min(cap, std::max<std::size_t>(8, 2 * slots.size())));
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = (*this)[i];
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace quma

#endif // QUMA_COMMON_RING_HH
