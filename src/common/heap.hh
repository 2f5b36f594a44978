/**
 * @file
 * A binary min-heap over one vector: the pending-event store of the
 * u-op units, the CTPGs and the digital outputs.
 *
 * It is std::priority_queue's algorithm (std::push_heap / pop_heap
 * under std::greater<>), so the pop order is the same; what differs
 * is clear(), which keeps the storage. A machine that is reset and
 * re-run with the same program therefore pushes and pops without
 * touching the heap allocator.
 */

#ifndef QUMA_COMMON_HEAP_HH
#define QUMA_COMMON_HEAP_HH

#include <algorithm>
#include <functional>
#include <vector>

namespace quma {

/** Min-heap of T ordered by T's operator>. */
template <typename T>
class MinHeap
{
  public:
    bool empty() const { return items.empty(); }
    std::size_t size() const { return items.size(); }

    /** The smallest element; the heap must not be empty. */
    const T &top() const { return items.front(); }

    void
    push(const T &item)
    {
        items.push_back(item);
        std::push_heap(items.begin(), items.end(), std::greater<>{});
    }

    /** Remove the smallest element; the heap must not be empty. */
    void
    pop()
    {
        std::pop_heap(items.begin(), items.end(), std::greater<>{});
        items.pop_back();
    }

    /** Drop every element, keeping the storage for reuse. */
    void clear() { items.clear(); }

  private:
    std::vector<T> items;
};

} // namespace quma

#endif // QUMA_COMMON_HEAP_HH
