/**
 * @file
 * SlotPool: a component's in-flight entries, named by 32-bit slots.
 *
 * A device accepts a request once, moves it into a slot, and from then
 * on its queues hold the slot and its events capture `{this, slot}`,
 * which fits an event's inline capture buffer. Nothing is copied or
 * spilled to a heap cell while the request waits, however many queues
 * and pipeline stages it passes.
 *
 * Slots live in a deque, so taking a slot never moves the others: a
 * reference into the pool stays valid while a callback run from it
 * re-enters the owner and takes another slot. Freed slots go onto a
 * free list and are reused last-in first-out, so the pool stays as
 * large as the most entries ever in flight at once. A pool belongs to
 * one component and is touched only from that component's event queue.
 */

#ifndef CXLMEMO_SIM_SLOT_POOL_HH
#define CXLMEMO_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace cxlmemo
{

template <typename T>
class SlotPool
{
  public:
    /** Move @p value into a free slot; @return the slot. */
    std::uint32_t
    alloc(T &&value)
    {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            slots_[slot] = std::move(value);
            return slot;
        }
        slots_.push_back(std::move(value));
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    T &operator[](std::uint32_t slot) { return slots_[slot]; }
    const T &operator[](std::uint32_t slot) const { return slots_[slot]; }

    /** Return @p slot to the free list. Its value stays, moved-from or
     *  spent, until alloc() reuses the slot. */
    void free(std::uint32_t slot) { free_.push_back(slot); }

    /** Slots taken and not yet freed. */
    std::size_t inUse() const { return slots_.size() - free_.size(); }

  private:
    std::deque<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_SLOT_POOL_HH
