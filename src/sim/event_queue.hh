/**
 * @file
 * Discrete-event scaffolding over the virtual TimeNs timeline: a
 * deterministic binary min-heap of timestamped events. The engine
 * schedules request arrivals on it, so an idle engine jumps straight
 * to its next arrival instead of stepping through empty time.
 *
 * Determinism contract: events pop in non-decreasing time order, and
 * events carrying the same timestamp pop in push (FIFO) order. That
 * makes every consumer reproducible: the engine admits same-instant
 * arrivals in submission order.
 */

#ifndef VATTN_SIM_EVENT_QUEUE_HH
#define VATTN_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace vattn::sim
{

/** No pending event (sorts after every real timestamp). */
inline constexpr TimeNs kNoEventNs = ~TimeNs{0} >> 1;

/**
 * Min-heap of (time, payload) events with FIFO tie-breaking.
 *
 * Payload is any movable type (the engine uses Request*). Pop
 * returns the payload only; peek exposes the timestamp. The heap
 * storage is reused across push/pop cycles, so a steady-state
 * push-one-pop-one consumer performs no allocations.
 */
template <typename Payload>
class EventQueue
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    void reserve(std::size_t n) { heap_.reserve(n); }

    /** Schedule @p payload to fire at @p time_ns. */
    void
    push(TimeNs time_ns, Payload payload)
    {
        heap_.push_back(Event{time_ns, next_seq_++,
                              std::move(payload)});
        std::push_heap(heap_.begin(), heap_.end(), After{});
    }

    /** Timestamp of the earliest pending event. */
    TimeNs
    nextTimeNs() const
    {
        panic_if(heap_.empty(), "EventQueue::nextTimeNs on empty queue");
        return heap_.front().time_ns;
    }

    /** Payload of the earliest pending event (not removed). */
    const Payload &
    peek() const
    {
        panic_if(heap_.empty(), "EventQueue::peek on empty queue");
        return heap_.front().payload;
    }

    /** Remove and return the earliest event's payload. */
    Payload
    pop()
    {
        panic_if(heap_.empty(), "EventQueue::pop on empty queue");
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        Payload payload = std::move(heap_.back().payload);
        heap_.pop_back();
        return payload;
    }

    /** Drop every pending event (storage is kept for reuse). */
    void
    clear()
    {
        heap_.clear();
        next_seq_ = 0;
    }

  private:
    struct Event
    {
        TimeNs time_ns = 0;
        u64 seq = 0; ///< push order, breaks same-instant ties FIFO
        Payload payload;
    };

    /** Heap comparator: `a` fires after `b` (max-heap order flipped
     *  into a min-heap by std::push_heap/pop_heap). */
    struct After
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time_ns != b.time_ns) {
                return a.time_ns > b.time_ns;
            }
            return a.seq > b.seq;
        }
    };

    std::vector<Event> heap_;
    u64 next_seq_ = 0;
};

} // namespace vattn::sim

#endif // VATTN_SIM_EVENT_QUEUE_HH
