// ERA: 1
// Deterministic simulation clock. All time in the system is cycles of this clock;
// there is no host wall-clock anywhere, so every run is bit-for-bit reproducible.
#ifndef TOCK_HW_SIM_CLOCK_H_
#define TOCK_HW_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace tock {

// An event-driven clock: hardware models schedule completion callbacks at absolute
// cycle times; advancing the clock fires due events in (time, insertion) order.
//
// Callbacks live in a slot pool and never move while the heap is reordered; the
// heap holds small POD entries naming a slot and the slot generation they were
// issued under. An event id encodes the same (slot, generation) pair, so Cancel
// is O(1): it frees the slot, which turns the entry dead, and pops dead entries
// off the top so the top is always live and `next_due_` is exact. Timers are
// cancelled and re-armed constantly (SysTick every timeslice, the virtual-alarm
// mux on every reprogram), so cancellation is a hot path, not a rare one.
//
// The simulator host-allocates freely (it stands in for physical silicon); the
// *kernel's* heapless discipline is unaffected.
class SimClock {
 public:
  using EventFn = std::function<void()>;

  uint64_t Now() const { return now_; }

  // Schedules `fn` to run when the clock reaches `at` (or immediately upon the next
  // advance if `at` is in the past). Returns a nonzero id usable with Cancel.
  uint64_t ScheduleAt(uint64_t at, EventFn fn);

  // Schedules `fn` to run `delay` cycles from now.
  uint64_t ScheduleAfter(uint64_t delay, EventFn fn) { return ScheduleAt(now_ + delay, std::move(fn)); }

  // Cancels a scheduled event. Returns false if it already fired, was already
  // cancelled, or never existed.
  bool Cancel(uint64_t id);

  // Advances the clock by `cycles`, firing every event whose deadline is reached, in
  // deadline order. Events scheduled by fired events within the window also fire.
  //
  // The common case by far is the kernel ticking one cycle per VM instruction with
  // no event due; `next_due_` caches the earliest pending deadline so that case is a
  // single compare instead of a heap inspection (hot-path work — see DESIGN.md
  // "Hot-path architecture"; simulated time is unaffected).
  void Advance(uint64_t cycles) {
    uint64_t target = now_ + cycles;
    if (target < next_due_) {
      now_ = target;
      return;
    }
    AdvanceSlow(target);
  }

  // Cycle time of the earliest pending event, or UINT64_MAX when none.
  uint64_t NextEventAt() const { return next_due_; }

  // The heap top is always live, so a non-empty heap means a pending event.
  bool HasPendingEvents() const { return !heap_.empty(); }

 private:
  // Heap entry: ordered by (at, seq); seq breaks ties FIFO among same-cycle events.
  // Live while slots_[slot].generation still equals `generation`.
  struct Entry {
    uint64_t at;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  struct Slot {
    EventFn fn;
    // Bumped on every schedule and every release: odd while the slot holds a
    // pending event, even while it is free. Ids carry the odd value, so an id
    // is never 0 and never names a free slot.
    uint32_t generation = 0;
    uint32_t next_free = kNoSlot;  // free-list link while the slot is unused
  };

  static bool Later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  bool IsLive(const Entry& e) const { return slots_[e.slot].generation == e.generation; }
  // Frees a slot: its callback is dropped, its id and heap entry turn dead.
  void Release(uint32_t slot);
  // Pops dead entries off the top and recomputes next_due_ from the live top.
  void PruneTop();
  void AdvanceSlow(uint64_t target);

  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  // Deadline of the earliest pending event — exact, since the heap top is always
  // live. UINT64_MAX when nothing is pending.
  uint64_t next_due_ = UINT64_MAX;
  std::vector<Entry> heap_;  // min-heap under Later; may hold dead entries below the top
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;  // first unused slot; chained through Slot::next_free
};

}  // namespace tock

#endif  // TOCK_HW_SIM_CLOCK_H_
