// ERA: 1
#include "hw/sim_clock.h"

#include <algorithm>
#include <utility>

namespace tock {

uint64_t SimClock::ScheduleAt(uint64_t at, EventFn fn) {
  uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next_free;
  }
  Slot& s = slots_[slot];
  ++s.generation;
  s.fn = std::move(fn);
  uint64_t due = std::max(at, now_);
  heap_.push_back(Entry{due, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  if (due < next_due_) {
    next_due_ = due;
  }
  return (static_cast<uint64_t>(s.generation) << 32) | slot;
}

bool SimClock::Cancel(uint64_t id) {
  uint64_t slot = id & 0xFFFFFFFFu;
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if ((generation & 1) == 0 || slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;  // fired, already cancelled, or never issued
  }
  Release(static_cast<uint32_t>(slot));
  PruneTop();
  return true;
}

void SimClock::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

void SimClock::PruneTop() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
  next_due_ = heap_.empty() ? UINT64_MAX : heap_.front().at;
}

void SimClock::AdvanceSlow(uint64_t target) {
  // The top is always live, so every entry popped here fires.
  while (!heap_.empty() && heap_.front().at <= target) {
    Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
    // Move the callback out before running it: it may schedule events, which can
    // reallocate slots_ or reuse this very slot.
    EventFn fn = std::move(slots_[top.slot].fn);
    Release(top.slot);
    PruneTop();
    now_ = top.at;  // events observe their own deadline as "now"
    fn();
  }
  now_ = target;
}

}  // namespace tock
