#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace scoop::sim {

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNilSlot) {
    uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  SCOOP_CHECK_LT(slots_.size(), static_cast<size_t>(kNilSlot));
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(uint32_t index) {
  Slot& s = slots_[index];
  s.key = 0;
  s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = index;
}

EventId EventQueue::ScheduleAt(SimTime at, Callback fn) {
  SCOOP_CHECK_GE(at, now_);
  SCOOP_CHECK(fn != nullptr);
  uint32_t index = AcquireSlot();
  // 2^40 schedules per queue; a run that long would take years of CPU.
  SCOOP_CHECK_LT(next_seq_ + 1, uint64_t{1} << (64 - kSlotBits));
  uint64_t key = (++next_seq_ << kSlotBits) | index;
  Slot& s = slots_[index];
  s.key = key;
  s.fn = std::move(fn);
  HeapEntry entry{at, key};
  if (wheel_.TryPush(at, entry)) {
    ++absorbed_;
  } else {
    ++spilled_;
    heap_.push_back(entry);
    SiftUp(heap_.size() - 1);
  }
  ++live_;
  return key;
}

void EventQueue::Cancel(EventId id) {
  // Reject kInvalidEventId explicitly: a free slot's key is 0, so id 0
  // would otherwise match it and double-release the slot.
  if (id == kInvalidEventId) return;
  uint32_t index = static_cast<uint32_t>(id & kSlotMask);
  if (index >= slots_.size()) return;
  if (slots_[index].key != id) return;  // Already ran, cancelled, or reused.
  ReleaseSlot(index);
  --live_;
  ++stale_;  // Its tier entry stays behind until skimmed or compacted.
  MaybeCompact();
}

void EventQueue::SiftUp(size_t pos) {
  HeapEntry e = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void EventQueue::SiftDown(size_t pos) {
  HeapEntry e = heap_[pos];
  const size_t n = heap_.size();
  HeapEntry* h = heap_.data();
  for (;;) {
    size_t child = (pos << 2) + 1;
    size_t best;
    if (child + 3 < n) {
      // Full node: tournament-select the earliest of the four children
      // (two independent compares, then one) instead of a serial chain.
      size_t lo = child + (Earlier(h[child + 1], h[child]) ? 1 : 0);
      size_t hi = child + (Earlier(h[child + 3], h[child + 2]) ? 3 : 2);
      best = Earlier(h[hi], h[lo]) ? hi : lo;
    } else if (child < n) {
      best = child;
      for (size_t c = child + 1; c < n; ++c) {
        if (Earlier(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    if (!Earlier(h[best], e)) break;
    h[pos] = h[best];
    pos = best;
  }
  h[pos] = e;
}

void EventQueue::PopTop() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    SiftDown(0);
  }
}

void EventQueue::SkimStale() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopTop();
    --stale_;
  }
}

const EventQueue::HeapEntry* EventQueue::PeekHead(bool* from_wheel) {
  SkimStale();
  const HeapEntry* w = wheel_.PeekEarliest();
  const HeapEntry* h = heap_.empty() ? nullptr : &heap_.front();
  // Both tiers merge through the full comparator, so cross-tier ties in
  // time resolve by schedule sequence exactly as the heap alone would.
  if (w != nullptr && h != nullptr) {
    if (Earlier(*h, *w)) {
      w = nullptr;
    } else {
      h = nullptr;
    }
  }
  *from_wheel = w != nullptr;
  return w != nullptr ? w : h;
}

bool EventQueue::RunNext(SimTime limit) {
  bool from_wheel = false;
  const HeapEntry* head = PeekHead(&from_wheel);
  if (head == nullptr || head->at > limit) return false;
  HeapEntry top = *head;
  if (from_wheel) {
    wheel_.PopEarliest();
  } else {
    PopTop();
  }
  SCOOP_CHECK_GE(top.at, now_);
  // Release the slot before invoking, so the callback can schedule into it;
  // the fresh key a reuse gets keeps the old id stale.
  uint32_t index = static_cast<uint32_t>(top.key & kSlotMask);
  Callback fn = std::move(slots_[index].fn);
  ReleaseSlot(index);
  --live_;
  now_ = top.at;
  wheel_.AdvanceTo(now_);
  ++processed_;
  if (profiler_ != nullptr) {
    obs::SimProfiler::Bucket prev =
        profiler_->Switch(obs::SimProfiler::kAgent);
    fn();
    profiler_->Switch(prev);
  } else {
    fn();
  }
  return true;
}

bool EventQueue::RunOne() { return RunNext(kSimTimeHorizon); }

void EventQueue::RunUntil(SimTime end) {
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kQueue);
  while (RunNext(end)) {
  }
  SCOOP_CHECK_GE(end, now_);
  now_ = end;
  wheel_.AdvanceTo(now_);
}

void EventQueue::Compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return !IsLive(e); }),
              heap_.end());
  // Floyd heapify: sift down every internal node, deepest first.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  wheel_.CompactStale();
  stale_ = 0;
}

}  // namespace scoop::sim
