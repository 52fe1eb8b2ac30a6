// Deterministic discrete-event scheduler: the heart of the simulator.
//
// Two-tier hot-path design. Schedules land in one of two structures:
//
//   wheel  a two-level hierarchical timer wheel (sim/timer_wheel.h) for
//          everything within ~1.05 s of now: O(1) bucket append per
//          schedule. L0 holds one bucket per exact microsecond of the
//          current 1024 us frame; L1 holds one bucket per future frame.
//          This tier absorbs the MAC backoff/retry and Trickle timer
//          churn that dominates large-grid profiles -- near-future,
//          usually cancelled before it fires.
//   heap   a 4-ary implicit min-heap of 16-byte entries (half the levels
//          of a binary heap, cache-line-friendly sift paths) for the
//          far-future spill: sample/summary/remap timers, query driver
//          ticks. Always correct for any timestamp; the wheel is purely
//          an optimization in front of it.
//
// Running an event pops the Earlier()-minimum of the two tier heads, so
// execution order is identical to the heap-only order -- see the ordering
// invariant below and the determinism argument in timer_wheel.h; the
// randomized differential test replays schedule/cancel streams against an
// in-test reference ordering on (time, schedule sequence).
//
// Callbacks live in a slab of reusable slots addressed by index, so
// schedule/cancel/run perform no per-event heap allocation (the seed paid
// an unordered_map node per event plus std::function boxing; see
// common/small_callback.h for the callback side). An EventId packs the
// slot index (low 24 bits) with a monotonic schedule sequence number
// (high 40 bits); the same value is the tie-breaker and the staleness
// check, so handles of events that already ran, were cancelled, or whose
// slot was reused are rejected with one compare and no lookup table --
// and cancellation is O(1) no matter which tier holds the entry: the
// entry goes stale in place. Stale entries are dropped lazily at each
// tier's head and compacted away in bulk (both tiers) once they outnumber
// live ones, keeping total occupancy bounded under the cancel/reschedule
// churn of Trickle timers and radio timeouts.
#ifndef SCOOP_SIM_EVENT_QUEUE_H_
#define SCOOP_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/small_callback.h"
#include "obs/profiler.h"
#include "sim/timer_wheel.h"

namespace scoop::sim {

/// "No more events / no constraint" sentinel time.
inline constexpr SimTime kSimTimeHorizon = std::numeric_limits<SimTime>::max();

/// Handle for a scheduled event, usable with Cancel(). Packs the schedule
/// sequence number (high 40 bits) over the slab slot index (low 24 bits).
using EventId = uint64_t;

/// Sentinel for "no event". Sequence numbers start at 1, so no id is 0.
inline constexpr EventId kInvalidEventId = 0;

/// Min-heap of timed callbacks. Ties in time are broken by scheduling order,
/// making runs bit-reproducible.
///
/// ORDERING INVARIANT (load-bearing; regression-tested): events with equal
/// timestamps run strictly in the order they were scheduled -- FIFO by
/// (time, schedule sequence). This covers zero-delay events too: a handler
/// that schedules at the current time runs that event after every
/// already-queued event at the same instant, never before, and never
/// starves later-scheduled peers. Cancel/re-schedule assigns a fresh
/// sequence number, moving the event to the back of its timestamp class.
/// Protocol code (Trickle suppression windows, MAC backoff expiry, ack
/// timeouts) and the sharded engine's K=1 reference both lean on this;
/// changing the tie-break silently changes every golden. The invariant
/// holds identically across both tiers: a wheel bucket is one exact
/// timestamp kept in sequence order, and the cross-tier merge compares
/// (time, sequence) directly.
class EventQueue {
 public:
  using Callback = SmallCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `at` (>= now). Returns a handle.
  EventId ScheduleAt(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void Cancel(EventId id);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// True iff no events are pending.
  bool empty() const { return live_ == 0; }

  /// Number of pending (scheduled and not cancelled) events.
  size_t size() const { return live_; }

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool RunOne();

  /// Runs every event with time <= `end`, then advances the clock to `end`.
  void RunUntil(SimTime end);

  /// Total number of events executed so far (for tests and benchmarks).
  size_t processed() const { return processed_; }

  /// Entries currently held across BOTH tiers (wheel buckets + heap),
  /// including cancelled entries not yet skimmed or compacted away.
  /// Compaction keeps this O(size()); exposed so tests can assert
  /// occupancy stays bounded under cancel-heavy workloads.
  size_t heap_size() const { return heap_.size() + wheel_.entries(); }

  /// Per-tier occupancy (entries incl. stale), for the obs gauges.
  size_t wheel_l0_size() const { return wheel_.l0_entries(); }
  size_t wheel_l1_size() const { return wheel_.l1_entries(); }
  size_t heap_tier_size() const { return heap_.size(); }

  /// Schedules absorbed by the wheel / spilled to the heap since
  /// construction. Observation-only, always on; the absorb rate is the
  /// wheel's effectiveness measure the bench tooling reports.
  uint64_t wheel_absorbed() const { return absorbed_; }
  uint64_t wheel_spilled() const { return spilled_; }

  /// Optional wall-clock profiler (obs layer; null = off, the default).
  /// When set, run-loop/heap work is attributed to the kQueue bucket and
  /// callback dispatch to kAgent (callees re-attribute themselves, e.g.
  /// the radio switches to kRadio on entry). Pure observation: profiling
  /// never changes event order or simulation results.
  void set_profiler(obs::SimProfiler* profiler) { profiler_ = profiler; }

 private:
  friend class TimerWheel<EventQueue>;

  /// Low bits of an id/key addressing the slab slot.
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kNilSlot = kSlotMask;

  struct HeapEntry {
    SimTime at;
    /// (seq << kSlotBits) | slot: unique per schedule, monotonic in
    /// scheduling order (seq occupies the high bits), doubles as EventId.
    uint64_t key;
  };

  struct Slot {
    Callback fn;
    uint64_t key = 0;  ///< Id of the armed event, 0 while free.
    uint32_t next_free = kNilSlot;
  };

  /// Total order: true iff `a` fires before `b`. Shared by the heap, the
  /// wheel's bucket sort, and the cross-tier head merge.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  /// True iff the entry's event is still armed (not run/cancelled/reused).
  bool IsLive(const HeapEntry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }

  // TimerWheel host hooks (see timer_wheel.h).
  using WheelEntry = HeapEntry;
  static SimTime WheelTime(const HeapEntry& e) { return e.at; }
  static bool WheelEarlier(const HeapEntry& a, const HeapEntry& b) {
    return Earlier(a, b);
  }
  bool WheelLive(const HeapEntry& e) const { return IsLive(e); }
  void WheelStaleDropped(size_t n) { stale_ -= n; }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);

  // 4-ary implicit heap over heap_.
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Removes the heap top (which must exist).
  void PopTop();
  /// Drops cancelled entries off the heap top.
  void SkimStale();
  /// Earliest pending entry across both tiers (after skimming), or null.
  /// `*from_wheel` says which tier holds it; the pointer is valid until
  /// the next mutation.
  const HeapEntry* PeekHead(bool* from_wheel);
  /// Runs the head if its time is <= limit; returns whether it did.
  bool RunNext(SimTime limit);
  void MaybeCompact() {
    // Amortized O(1) per cancel: rebuild only once stale entries outnumber
    // live ones (and are numerous enough to make the rebuild worthwhile).
    if (stale_ >= 64 && stale_ * 2 > heap_size()) Compact();
  }
  /// Rebuilds both tiers from live entries only.
  void Compact();

  std::vector<HeapEntry> heap_;
  TimerWheel<EventQueue> wheel_{this};
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilSlot;
  size_t live_ = 0;    ///< Armed slots.
  size_t stale_ = 0;   ///< Cancelled entries still held in either tier.
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  size_t processed_ = 0;
  uint64_t absorbed_ = 0;
  uint64_t spilled_ = 0;
  obs::SimProfiler* profiler_ = nullptr;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_EVENT_QUEUE_H_
