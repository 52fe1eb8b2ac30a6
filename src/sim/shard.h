// Per-shard building blocks for the conservative parallel discrete-event
// engine (sharded_engine.h): a deterministically-ordered event queue and a
// shard-local radio/MAC whose randomness is keyed, not stream-shared.
//
// Why a second queue type: EventQueue breaks timestamp ties by scheduling
// order, which is only meaningful inside ONE queue. Sharded runs split the
// event population across K queues, so "schedule order" differs per K and
// cannot order same-time events consistently. ShardQueue instead orders
// every event by a canonical key that depends only on simulation content:
//
//   (time, phase, origin, counter)
//
//   phase 0  reception evaluations, keyed (sender, tx generation)
//   phase 1  sender transmit completions, keyed (sender, tx generation)
//   phase 2  everything else (app timers, CSMA sensing, boots, failures,
//            the query driver), keyed (origin node, per-origin counter)
//
// Same-time events at DIFFERENT origins never influence each other within
// one instant (all cross-node influence flows through transmissions, and
// the channel predicates are strict: a span starting at t is invisible to
// queries at t), so ordering them by (phase, origin, counter) is both
// deterministic and identical to any K-way partition of the same run:
// each shard executes the subsequence it owns in the same relative order.
// Phase 0 before phase 1 at equal times lets two shards whose
// transmissions end at the same instant each evaluate the other's frame
// before waiting on its ACK verdict.
//
// ShardRadio re-implements the CSMA MAC in that keyed world. It differs
// from the sequential Radio in two deliberate, K-invariant ways: every
// fresh channel acquisition is a *scheduled* carrier-sense event at least
// backoff_min in the future (this is the engine's cross-shard lookahead
// floor: a frame heard about "now" cannot hit the air sooner), and all
// random draws (backoff, per-link loss, ACK) are keyed on stable
// identities (node, transmission generation, receiver) instead of pulled
// from one shared stream whose consumption order would depend on K. Its
// reception side is shared with Radio: the same CollisionKernel
// (sim/collision.h) judges collisions, and the same DuplicateFilter
// (sim/duplicate_filter.h) flags link-layer retransmissions -- one filter
// for the whole engine, each slot written only by the shard that owns the
// link's receiver, so the flag is K-invariant by construction.
#ifndef SCOOP_SIM_SHARD_H_
#define SCOOP_SIM_SHARD_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/node_bitmap.h"
#include "common/rng.h"
#include "common/small_callback.h"
#include "fault/link_fault.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/collision.h"
#include "sim/duplicate_filter.h"
#include "sim/event_queue.h"
#include "sim/radio.h"
#include "sim/radio_options.h"
#include "sim/timer_wheel.h"
#include "sim/topology.h"

namespace scoop::sim {

// kSimTimeHorizon lives in sim/event_queue.h (both queue types use it).

/// Deterministically-ordered event queue for one shard. Orders events by
/// the canonical (time, phase, origin, counter) key documented above, so
/// any K-way partition of one simulation executes each shard's events in
/// the same relative order. Cancellation reuses the EventQueue discipline:
/// slab slots, EventId = (seq << 24) | slot doubling as staleness check,
/// lazy skimming plus bulk compaction of cancelled entries. Like
/// EventQueue, near-future events sit in a timer wheel in front of the
/// spill heap (sim/timer_wheel.h); wheel buckets are sorted by the
/// canonical key when they come due, so the two-tier order equals the
/// heap-only order and any K stays bit-identical to K=1.
class ShardQueue {
 public:
  using Callback = SmallCallback;

  /// `num_origins` bounds the phase-2 origin space: node ids plus any
  /// pseudo-origins (driver, failure injector) the caller packs above them.
  explicit ShardQueue(uint32_t num_origins);

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Phase 0: evaluation of (sender, gen)'s transmission at its end time.
  EventId ScheduleEval(SimTime at, NodeId sender, uint32_t gen, Callback fn) {
    return ScheduleInternal(at, MakeOrd(0, sender, gen), sender, gen, std::move(fn));
  }

  /// Phase 1: (sender, gen)'s transmit completion at its end time. The
  /// sender/gen pair is retained so the run loop can ask the radio whether
  /// the head completion is still waiting on a remote ACK verdict.
  EventId ScheduleFinish(SimTime at, NodeId sender, uint32_t gen, Callback fn) {
    return ScheduleInternal(at, MakeOrd(1, sender, gen), sender, gen, std::move(fn));
  }

  /// Phase 2: a regular event (timer, carrier sense, boot, driver). Events
  /// of one origin run in schedule order; the per-origin counter is the
  /// documented FIFO-by-(time, seq) invariant, restricted to the one
  /// sequence that is stable across partitionings.
  EventId ScheduleRegular(SimTime at, uint32_t origin, Callback fn) {
    SCOOP_DCHECK(origin < counters_.size());
    return ScheduleInternal(at, MakeOrd(2, origin, counters_[origin]++), 0, 0,
                            std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void Cancel(EventId id);

  /// Current simulated time (time of the last executed event).
  SimTime now() const { return now_; }

  /// Earliest pending event time across both tiers, kSimTimeHorizon when
  /// empty. Exact (skims stale entries first), not merely a lower bound:
  /// the engine's EPT promise and safe-time execution both read it.
  SimTime HeadTime();

  /// True iff the head event is a phase-1 completion; outputs its key.
  bool HeadFinishInfo(NodeId* sender, uint32_t* gen);

  /// Runs the earliest pending event. Returns false when empty.
  bool RunOne();

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }
  uint64_t processed() const { return processed_; }
  /// Entries held across both tiers, including not-yet-skimmed stale ones.
  size_t heap_size() const { return heap_.size() + wheel_.entries(); }

  /// Per-tier occupancy and absorb counters (same contract as EventQueue's).
  size_t wheel_l0_size() const { return wheel_.l0_entries(); }
  size_t wheel_l1_size() const { return wheel_.l1_entries(); }
  size_t heap_tier_size() const { return heap_.size(); }
  uint64_t wheel_absorbed() const { return absorbed_; }
  uint64_t wheel_spilled() const { return spilled_; }

  /// Optional wall-clock profiler (same contract as EventQueue's):
  /// callback dispatch is attributed to kAgent, everything else to the
  /// caller's bucket. Observation-only.
  void set_profiler(obs::SimProfiler* profiler) { profiler_ = profiler; }

 private:
  friend class TimerWheel<ShardQueue>;

  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kNilSlot = kSlotMask;

  /// Canonical ordering key: phase in bits 62-63, origin/sender in bits
  /// 44-61 (18 bits: the full 16-bit node space plus pseudo-origins), and
  /// the generation/counter in bits 0-43.
  static uint64_t MakeOrd(uint64_t phase, uint64_t origin, uint64_t ctr) {
    return (phase << 62) | (origin << 44) | ctr;
  }

  struct HeapEntry {
    SimTime at;
    uint64_t ord;
    uint64_t key;  ///< (seq << kSlotBits) | slot; doubles as EventId.
  };

  struct Slot {
    Callback fn;
    uint64_t key = 0;  ///< Id of the armed event, 0 while free.
    uint32_t next_free = kNilSlot;
    NodeId sender = 0;  ///< Phase-1 events: the completing transmitter.
    uint32_t gen = 0;   ///< Phase-1 events: its transmission generation.
  };

  /// Min-heap order on the canonical key. `key` never decides between live
  /// events (ord is unique per queue), but keeps the order total.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.ord != b.ord) return a.ord < b.ord;
    return a.key < b.key;
  }
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return Earlier(b, a);
    }
  };

  bool IsLive(const HeapEntry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }

  // TimerWheel host hooks (see timer_wheel.h). Unlike EventQueue's, the
  // in-bucket sort here is load-bearing: bucket append order is schedule
  // order, which is NOT the canonical (time, ord, key) order.
  using WheelEntry = HeapEntry;
  static SimTime WheelTime(const HeapEntry& e) { return e.at; }
  static bool WheelEarlier(const HeapEntry& a, const HeapEntry& b) {
    return Earlier(a, b);
  }
  bool WheelLive(const HeapEntry& e) const { return IsLive(e); }
  void WheelStaleDropped(size_t n) { stale_ -= n; }

  EventId ScheduleInternal(SimTime at, uint64_t ord, NodeId sender, uint32_t gen,
                           Callback fn);
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);
  void SkimStale();
  /// Earliest pending entry across both tiers (after skimming), or null.
  const HeapEntry* PeekHead(bool* from_wheel);
  void MaybeCompact();

  std::vector<HeapEntry> heap_;
  TimerWheel<ShardQueue> wheel_{this};
  std::vector<Slot> slots_;
  std::vector<uint64_t> counters_;  ///< Per-origin phase-2 schedule counters.
  uint32_t free_head_ = kNilSlot;
  size_t live_ = 0;
  size_t stale_ = 0;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  uint64_t processed_ = 0;
  uint64_t absorbed_ = 0;
  uint64_t spilled_ = 0;
  obs::SimProfiler* profiler_ = nullptr;
};

/// Shard-local radio/MAC. Owns the channel state for its shard's nodes and
/// a read-only mirror of boundary transmissions other shards announce.
class ShardRadio {
 public:
  using TransmitHook = Radio::TransmitHook;
  using DeliverHook = Radio::DeliverHook;
  using DropHook = Radio::DropHook;
  using SendDoneHook = Radio::SendDoneHook;
  /// Outbound cross-shard notifications, wired by the engine.
  using AnnounceFn =
      SmallFunction<void(NodeId src, uint32_t gen, SimTime start, SimTime end,
                         const Packet& pkt)>;
  using AbortFn = SmallFunction<void(NodeId src, uint32_t gen)>;
  using AckFn = SmallFunction<void(NodeId src, uint32_t gen, bool received)>;

  /// `owner` maps every node to its shard index; `self_shard` is this
  /// radio's shard. Only nodes with owner == self_shard transmit here;
  /// other nodes exist as mirrored channel state. `duplicates` is the
  /// engine-wide duplicate filter; this radio touches only the slots of
  /// links into its own nodes.
  ShardRadio(const Topology* topology, const RadioOptions& options, ShardQueue* queue,
             uint64_t seed, const std::vector<int>* owner, int self_shard,
             DuplicateFilter* duplicates);

  ShardRadio(const ShardRadio&) = delete;
  ShardRadio& operator=(const ShardRadio&) = delete;

  /// Queues `pkt` for transmission by the locally-owned node `src`.
  void Send(NodeId src, Packet pkt);

  /// Powers a locally-owned node down or up (see Radio::SetNodeAlive).
  void SetNodeAlive(NodeId id, bool alive);

  /// Attaches a link-fault channel (see Radio::SetFaultChannel). Every
  /// shard must attach the SAME channel: the keyed loss/ACK draws consume
  /// no shared stream, so scaling their probabilities identically on each
  /// shard keeps any K-way partition bit-identical.
  void SetFaultChannel(const fault::LinkFaultChannel* channel) { fault_ = channel; }

  // --- Inbound cross-shard messages (applied by the shard's drain) ---
  void HandleAnnounce(NodeId src, uint32_t gen, SimTime start, SimTime end, Packet pkt);
  void HandleAbort(NodeId src, uint32_t gen);
  void HandleAckResult(NodeId src, uint32_t gen, bool received);

  /// True iff the pending completion of (src, gen) cannot run yet because
  /// its unicast destination lives on another shard and that shard's ACK
  /// verdict has not arrived. The run loop stalls (keeps the event queued,
  /// keeps publishing its promise) instead of executing it.
  bool AckBlocked(NodeId src, uint32_t gen) const;

  /// Wires the per-boundary lookahead: `announce_mask` maps every node to
  /// the set of OTHER shards mirroring its transmissions (the engine's
  /// announce routes), `num_shards` sizes the per-target floor slots.
  /// Must be called once before any Send; the mask must outlive the radio.
  void SetAnnounceTargets(const std::vector<uint64_t>* announce_mask, int num_shards);

  /// Earliest armed carrier-sense time among nodes whose announces reach
  /// shard `target` -- a floor on when this shard can next put a frame on
  /// the air that `target` has to mirror. Per-boundary by construction:
  /// CCAs of interior nodes (and of boundary nodes facing other shards)
  /// never throttle `target`. Not-yet-armed acquisitions are the engine's
  /// global head-floor business: any future event at time t arms its CCA
  /// at >= t + backoff_min. Lazily discards entries that already fired:
  /// strictly before `clock` always, and at == `clock` when
  /// `head_past_clock` says every event at the current instant has run.
  /// kSimTimeHorizon if none.
  SimTime MacFloorFor(int target, SimTime clock, bool head_past_clock);

  /// Boundary transmissions mirrored INTO this shard (announce handled),
  /// over the whole run. Always-on perf telemetry, like
  /// ShardQueue::processed(); the cut quality metric the min-cut
  /// partitioner is judged by.
  uint64_t mirrored_frames() const { return mirrored_frames_; }

  void set_transmit_hook(TransmitHook hook) { transmit_hook_ = std::move(hook); }
  void set_deliver_hook(DeliverHook hook) { deliver_hook_ = std::move(hook); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }
  void set_send_done_hook(SendDoneHook hook) { send_done_hook_ = std::move(hook); }
  void set_announce_fn(AnnounceFn fn) { announce_fn_ = std::move(fn); }
  void set_abort_fn(AbortFn fn) { abort_fn_ = std::move(fn); }
  void set_ack_fn(AckFn fn) { ack_fn_ = std::move(fn); }

  const RadioOptions& options() const { return options_; }
  SimTime Airtime(int wire_size) const;

  /// Attaches this shard's observability sinks (any may be null); same
  /// resolve-once / branch-on-null / observation-only contract as
  /// Radio::EnableObservability. Each shard gets its own sinks -- they are
  /// only ever touched from the shard's thread.
  void EnableObservability(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
                           obs::SimProfiler* profiler);

 private:
  struct OutFrame {
    Packet pkt;
    int retries_left = 0;
    int channel_attempts = 0;
    bool seq_assigned = false;
    SimTime airtime = 0;
  };

  struct PdesMac {
    std::deque<OutFrame> queue;
    bool transmitting = false;
    bool cca_scheduled = false;
    uint16_t next_seq = 1;
    uint32_t tx_gen = 0;
    EventId cca_event = kInvalidEventId;
    SimTime cca_at = 0;  ///< Scheduled sense time, for MacFloor cancellation.
  };

  struct TxSpan {
    SimTime start = 0;
    SimTime end = 0;
  };

  /// A mirrored remote transmission awaiting its local evaluation.
  struct RemoteTx {
    Packet pkt;
    SimTime start = 0;
    SimTime end = 0;
  };

  static uint64_t TxKey(NodeId src, uint32_t gen) {
    return (static_cast<uint64_t>(src) << 32) | gen;
  }

  bool Owned(NodeId id) const { return (*owner_)[id] == self_shard_; }

  /// Keyed per-link loss draw for receiver `r` of (src, gen): every shard
  /// that evaluates the transmission draws the identical verdict.
  bool LinkLossDraw(NodeId src, uint32_t gen, NodeId r, double prob) const {
    Rng rng(MixSeed(MixSeed(link_key_, TxKey(src, gen)), r), r);
    return rng.Bernoulli(prob);
  }
  bool AckDraw(NodeId src, uint32_t gen, double prob) const {
    Rng rng(MixSeed(ack_key_, TxKey(src, gen)), src);
    return rng.Bernoulli(prob);
  }

  /// Arms carrier sense for the head frame. Fresh acquisitions wait at
  /// least backoff_min (the cross-shard lookahead floor) plus a keyed
  /// jitter; busy retries use the legacy BEB window.
  void ScheduleCca(NodeId src, SimTime delay);
  void TryStart(NodeId src);
  void CcaFire(NodeId src);
  void StartTx(NodeId src);
  void FinishCont(NodeId src, uint32_t gen);
  void EvalLocal(NodeId src, uint32_t gen, SimTime start, SimTime end);
  void EvalRemote(NodeId src, uint32_t gen);
  /// Shared reception computation for a (local or mirrored) transmission.
  void EvalTx(NodeId src, uint32_t gen, SimTime start, SimTime end, const Packet& pkt,
              bool aborted);

  /// Strict-visibility carrier sense: a span starting exactly `now` is
  /// invisible, so same-instant acquisitions never depend on cross-shard
  /// message timing (see file comment).
  bool ChannelBusy(NodeId node) const;
  bool WasTransmitting(NodeId node, SimTime start, SimTime end) const;

  const Topology* topology_;
  RadioOptions options_;
  ShardQueue* queue_;
  /// Optional link-degradation/partition windows (src/fault/); null = off.
  const fault::LinkFaultChannel* fault_ = nullptr;
  const std::vector<int>* owner_;
  int self_shard_;
  uint64_t link_key_;
  uint64_t ack_key_;

  std::vector<PdesMac> mac_;
  std::vector<Rng> mac_rng_;  ///< Per-node backoff streams (owned nodes only).
  std::vector<bool> alive_;

  // Channel state: identical shapes to Radio's, but covering this shard's
  // transmissions plus mirrored boundary announcements.
  const std::vector<InterfererSet>* interferers_ = nullptr;
  std::vector<InterfererSet> own_interferers_;
  DynamicNodeBitmap active_tx_;
  std::vector<std::array<TxSpan, 2>> node_tx_;
  /// Local and mirrored transmissions plus the collision verdicts -- the
  /// same kernel as Radio's (sim/collision.h).
  CollisionKernel collisions_;
  /// Link-layer duplicate flags -- the same filter as Radio's
  /// (sim/duplicate_filter.h), shared with the other shards.
  DuplicateFilter* duplicates_;

  /// Per-target-shard armed carrier-sense times (min-heaps, indexed by
  /// target shard) and cancelled entries awaiting lazy annihilation
  /// (power-downs cancel scheduled carrier senses). A CCA for node u is
  /// fanned to exactly the shards in (*announce_mask_)[u]: interior nodes
  /// push nothing, so their pending acquisitions never cap any promise.
  using MacHeap =
      std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>;
  std::vector<MacHeap> mac_times_;
  std::vector<MacHeap> mac_cancelled_;
  const std::vector<uint64_t>* announce_mask_ = nullptr;
  uint64_t mirrored_frames_ = 0;

  /// Mirrored remote transmissions keyed (src << 32 | gen), consumed by
  /// their evaluation event; aborts and ACK verdicts keyed the same way.
  std::unordered_map<uint64_t, RemoteTx> remote_tx_;
  std::unordered_set<uint64_t> aborted_;
  std::unordered_map<uint64_t, bool> acks_;

  TransmitHook transmit_hook_;
  DeliverHook deliver_hook_;
  DropHook drop_hook_;
  SendDoneHook send_done_hook_;
  AnnounceFn announce_fn_;
  AbortFn abort_fn_;
  AckFn ack_fn_;

  // --- Observability (all null = off; every site is branch-on-null) ---
  obs::TraceSink* trace_ = nullptr;
  obs::SimProfiler* profiler_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;
  uint64_t* ctr_backoffs_ = nullptr;
  uint64_t* ctr_tx_ = nullptr;
  uint64_t* ctr_deliveries_ = nullptr;
  uint64_t* ctr_drops_busy_ = nullptr;
  uint64_t* ctr_drops_noack_ = nullptr;
  uint64_t* ctr_rx_collided_ = nullptr;
  uint64_t* ctr_rx_duplicate_ = nullptr;
  uint64_t* ctr_announce_rx_ = nullptr;
  uint64_t* ctr_abort_rx_ = nullptr;
  uint64_t* ctr_ack_rx_ = nullptr;
  uint64_t* ctr_mirror_evals_ = nullptr;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_SHARD_H_
