// Packet-level radio channel: CSMA carrier sense with exponential backoff,
// airtime-accurate transmissions, Bernoulli per-directed-link loss,
// collision corruption between overlapping audible transmissions,
// half-duplex receivers, promiscuous snooping, and link-layer ACK +
// retransmission for unicasts. This is the TOSSIM-substitute substrate
// (DESIGN.md S2).
//
// Hot-path design: one transmission touches only the sender's audible
// out-neighbors (the topology's CSR lists), not all N nodes. Carrier sense
// intersects an active-transmitter bitmap with the node's interferer set;
// half duplex reads each node's last two transmission spans; collisions
// go through the CollisionKernel (sim/collision.h), which scatters the
// CSR rows of the overlapping transmitters into per-receiver slots once
// per completion. One broadcast costs O(degree + the overlapping
// transmitters' degrees). Link-layer duplicates are flagged by the
// DuplicateFilter (sim/duplicate_filter.h), one slot per audible link
// walked alongside the sender's CSR row, and the flag rides with the
// delivery: hosts keep no per-sender state.
#ifndef SCOOP_SIM_RADIO_H_
#define SCOOP_SIM_RADIO_H_

#include <array>
#include <deque>
#include <vector>

#include "common/node_bitmap.h"
#include "common/small_callback.h"
#include "common/rng.h"
#include "fault/link_fault.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/collision.h"
#include "sim/duplicate_filter.h"
#include "sim/event_queue.h"
#include "sim/radio_options.h"
#include "sim/topology.h"

namespace scoop::sim {

/// Why a frame was dropped by the MAC without being delivered.
enum class DropReason {
  kChannelBusy,  ///< Exceeded max channel-acquisition attempts.
  kNoAck,        ///< Unicast exhausted all retransmissions.
};

/// The shared wireless channel. One instance per simulated network.
class Radio {
 public:
  /// Hooks are inline-storage SmallFunctions, not std::function: they fire
  /// per packet (transmit/deliver observers chain into MessageStats), so
  /// boxing them would put an allocation on the radio hot path.
  /// Observer invoked at each transmission start (the paper's cost unit).
  using TransmitHook = SmallFunction<void(NodeId src, const Packet&, bool retransmission)>;
  /// Observer for successful packet arrival at a node. `duplicate` is the
  /// link-layer duplicate flag of an addressed reception (same (link_src,
  /// seq) as the link's previous one: a retransmission whose ACK was lost);
  /// always false for overheard frames.
  using DeliverHook =
      SmallFunction<void(NodeId receiver, const Packet&, bool addressed, bool duplicate)>;
  /// Observer for frames abandoned by the MAC.
  using DropHook = SmallFunction<void(NodeId src, const Packet&, DropReason)>;
  /// Completion callback toward the sending node's app.
  using SendDoneHook = SmallFunction<void(NodeId src, const Packet&, bool success)>;

  Radio(const Topology* topology, const RadioOptions& options, EventQueue* queue,
        uint64_t seed);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Queues `pkt` for transmission by `src`. `pkt.hdr.link_dst` selects
  /// broadcast (kBroadcastId) vs ACKed unicast. The radio stamps link_src
  /// and assigns the per-sender sequence number at first transmission.
  void Send(NodeId src, Packet pkt);

  /// Powers a node's radio down (failure injection, §2.1) or back up. A
  /// dead node transmits nothing (its queue is dropped and any in-flight
  /// frame is aborted) and receives nothing; everything else routes around
  /// it. The RF energy of an aborted frame stays on the air until its
  /// scheduled end: other nodes still carrier-sense and collide with it.
  void SetNodeAlive(NodeId id, bool alive);

  /// True unless the node was powered down.
  bool IsAlive(NodeId id) const;

  /// Attaches a link-fault channel (nullptr detaches). When set and active,
  /// per-link delivery and ACK probabilities are scaled by the channel's
  /// window factors; the number of RNG draws never changes, so a null or
  /// empty channel leaves every random stream byte-identical to a build
  /// without fault injection. The channel must outlive the radio and is
  /// read-only during the run.
  void SetFaultChannel(const fault::LinkFaultChannel* channel) { fault_ = channel; }

  /// True iff `src` has nothing queued or in flight.
  bool IsIdle(NodeId src) const;

  /// Frames queued (incl. in flight) at `src`.
  size_t PendingCount(NodeId src) const;

  void set_transmit_hook(TransmitHook hook) { transmit_hook_ = std::move(hook); }
  void set_deliver_hook(DeliverHook hook) { deliver_hook_ = std::move(hook); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }
  void set_send_done_hook(SendDoneHook hook) { send_done_hook_ = std::move(hook); }

  const RadioOptions& options() const { return options_; }

  /// Airtime of a packet of `wire_size` bytes (plus link framing).
  SimTime Airtime(int wire_size) const;

  /// CSMA backoff window for the 1-based busy-channel `attempt`: starts at
  /// backoff_min, doubles per attempt, clamps at backoff_max. Exposed so
  /// tests can pin the window sequence.
  static SimTime BackoffWindow(const RadioOptions& options, int attempt);

  /// Attaches observability sinks (any may be null). Counter/histogram
  /// pointers are resolved here, once, so the per-event cost when enabled
  /// is a branch plus an increment -- and exactly one branch when off.
  /// Observation-only: recording draws no randomness (backoff delays are
  /// recorded after the MAC draws them) and schedules nothing, so enabling
  /// tracing cannot change simulation output.
  void EnableObservability(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
                           obs::SimProfiler* profiler);

 private:
  struct OutFrame {
    Packet pkt;
    int retries_left = 0;       // Unicast retransmissions remaining.
    int channel_attempts = 0;   // CSMA attempts used so far.
    bool seq_assigned = false;
    SimTime airtime = 0;  ///< Cached Airtime(pkt.WireSize()), set at Send().
  };

  struct MacState {
    std::deque<OutFrame> queue;
    bool transmitting = false;
    bool backoff_scheduled = false;
    uint16_t next_seq = 1;
    /// Bumped at every transmission start and at every mid-air abort
    /// (power-down); a FinishTx completion whose generation no longer
    /// matches is stale and must not touch the queue.
    uint32_t tx_gen = 0;
  };

  /// A node's transmission interval, for half-duplex / self-busy checks.
  struct TxSpan {
    SimTime start = 0;
    SimTime end = 0;
  };

  /// Attempts to start transmitting the head frame at `src`.
  void TryStart(NodeId src);
  /// Completes a transmission: computes receptions, collisions, ACK.
  /// `gen` is the mac tx generation at start; a mismatch means the frame
  /// was aborted (power-cycle) and the completion is stale.
  void FinishTx(NodeId src, SimTime start, SimTime end, uint32_t gen);
  /// True iff `node` senses an audible transmission in progress.
  bool ChannelBusy(NodeId node) const;
  /// True iff `node` was itself transmitting at any point in [start,end].
  bool WasTransmitting(NodeId node, SimTime start, SimTime end) const;

  const Topology* topology_;
  RadioOptions options_;
  EventQueue* queue_;
  Rng rng_;
  /// Optional link-degradation/partition windows (src/fault/); null = off.
  const fault::LinkFaultChannel* fault_ = nullptr;
  std::vector<MacState> mac_;
  std::vector<bool> alive_;

  // --- Neighborhood-indexed channel state ---
  /// Per-receiver interferer sets for carrier sense, resolved once at
  /// construction: the topology's precomputed sets when
  /// options_.interference_threshold matches their threshold, else
  /// own_interferers_. Sparse-list or bitmap form per receiver
  /// (InterfererSet), with identical query semantics.
  const std::vector<InterfererSet>* interferers_ = nullptr;
  std::vector<InterfererSet> own_interferers_;
  /// Nodes with a transmission currently on the air.
  DynamicNodeBitmap active_tx_;
  /// Each node's last two transmission spans, most recent first. Two
  /// suffice: a node's transmissions are serial, so only its most recent
  /// frame starting before a query window's end can overlap the window --
  /// plus at most one frame starting exactly at the window's end instant.
  std::vector<std::array<TxSpan, 2>> node_tx_;
  /// Recent transmissions and the per-completion collision verdicts.
  CollisionKernel collisions_;
  /// (link_src, seq) of each link's last addressed reception.
  DuplicateFilter duplicates_;

  TransmitHook transmit_hook_;
  DeliverHook deliver_hook_;
  DropHook drop_hook_;
  SendDoneHook send_done_hook_;

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
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_RADIO_H_
