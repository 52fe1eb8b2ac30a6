// Conservative parallel discrete-event engine: one simulation trial split
// across K spatial shards, each running its own deterministically-ordered
// queue (sim/shard.h) on its own thread.
//
// Synchronization is null-message/LBTS style. Every shard continuously
// publishes, PER OUT-NEIGHBOR SHARD, an "earliest possible transmission"
// promise (EPT): a lower bound on the timestamp of any cross-shard
// message it will EVER send to that specific neighbor. Three floors
// combine into each promise --
//
//   MacFloorFor earliest ARMED carrier sense among the nodes whose
//               announces reach that neighbor (per-boundary lookahead: an
//               interior node's pending acquisition, or a boundary node
//               facing a different cut, never throttles this neighbor),
//   AliveFloor  earliest pending power-toggle (a power-down can emit an
//               abort for a mirrored frame at exactly its event time;
//               shard-global, since one fault callback may touch any of
//               the shard's nodes),
//   head floor  min(queue head, current safe time) + backoff_min: even a
//               frame the shard has not heard about yet must clear a full
//               scheduled carrier sense, so backoff_min is the lookahead
//               (shard-global; also covers the post-completion case -- a
//               transmission finishing at `end` keeps head <= end until
//               its completion runs, and its successor acquisition starts
//               >= end + backoff_min).
//
// A shard may execute every event with time <= min over its in-neighbor
// shards' promises to it (its safe time). Publishing is monotone (a
// promise never retreats), producers push a mailbox message BEFORE
// bumping their EPT (release), and consumers load EPTs (acquire) BEFORE
// draining, so every message that can affect an executable event is
// visible before the event runs.
//
// When promises are published: inside a batch, each time the queue moves
// past a completed instant, and once more at the end of every run-loop
// turn (which also covers turns that executed nothing but saw the safe
// time rise). Publishing as soon as a promise rises lets a neighbor
// waiting on it run alongside the rest of the batch instead of after it;
// the lookahead is the same, it is just no longer held back. A mid-batch
// promise stays sound for the same reasons an end-of-batch one is:
//   - it comes from the same three floors, evaluated on the shard's
//     current clock and queue head, and every message an executed event
//     emitted was pushed before the promise that follows it is released;
//   - the batch's safe time was loaded before its drain, so every inbound
//     message below it is already in the queue, and one not yet drained is
//     at or after it -- min(head, safe) + backoff_min still bounds any
//     transmission such a message can trigger.
// In debug builds Push() checks every announce and abort against the
// sender's published promise.
//
// Unicast ACK verdicts cross shards too: a completion whose remote verdict
// is missing simply stalls at the queue head (its own EPT keeps covering
// it) until the destination shard's evaluation reports back -- which is
// also why a verdict's emission time needs no promise coverage of its own.
//
// Partitioning (sim/partition.h) slices the topology into K parts:
// contiguous coordinate strips, or min-cut regions grown on the audible
// graph. Correctness never depends on the cut: announce routes come from
// the CSR audible lists, so any partition yields the same result -- only
// the boundary traffic (and thus speed) changes.
#ifndef SCOOP_SIM_SHARDED_ENGINE_H_
#define SCOOP_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/app.h"
#include "sim/partition.h"
#include "sim/shard.h"
#include "sim/topology.h"

namespace scoop::sim {

/// A cross-shard message. Announces mirror a boundary transmission's RF
/// span + payload; aborts revoke one mid-air (power-down); acks report a
/// unicast destination's reception verdict back to the sender's shard.
struct ShardMsg {
  enum class Kind : uint8_t { kAnnounce, kAbort, kAck };
  Kind kind = Kind::kAnnounce;
  NodeId src = kInvalidNodeId;  ///< Transmitting node.
  uint32_t gen = 0;             ///< Its transmission generation.
  SimTime start = 0;
  SimTime end = 0;
  bool received = false;  ///< kAck: destination latched the frame.
  Packet pkt;             ///< kAnnounce only.
};

/// Whole-engine configuration. Mirrors NetworkOptions plus the shard count.
struct ShardedEngineOptions {
  RadioOptions radio;
  uint64_t seed = 1;
  SimTime boot_jitter = Seconds(2);
  /// Number of shards (threads) to split the trial across. Results are
  /// identical for every value; 1 runs inline without threads.
  int shards = 1;
  /// How the topology is split into shards (sim/partition.h). Results are
  /// identical for both kinds; only boundary traffic and speed change.
  PartitionKind partition = PartitionKind::kStrip;
};

/// Owns the sharded simulation state for one run. The public surface
/// mirrors Network where the harness needs it (SetApp/Start/RunUntil/app),
/// with shard-aware observer and injection hooks.
class ShardedEngine {
 public:
  ShardedEngine(Topology topology, ShardedEngineOptions options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return num_shards_; }
  int shard_of(NodeId id) const { return owner_[id]; }
  const Topology& topology() const { return topology_; }

  /// Installs the protocol stack for node `id`. Must precede Start().
  void SetApp(NodeId id, std::unique_ptr<App> app);

  /// The app installed on `id` (null if none). Safe only while no
  /// RunUntil() is in flight.
  App* app(NodeId id);

  /// Schedules all boots. Call once after all SetApp() calls.
  void Start();

  /// Advances simulated time on all shards, running all due events.
  /// Callable repeatedly; spawns (and joins) one thread per shard.
  void RunUntil(SimTime end);

  /// Per-shard observers. A shard's hooks fire on that shard's thread, so
  /// each shard must get its own instrumentation sinks (merge afterwards).
  void set_transmit_observer(int shard, Radio::TransmitHook observer);
  void set_deliver_observer(int shard, Radio::DeliverHook observer);
  void set_drop_observer(int shard, Radio::DropHook observer);

  /// Attaches observability sinks to one shard (any may be null). Like the
  /// observers above, a shard's instrumentation fires on that shard's
  /// thread, so every shard needs its own sinks; merge/export them after
  /// RunUntil returns. With `metrics_interval > 0` the shard also samples
  /// its registry on that simulated-time grid, at deterministic points in
  /// the event order (independent of thread timing and shard count).
  /// Observation-only: enabling this cannot change simulation results.
  void EnableObservability(int shard, obs::TraceSink* trace,
                           obs::MetricsRegistry* metrics,
                           obs::SimProfiler* profiler,
                           SimTime metrics_interval = 0);

  /// Schedules a driver callback (query injection) at absolute time `at`.
  /// Driver events run on the shard owning node 0 (the basestation);
  /// callable before Start() from the caller's thread and, from inside a
  /// driver callback, on that shard's thread.
  void ScheduleDriver(SimTime at, SmallCallback fn);

  /// Clock of the driver's shard (valid inside driver callbacks).
  SimTime DriverNow() const;

  /// Schedules a power-toggle for `id` at absolute time `at`. Must be
  /// called before Start(): the times feed each shard's AliveFloor, which
  /// must be complete before any promise is published.
  void ScheduleAlive(SimTime at, NodeId id, bool alive);

  /// Schedules an arbitrary fault action against `id` at absolute time
  /// `at`, on `id`'s owner shard under the fault pseudo-origin (same-time
  /// events keep call order per shard; identical results for every K).
  /// Must be called before Start(): like power toggles, fault times feed
  /// the shard's AliveFloor promise, since an action may abort a mirrored
  /// frame at exactly its event time. The callback runs on the owning
  /// shard's thread and may only touch that shard -- i.e. call the Fault*
  /// helpers below for `id` (or other nodes on the same shard).
  void ScheduleFault(SimTime at, NodeId id, SmallCallback fn);

  // --- Immediate fault actions (ScheduleFault callbacks only) ---

  /// Radio power-toggle, same semantics as ScheduleAlive's action.
  void FaultSetAlive(NodeId id, bool alive);
  /// Invokes App::OnCrash on `id`'s host.
  void FaultCrash(NodeId id);
  /// Invokes App::OnReboot on `id`'s host.
  void FaultReboot(NodeId id);
  /// Invokes App::OnRootPromote on `id`'s host.
  void FaultRootPromote(NodeId id, bool promote);

  /// Attaches a link-fault channel to every shard's radio (nullptr
  /// detaches). Must precede RunUntil; the channel must outlive the run.
  void SetFaultChannel(const fault::LinkFaultChannel* channel);

  /// Total events executed across all shards. Note this counts boundary
  /// evaluation events once per mirroring shard, so it grows slightly
  /// with K (it is a work counter, not part of the deterministic results).
  uint64_t processed() const;

  /// Timer-wheel tier split summed across shards (perf telemetry, like
  /// processed()): schedules the wheel absorbed vs spilled to the heap.
  uint64_t wheel_absorbed() const;
  uint64_t wheel_spilled() const;

  /// Wall-clock microseconds shards spent spinning with no executable
  /// event (waiting on a neighbor promise), and how many distinct such
  /// episodes occurred; summed across shards. Perf telemetry like
  /// processed(): wall-clock-derived, NOT deterministic.
  uint64_t stall_us() const;
  uint64_t stall_episodes() const;

  /// Boundary transmissions mirrored across shards over the run (each
  /// announce counted once per receiving shard); summed across shards.
  /// Deterministic for a fixed (topology, K, partition).
  uint64_t mirrored_frames() const;

  /// Partition quality: directed audible links crossing shards, and
  /// max-part-size * K / n (see sim/partition.h). Fixed at construction.
  uint64_t cut_edges() const { return cut_edges_; }
  double partition_imbalance() const { return imbalance_; }

 private:
  class Host;
  struct Shard;

  /// One inter-shard mailbox direction (indexed [to * K + from]).
  struct Mailbox {
    std::mutex mu;
    std::vector<ShardMsg> msgs;
  };

  SimTime SafeTime(const Shard& shard) const;
  void Drain(Shard* shard);
  void PublishEpt(Shard* shard, SimTime safe, SimTime head);
  bool ExecuteUpTo(Shard* shard, SimTime safe, SimTime end);
  void RunShard(Shard* shard, SimTime end);
  void Push(int from, int to, ShardMsg msg);

  Topology topology_;
  ShardedEngineOptions options_;
  int num_shards_;
  std::vector<int> owner_;
  /// Per-node bitmask of shards (other than the owner) that must mirror
  /// the node's transmissions: every shard owning an audible out-neighbor.
  std::vector<uint64_t> announce_mask_;
  /// Link-layer duplicate state shared by every shard's radio: each slot
  /// is written only by the shard owning its link's receiver.
  DuplicateFilter duplicates_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Mailbox[]> mail_;  ///< K*K boxes; std::mutex is immovable.
  /// Published promises, one per directed shard pair: cell [from*K + to]
  /// is `from`'s lower bound on anything it will ever send to `to`
  /// (per-boundary lookahead; only out-neighbor cells are ever written).
  std::unique_ptr<std::atomic<SimTime>[]> ept_;
  uint64_t cut_edges_ = 0;
  double imbalance_ = 1.0;
  bool started_ = false;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_SHARDED_ENGINE_H_
