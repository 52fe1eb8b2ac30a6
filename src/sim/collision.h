// Collision verdicts for both radios (the sequential Radio and the sharded
// engine's ShardRadio): one component owns the ring of recent
// transmissions and answers "was this reception corrupted?".
//
// The rule: a reception at `r` of a frame whose link to `r` has delivery
// probability `signal` is corrupted iff some other transmission
// overlapping the frame in time comes from a node whose link to `r` has
//   prob >= interference_threshold  &&  prob >= capture_ratio * signal.
// That holds iff the strongest such link clears both bars at once:
//   max_prob >= max(interference_threshold, capture_ratio * signal).
//
// Per completion, Open() walks the ring once and, for every overlapping
// transmitter, scatters its CSR out-row (its audible links) into a
// per-receiver slot that keeps the strongest overlapping link into that
// receiver. Slots are stamped with the completion instead of cleared.
// Corrupted() is then one slot read per receiver: no per-pair lookup in a
// dense matrix or an interferer set, and O(N) memory. std::max returns one
// of its operands, so the slot holds an exact link probability whatever
// order the rows were scattered in; the verdict is a pure predicate -- no
// RNG draw, independent of candidate and receiver order -- and equals a
// per-receiver scan of the ring at any interference threshold.
#ifndef SCOOP_SIM_COLLISION_H_
#define SCOOP_SIM_COLLISION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "sim/radio_options.h"
#include "sim/topology.h"

namespace scoop::sim {

class CollisionKernel {
 public:
  /// `max_airtime` is the airtime of a maximum-size frame: the horizon
  /// past which a transmission cannot overlap a newer one.
  CollisionKernel(const Topology* topology, const RadioOptions& options,
                  SimTime max_airtime);

  /// Records a transmission on the air. `start` may lag the newest entry
  /// (a mirrored boundary announcement); the ring stays start-ordered.
  void Insert(NodeId src, SimTime start, SimTime end);

  /// Drops entries that started too long before `now` to overlap any frame
  /// still in flight, compacting once the dead prefix dominates.
  void Prune(SimTime now);

  /// Prepares verdicts for `sender`'s frame on [start, end). Returns false
  /// when no reception of it can be corrupted (collisions off, or nothing
  /// overlapping within range); Corrupted() must not be called then.
  bool Open(NodeId sender, SimTime start, SimTime end);

  /// True iff the reception at `receiver`, whose link from the sender of
  /// the last Open() has probability `signal`, was corrupted.
  bool Corrupted(NodeId receiver, double signal) const {
    const Slot& slot = slots_[receiver];
    return slot.stamp == stamp_ &&
           slot.max_prob >= std::max(threshold_, capture_ratio_ * signal);
  }

 private:
  struct Transmission {
    NodeId src = kInvalidNodeId;
    SimTime start = 0;
    SimTime end = 0;
  };

  /// The strongest link into one receiver from the transmitters overlapping
  /// the last Open()'s frame; stale unless `stamp` is that Open()'s.
  struct Slot {
    uint64_t stamp = 0;
    double max_prob = 0;
  };

  const Topology* topology_;
  bool enabled_;
  double threshold_;
  double capture_ratio_;
  SimTime max_airtime_;
  /// Squared distance beyond which a transmitter cannot corrupt any
  /// reception of a sender's frame: twice the longest audible link, since
  /// the interferer must reach a receiver that the sender reaches.
  double range2_ = 0;
  /// Recent + active transmissions in start order; Open() walks backward
  /// from the tail and stops at the first entry older than one max
  /// airtime before the window.
  std::vector<Transmission> ring_;
  size_t head_ = 0;  ///< First live ring entry (amortized pruning).
  std::vector<Slot> slots_;  ///< Indexed by receiver.
  uint64_t stamp_ = 0;       ///< Bumped by every Open().
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_COLLISION_H_
