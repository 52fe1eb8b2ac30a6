// The "descendants list" of §5.1/§5.4: a bounded table mapping each known
// descendant in the routing subtree to the child branch that leads to it,
// learned passively from traffic forwarded up the tree. Used by routing
// rule 5 to send data *down* the tree and by the modified Trickle to decide
// whether re-broadcasting a query can reach any of its targets.
#ifndef SCOOP_NET_DESCENDANTS_H_
#define SCOOP_NET_DESCENDANTS_H_

#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace scoop::net {

/// Tunables for DescendantsTable.
struct DescendantsOptions {
  /// Maximum tracked descendants (paper: 32). Overflow degrades routing
  /// gracefully (§5.1): unknown destinations fall back to the basestation.
  int capacity = 32;
  /// Entries not refreshed within this window are evicted.
  SimTime eviction_timeout = Seconds(600);
};

/// Bounded descendant→child routing table.
class DescendantsTable {
 public:
  explicit DescendantsTable(const DescendantsOptions& options = {});

  /// Records that traffic originated by `descendant` arrived via direct
  /// child `via_child` (the link-layer sender of the forwarded packet).
  void Learn(NodeId descendant, NodeId via_child, SimTime now);

  /// The child branch leading to `dst`, if known.
  std::optional<NodeId> NextHop(NodeId dst) const;

  /// True iff `dst` is a known descendant.
  bool Contains(NodeId dst) const { return Find(dst) != entries_.end(); }

  /// Forgets a child branch entirely (e.g., when the child stops being a
  /// neighbor); all descendants routed via it are dropped.
  void ForgetChild(NodeId child);

  /// Drops entries not refreshed within the eviction timeout.
  void EvictStale(SimTime now);

  /// All known descendant ids, ascending.
  std::vector<NodeId> Ids() const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    NodeId id = kInvalidNodeId;  ///< The descendant.
    NodeId via_child = kInvalidNodeId;
    SimTime last_update = 0;
  };

  /// First entry with id >= `id` (the insertion point when absent).
  std::vector<Entry>::iterator LowerBound(NodeId id);
  /// The entry for `id`, or end() if absent.
  std::vector<Entry>::const_iterator Find(NodeId id) const;

  /// Evicts the least recently updated entry, the lowest id on ties.
  void EvictOldest();

  DescendantsOptions options_;
  // Bounded at `capacity` (32 in the paper) and touched on every forwarded
  // summary and reply, so -- like NeighborTable and RoutingTree -- a flat
  // id-sorted vector reserved once: lookups are a binary search over a few
  // cache lines, inserts never allocate, and iteration is ascending id.
  std::vector<Entry> entries_;
};

}  // namespace scoop::net

#endif  // SCOOP_NET_DESCENDANTS_H_
