// Network topologies: node placement plus a directed per-pair delivery
// probability model. Generators reproduce the radio regime the paper
// reports for its 62-node testbed and TOSSIM runs (§6): each node hears
// ~20% of the network, audible pairs lose 25-90% of packets, and links are
// slightly asymmetric.
//
// The regime is sparse, so link generation never walks all N^2 pairs:
// positions are bucketed into a uniform grid hash with range-sized cells
// and each node tests only its 9-cell neighborhood, making one
// range-tuning attempt O(N * degree). The lognormal shadowing draw for a
// directed pair is keyed on (seed, from, to) -- not on scan order -- so
// the spatial walk produces bit-identical links to a dense all-pairs scan
// (pinned by the ComputeDelivery equivalence test).
//
// Every topology precomputes the neighborhood indexes the radio hot path
// runs on: CSR-style audible-neighbor lists (per sender, the links with
// p > 0 in ascending receiver order) and per-receiver interferer sets (the
// senders loud enough to trigger carrier sense or corrupt a reception --
// a sorted sparse list below the audible-density threshold, a bitmap
// above it). There is no dense N^2 matrix: memory is O(N + links), and
// the radio's collision check reads whole CSR rows (sim/collision.h), so
// the point lookup delivery_prob() -- a binary search of one CSR row --
// is left to once-per-unicast ACK probabilities and set-up code.
#ifndef SCOOP_SIM_TOPOLOGY_H_
#define SCOOP_SIM_TOPOLOGY_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/node_bitmap.h"
#include "common/rng.h"
#include "common/types.h"

namespace scoop::sim {

/// Planar position of a node, in meters.
struct Point {
  double x = 0;
  double y = 0;
};

/// Parameters for the synthetic radio propagation model.
struct PropagationOptions {
  /// Delivery probability at distance 0 before noise (<1: even adjacent
  /// motes drop packets, per §6: best pairs still lose ~25%).
  double max_delivery = 0.78;
  /// Delivery falls off as (1 - (d/range)^falloff_exp) * max_delivery.
  double falloff_exp = 2.2;
  /// Lognormal shadowing: per-directed-link multiplicative noise stddev.
  double shadowing_sigma = 0.22;
  /// Links weaker than this are inaudible (prob clamped to 0).
  double min_delivery = 0.08;
};

/// Options for the random square-area generator.
struct RandomTopologyOptions {
  int num_nodes = 63;  ///< Including the basestation (node 0).
  double area_width = 55.0;
  double area_height = 55.0;
  double radio_range = 18.0;
  /// If >0, radio_range is auto-tuned so the mean node hears approximately
  /// this fraction of the network (paper: ~0.2).
  double target_neighbor_fraction = 0.20;
  PropagationOptions propagation;
  uint64_t seed = 1;
};

/// Options for the dense-grid preset: nodes on a regular square lattice
/// with the basestation at a corner (a machine-room or agricultural
/// deployment; the densest regime Scoop's neighbor shortcut can exploit).
struct GridTopologyOptions {
  int num_nodes = 121;   ///< Including the basestation; laid out row-major.
  double spacing = 6.0;  ///< Meters between lattice neighbors.
  double radio_range = 18.0;
  /// Per-node placement jitter as a fraction of `spacing` (0 = perfect
  /// lattice; small jitter avoids degenerate equidistant link ties).
  double jitter_fraction = 0.10;
  PropagationOptions propagation;
  uint64_t seed = 1;
};

/// Options for the "testbed" preset: one elongated office floor with the
/// basestation near one end (the paper's 62-node indoor deployment).
struct TestbedTopologyOptions {
  int num_nodes = 63;  ///< 62 motes + basestation.
  double floor_length = 90.0;
  double floor_width = 18.0;
  double radio_range = 22.0;
  PropagationOptions propagation;
  uint64_t seed = 1;
};

/// Immutable topology: positions, directed delivery probabilities, and the
/// precomputed neighborhood indexes the radio hot path runs on.
///
/// The generators are size-agnostic up to the 16-bit NodeId space
/// (kMaxSupportedNodes) -- radio-level benchmarks simulate networks of
/// 10000+ nodes, and since the query wire format moved to the variadic
/// NodeSet codec the agent layers scale with them.
class Topology {
 public:
  /// One audible directed link in a sender's CSR neighbor list.
  struct Link {
    NodeId to = 0;
    double prob = 0.0;

    friend bool operator==(const Link&, const Link&) = default;
  };

  /// Sparse link sets as produced by ComputeDelivery: links[from] holds
  /// `from`'s audible out-links (prob > 0) in ascending receiver order.
  using SparseLinks = std::vector<std::vector<Link>>;

  /// Senders whose delivery probability to a receiver is at least this can
  /// interfere there (carrier sense and collisions). Must match the
  /// RadioOptions::interference_threshold default; a radio configured with
  /// a different threshold rebuilds its own sets via BuildInterfererSets.
  static constexpr double kInterferenceThreshold = 0.05;

  /// Generates nodes uniformly in a rectangle. Guarantees the audible-link
  /// graph is connected (re-rolls shadowing with growing range if needed).
  static Topology MakeRandom(const RandomTopologyOptions& options);

  /// Generates the office-floor testbed preset.
  static Topology MakeTestbed(const TestbedTopologyOptions& options);

  /// Generates the dense square-lattice preset.
  static Topology MakeGrid(const GridTopologyOptions& options);

  /// Builds a topology directly from a delivery matrix (tests).
  static Topology FromMatrix(std::vector<Point> positions,
                             std::vector<std::vector<double>> delivery);

  /// Computes the audible link set for `positions` at radio range `range`:
  /// grid-hash bucketed, O(N * degree). The shadowing draw of a directed
  /// pair is keyed on (link_seed, from, to), so results are independent of
  /// enumeration order. Public so benches and the equivalence test can
  /// target it directly.
  static SparseLinks ComputeDelivery(const std::vector<Point>& positions,
                                     const PropagationOptions& prop, double range,
                                     uint64_t link_seed);

  /// Brute-force all-pairs reference for ComputeDelivery: identical output
  /// (same pair-keyed draws), O(N^2). Kept for the spatial-vs-dense
  /// equivalence test.
  static SparseLinks ComputeDeliveryDense(const std::vector<Point>& positions,
                                          const PropagationOptions& prop, double range,
                                          uint64_t link_seed);

  /// Number of nodes, including the basestation.
  int num_nodes() const { return static_cast<int>(positions_.size()); }

  /// The basestation id (always 0 by convention).
  NodeId base_id() const { return 0; }

  /// Delivery probability of a packet sent by `from` arriving at `to`
  /// (0 if inaudible): a binary search of `from`'s CSR row.
  double delivery_prob(NodeId from, NodeId to) const {
    std::span<const Link> row = audible_from(from);
    auto it = std::lower_bound(row.begin(), row.end(), to,
                               [](const Link& l, NodeId t) { return l.to < t; });
    return (it != row.end() && it->to == to) ? it->prob : 0.0;
  }

  /// The audible out-links of `from` (delivery probability > 0), in
  /// ascending receiver id -- the order the radio's delivery walk draws
  /// its per-link Bernoullis in.
  std::span<const Link> audible_from(NodeId from) const {
    return {out_links_.data() + out_offsets_[from],
            out_links_.data() + out_offsets_[static_cast<size_t>(from) + 1]};
  }

  /// Position of `from`'s first out-link in the CSR link storage: the link
  /// audible_from(from)[i] sits at link_index(from) + i, a dense id in
  /// [0, num_links()) that per-link state can be indexed by.
  size_t link_index(NodeId from) const { return out_offsets_[from]; }

  /// Number of audible directed links.
  size_t num_links() const { return out_links_.size(); }

  /// Senders whose delivery probability to `to` clears
  /// kInterferenceThreshold: the only nodes whose transmissions `to` can
  /// carrier-sense or be corrupted by. Sparse-list form below the audible
  /// density threshold, bitmap form above it (InterfererSet picks).
  const InterfererSet& interferers(NodeId to) const { return interferers_[to]; }

  /// All precomputed interferer sets, indexed by receiver (the radio keeps
  /// one pointer to whichever vector -- this or a custom-threshold rebuild
  /// -- it runs on).
  const std::vector<InterfererSet>& interferer_sets() const { return interferers_; }

  /// Per-receiver interferer sets for a non-default threshold (the
  /// precomputed `interferers()` cover the default).
  std::vector<InterfererSet> BuildInterfererSets(double threshold) const;

  /// Position of `id` in meters.
  const Point& position(NodeId id) const { return positions_[id]; }

  /// All node positions.
  const std::vector<Point>& positions() const { return positions_; }

  /// Average fraction of the network a node can hear (links with delivery
  /// probability >= threshold). O(links).
  double AvgNeighborFraction(double threshold) const;

  /// True iff every node is reachable *from* the base and can reach the
  /// base over directed links with delivery >= threshold. (Asymmetric
  /// shadowing can leave clusters with outbound-only links; those are not
  /// usable networks.) O(links).
  bool IsConnected(double threshold) const;

  /// Mean hop distance from `from` to all other nodes over audible links
  /// (used by the analytical HASH model).
  double MeanHopsFrom(NodeId from, double threshold) const;

 private:
  Topology(std::vector<Point> positions, SparseLinks links);

  // Sparse forms of the public queries, so the generators' range-tuning
  // loops can accept/reject candidate link sets without paying the index
  // build for topologies they are about to discard.
  static bool ConnectedAt(const SparseLinks& links, int n, double threshold);
  static double NeighborFractionAt(const SparseLinks& links, int n, double threshold);

  std::vector<Point> positions_;
  /// CSR audible-neighbor index: node i's out-links are
  /// out_links_[out_offsets_[i] .. out_offsets_[i+1]).
  std::vector<uint32_t> out_offsets_;
  std::vector<Link> out_links_;
  /// Per-receiver interferer sets at kInterferenceThreshold.
  std::vector<InterfererSet> interferers_;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_TOPOLOGY_H_
