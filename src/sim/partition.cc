#include "sim/partition.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace scoop::sim {

namespace {

/// Node ids sorted along the longer bounding-box axis (ties by id); the
/// strip partitioner slices this order, and the min-cut partitioner takes
/// its seeds from it so the K regions start spatially spread out.
std::vector<NodeId> AxisOrder(const Topology& topology) {
  int n = topology.num_nodes();
  const std::vector<Point>& pos = topology.positions();
  double min_x = pos[0].x, max_x = pos[0].x, min_y = pos[0].y, max_y = pos[0].y;
  for (const Point& p : pos) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  bool by_x = (max_x - min_x) >= (max_y - min_y);
  std::vector<NodeId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    double ca = by_x ? pos[a].x : pos[a].y;
    double cb = by_x ? pos[b].x : pos[b].y;
    if (ca != cb) return ca < cb;
    return a < b;
  });
  return order;
}

/// Contiguous strips along the longer bounding-box axis: equal node
/// counts, spatially compact, so only strip-boundary links cross shards.
std::vector<int> PartitionStrip(const Topology& topology, int shards) {
  int n = topology.num_nodes();
  std::vector<int> owner(static_cast<size_t>(n), 0);
  std::vector<NodeId> order = AxisOrder(topology);
  for (int j = 0; j < n; ++j) {
    owner[order[j]] = static_cast<int>(static_cast<int64_t>(j) * shards / n);
  }
  return owner;
}

/// Undirected union of the audible in/out link sets: shadowing can make
/// an audible link one-directional, but either direction forces announce
/// mirroring, so the cut objective treats the graph as undirected.
std::vector<std::vector<NodeId>> UndirectedAdjacency(const Topology& topology) {
  int n = topology.num_nodes();
  std::vector<std::vector<NodeId>> adj(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (const Topology::Link& link : topology.audible_from(u)) {
      if (link.to == u) continue;
      adj[u].push_back(link.to);
      adj[link.to].push_back(u);
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

/// True iff `part` minus `removed` is still one connected component in
/// `adj` (vacuously true when nothing else is in the part). `in_part`
/// answers membership for the CURRENT owner vector; `scratch` is a
/// reusable visited map sized n.
bool StillConnectedWithout(const std::vector<std::vector<NodeId>>& adj,
                           const std::vector<int>& owner, int part, NodeId removed,
                           int part_size, std::vector<NodeId>* stack,
                           std::vector<uint8_t>* visited) {
  if (part_size <= 2) return true;  // 0 or 1 remaining nodes.
  NodeId start = kInvalidNodeId;
  int n = static_cast<int>(owner.size());
  for (NodeId v = 0; v < n; ++v) {
    if (v != removed && owner[v] == part) {
      start = v;
      break;
    }
  }
  if (start == kInvalidNodeId) return true;
  std::fill(visited->begin(), visited->end(), 0);
  stack->clear();
  stack->push_back(start);
  (*visited)[start] = 1;
  int seen = 1;
  while (!stack->empty()) {
    NodeId v = stack->back();
    stack->pop_back();
    for (NodeId w : adj[v]) {
      if (w == removed || owner[w] != part || (*visited)[w]) continue;
      (*visited)[w] = 1;
      ++seen;
      stack->push_back(w);
    }
  }
  return seen == part_size - 1;
}

/// Kernighan-Lin-style boundary refinement: move a boundary node to the
/// adjacent part holding most of its neighbors when that strictly cuts
/// the edge count, stays under the balance cap, never empties a part,
/// and never disconnects the part it leaves. Monotone in the cut, so
/// CutEdges(refined) <= CutEdges(input).
void KlRefine(const std::vector<std::vector<NodeId>>& adj, int k, int cap,
              std::vector<int>* owner, std::vector<int>* size) {
  const int n = static_cast<int>(owner->size());
  std::vector<NodeId> stack;
  std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
  std::vector<int> nbr_count(static_cast<size_t>(k), 0);
  constexpr int kMaxPasses = 8;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    for (NodeId u = 0; u < n; ++u) {
      const int a = (*owner)[u];
      if ((*size)[a] <= 1) continue;
      int best = -1;
      for (NodeId v : adj[u]) nbr_count[(*owner)[v]]++;
      for (NodeId v : adj[u]) {
        int j = (*owner)[v];
        if (j != a && nbr_count[j] > nbr_count[a] && (*size)[j] + 1 <= cap &&
            (best < 0 || nbr_count[j] > nbr_count[best] ||
             (nbr_count[j] == nbr_count[best] && j < best))) {
          best = j;
        }
      }
      bool ok = best >= 0 && StillConnectedWithout(adj, *owner, a, u, (*size)[a],
                                                   &stack, &visited);
      for (NodeId v : adj[u]) nbr_count[(*owner)[v]] = 0;
      if (!ok) continue;
      (*owner)[u] = best;
      --(*size)[a];
      ++(*size)[best];
      moved = true;
    }
    if (!moved) break;
  }
}

/// True iff every non-empty part induces one connected component of `adj`.
bool AllPartsConnected(const std::vector<std::vector<NodeId>>& adj,
                       const std::vector<int>& owner, int k) {
  const int n = static_cast<int>(owner.size());
  std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
  std::vector<NodeId> stack;
  std::vector<int> seen(static_cast<size_t>(k), 0);
  std::vector<int> size(static_cast<size_t>(k), 0);
  for (int o : owner) ++size[o];
  for (NodeId u = 0; u < n; ++u) {
    const int part = owner[u];
    if (visited[u] || seen[part] > 0) continue;
    // BFS the component of the first node met in each part; the part is
    // connected iff that component covers it entirely.
    stack.assign(1, u);
    visited[u] = 1;
    int reached = 1;
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : adj[v]) {
        if (owner[w] != part || visited[w]) continue;
        visited[w] = 1;
        ++reached;
        stack.push_back(w);
      }
    }
    seen[part] = reached;
  }
  for (int j = 0; j < k; ++j) {
    if (seen[j] != size[j]) return false;
  }
  return true;
}

std::vector<int> PartitionMincut(const Topology& topology, int shards) {
  const int n = topology.num_nodes();
  const int k = shards;
  std::vector<std::vector<NodeId>> adj = UndirectedAdjacency(topology);

  // Growth caps: fair share, the first n%K parts carrying the remainder.
  // Refinement (and the adjacency-preserving leftover pass) may exceed the
  // fair share by `slack`, which is the documented imbalance bound.
  const int base = n / k;
  const int rem = n % k;
  const int slack = std::max(1, n / (8 * k));
  const int cap_refine = (n + k - 1) / k + slack;

  std::vector<int> owner(static_cast<size_t>(n), -1);
  std::vector<int> size(static_cast<size_t>(k), 0);
  auto cap_grow = [&](int j) { return base + (j < rem ? 1 : 0); };

  // Seeds at the strip centers: spatially spread starting points, so the
  // grown regions resemble compact tiles instead of interleaved fingers.
  std::vector<NodeId> order = AxisOrder(topology);
  // score[j][v]: how many of v's neighbors part j already owns (0 for
  // members); the growth frontier ranking.
  std::vector<std::vector<int>> score(static_cast<size_t>(k),
                                      std::vector<int>(static_cast<size_t>(n), 0));
  auto assign = [&](NodeId u, int j) {
    owner[u] = j;
    ++size[j];
    for (NodeId v : adj[u]) {
      if (owner[v] < 0) ++score[j][v];
    }
  };
  for (int j = 0; j < k; ++j) {
    NodeId seed = order[static_cast<size_t>((2 * j + 1) * static_cast<int64_t>(n) /
                                            (2 * k))];
    SCOOP_CHECK(owner[seed] < 0);  // Seed indices are strictly increasing.
    assign(seed, j);
  }

  // Round-robin best-frontier growth: each part repeatedly claims the
  // unassigned node with the most edges into it (ties to the lowest id),
  // until its cap is met or its frontier is exhausted.
  bool grew = true;
  while (grew) {
    grew = false;
    for (int j = 0; j < k; ++j) {
      if (size[j] >= cap_grow(j)) continue;
      NodeId best = kInvalidNodeId;
      int best_score = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (owner[v] < 0 && score[j][v] > best_score) {
          best = v;
          best_score = score[j][v];
        }
      }
      if (best == kInvalidNodeId) continue;
      assign(best, j);
      grew = true;
    }
  }

  // Leftovers (walled-in parts): waves of assignments to an ADJACENT part,
  // preferring the smallest one still under the refinement cap, so parts
  // stay connected whenever the graph allows it. When every adjacent part
  // is full (a pocket between capped regions), overflow ONE node into the
  // smallest adjacent part and retry the capped wave -- connectivity is a
  // hard invariant here, balance is restored by the rebalance pass below.
  // Only nodes with no path to any seed (disconnected graphs) fall through
  // to the smallest-part dump.
  for (;;) {
    bool progress = false;
    for (size_t i = 0; i < order.size(); ++i) {
      NodeId u = order[i];
      if (owner[u] >= 0) continue;
      int best = -1;
      for (NodeId v : adj[u]) {
        int j = owner[v];
        if (j < 0 || size[j] >= cap_refine) continue;
        if (best < 0 || size[j] < size[best]) best = j;
      }
      if (best < 0) continue;
      assign(u, best);
      progress = true;
    }
    if (progress) continue;
    NodeId spill = kInvalidNodeId;
    int spill_part = -1;
    for (size_t i = 0; i < order.size() && spill == kInvalidNodeId; ++i) {
      NodeId u = order[i];
      if (owner[u] >= 0) continue;
      for (NodeId v : adj[u]) {
        int j = owner[v];
        if (j < 0) continue;
        if (spill_part < 0 || size[j] < size[spill_part]) {
          spill = u;
          spill_part = j;
        }
      }
    }
    if (spill == kInvalidNodeId) break;  // Nothing left touches the regions.
    assign(spill, spill_part);
  }
  for (NodeId u = 0; u < n; ++u) {
    if (owner[u] >= 0) continue;
    int best = 0;
    for (int j = 1; j < k; ++j) {
      if (size[j] < size[best]) best = j;
    }
    assign(u, best);
  }

  // Rebalance any part the overflow attach pushed past the cap: shed
  // boundary nodes to strictly smaller adjacent parts without
  // disconnecting the donor. The sum-of-squares potential of the size
  // vector strictly decreases per move, so the loop terminates.
  {
    std::vector<NodeId> stack;
    std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
    for (bool moved = true; moved;) {
      moved = false;
      for (NodeId u = 0; u < n; ++u) {
        const int a = owner[u];
        if (size[a] <= cap_refine) continue;
        int best = -1;
        for (NodeId v : adj[u]) {
          int j = owner[v];
          if (j == a || size[j] + 1 >= size[a]) continue;
          if (best < 0 || size[j] < size[best]) best = j;
        }
        if (best < 0 ||
            !StillConnectedWithout(adj, owner, a, u, size[a], &stack, &visited)) {
          continue;
        }
        owner[u] = best;
        --size[a];
        ++size[best];
        moved = true;
      }
    }
  }

  KlRefine(adj, k, cap_refine, &owner, &size);

  // The grown tiling usually beats coordinate strips, but not always (a
  // straight K=2 bisection of a uniform grid is already near-optimal, and
  // greedy blob boundaries wiggle). Refine the strip assignment with the
  // same local moves and keep whichever connected candidate cuts fewer
  // edges -- this also guarantees mincut never loses to strip when the
  // strip parts are connected.
  std::vector<int> strip = PartitionStrip(topology, shards);
  if (AllPartsConnected(adj, strip, k)) {
    std::vector<int> strip_size(static_cast<size_t>(k), 0);
    for (int o : strip) ++strip_size[o];
    KlRefine(adj, k, cap_refine, &strip, &strip_size);
    if (CutEdges(topology, strip) < CutEdges(topology, owner)) return strip;
  }
  return owner;
}

}  // namespace

const char* PartitionKindName(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kStrip:
      return "strip";
    case PartitionKind::kMincut:
      return "mincut";
  }
  return "?";
}

std::vector<int> PartitionNodes(const Topology& topology, int shards,
                                PartitionKind kind) {
  int n = topology.num_nodes();
  if (shards <= 1 || n == 0) return std::vector<int>(static_cast<size_t>(n), 0);
  // With K >= n every assignment is maximally cut anyway; the strip
  // degenerate (distinct near-singleton parts, some empty) is fine.
  if (kind == PartitionKind::kStrip || shards >= n) {
    return PartitionStrip(topology, shards);
  }
  return PartitionMincut(topology, shards);
}

uint64_t CutEdges(const Topology& topology, const std::vector<int>& owner) {
  uint64_t cut = 0;
  int n = topology.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const Topology::Link& link : topology.audible_from(u)) {
      if (owner[u] != owner[link.to]) ++cut;
    }
  }
  return cut;
}

double PartitionImbalance(const std::vector<int>& owner, int shards) {
  if (owner.empty() || shards <= 0) return 1.0;
  std::vector<int> size(static_cast<size_t>(shards), 0);
  for (int o : owner) ++size[o];
  int max_size = *std::max_element(size.begin(), size.end());
  return static_cast<double>(max_size) * static_cast<double>(shards) /
         static_cast<double>(owner.size());
}

}  // namespace scoop::sim
