#include "sim/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"

namespace scoop::sim {

namespace {

double Distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// True iff a BFS from node 0 over `row(u)` links with prob >= threshold
/// reaches every node. The one reachability loop every connectivity check
/// shares; `row` returns an iterable of Topology::Link.
template <typename RowFn>
bool ReachesAllFromBase(size_t n, double threshold, RowFn&& row) {
  std::vector<bool> seen(n, false);
  std::queue<int> frontier;
  frontier.push(0);
  seen[0] = true;
  size_t reached = 1;
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    for (const Topology::Link& link : row(static_cast<size_t>(u))) {
      if (link.prob < threshold || seen[link.to]) continue;
      seen[link.to] = true;
      ++reached;
      frontier.push(link.to);
    }
  }
  return reached == n;
}

/// Reverse adjacency restricted to links with prob >= threshold.
template <typename RowFn>
Topology::SparseLinks TransposeAbove(size_t n, double threshold, RowFn&& row) {
  Topology::SparseLinks reverse(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Topology::Link& link : row(from)) {
      if (link.prob >= threshold) {
        reverse[link.to].push_back(
            Topology::Link{static_cast<NodeId>(from), link.prob});
      }
    }
  }
  return reverse;
}

/// Delivery probability of the directed pair (from, to) at distance `d`.
/// The lognormal shadowing draw comes from a generator keyed on
/// (link_seed, from, to), so any enumeration order produces the same link.
double PairDelivery(const PropagationOptions& prop, uint64_t link_seed, NodeId from,
                    NodeId to, double d, double range) {
  double base = prop.max_delivery * (1.0 - std::pow(d / range, prop.falloff_exp));
  uint64_t pair_key = (static_cast<uint64_t>(from) << 32) | to;
  Rng rng(MixSeed(link_seed, pair_key), /*stream=*/pair_key);
  double noisy = base * std::exp(rng.Gaussian(0.0, prop.shadowing_sigma));
  noisy = std::min(noisy, prop.max_delivery);
  return (noisy < prop.min_delivery) ? 0.0 : noisy;
}

}  // namespace

Topology::SparseLinks Topology::ComputeDelivery(const std::vector<Point>& positions,
                                                const PropagationOptions& prop,
                                                double range, uint64_t link_seed) {
  size_t n = positions.size();
  SparseLinks links(n);
  if (n < 2 || range <= 0.0) return links;

  // Uniform grid hash over the bounding box. Cells are at least one radio
  // range wide, so a node's in-range partners all sit in its 3x3 cell
  // neighborhood.
  double min_x = std::numeric_limits<double>::infinity(), min_y = min_x;
  double max_x = -min_x, max_y = -min_x;
  for (const Point& p : positions) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  double extent_x = max_x - min_x;
  double extent_y = max_y - min_y;
  // Correctness only needs cell >= range (a 3x3 neighborhood then covers
  // the range); doubling the cell until the grid holds O(N) cells bounds
  // the allocation for any extent or aspect ratio -- collinear or
  // kilometer-long deployments with a tiny range included -- at the price
  // of more candidates per neighborhood. All-double arithmetic: the int
  // casts below only happen once the per-dimension counts are small.
  double cell = range;
  while ((std::floor(extent_x / cell) + 1.0) * (std::floor(extent_y / cell) + 1.0) >
         4.0 * static_cast<double>(n) + 64.0) {
    cell *= 2.0;
  }
  int grid_w = static_cast<int>(extent_x / cell) + 1;
  int grid_h = static_cast<int>(extent_y / cell) + 1;
  auto cell_of = [&](const Point& p) {
    int cx = std::min(static_cast<int>((p.x - min_x) / cell), grid_w - 1);
    int cy = std::min(static_cast<int>((p.y - min_y) / cell), grid_h - 1);
    return static_cast<size_t>(cy) * static_cast<size_t>(grid_w) + static_cast<size_t>(cx);
  };

  // Counting-sort nodes into cells: start[c] .. start[c+1] indexes items.
  size_t num_cells = static_cast<size_t>(grid_w) * static_cast<size_t>(grid_h);
  std::vector<uint32_t> node_cell(n);
  std::vector<uint32_t> start(num_cells + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    node_cell[i] = static_cast<uint32_t>(cell_of(positions[i]));
    ++start[node_cell[i] + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) start[c + 1] += start[c];
  std::vector<uint32_t> items(n);
  std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
  for (size_t i = 0; i < n; ++i) items[cursor[node_cell[i]]++] = static_cast<uint32_t>(i);

  for (size_t i = 0; i < n; ++i) {
    int cx = static_cast<int>(node_cell[i] % static_cast<uint32_t>(grid_w));
    int cy = static_cast<int>(node_cell[i] / static_cast<uint32_t>(grid_w));
    std::vector<Link>& out = links[i];
    for (int dy = -1; dy <= 1; ++dy) {
      int ny = cy + dy;
      if (ny < 0 || ny >= grid_h) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        int nx = cx + dx;
        if (nx < 0 || nx >= grid_w) continue;
        size_t c = static_cast<size_t>(ny) * static_cast<size_t>(grid_w) +
                   static_cast<size_t>(nx);
        for (uint32_t k = start[c]; k < start[c + 1]; ++k) {
          size_t j = items[k];
          if (j == i) continue;
          double d = Distance(positions[i], positions[j]);
          if (d >= range) continue;
          double p = PairDelivery(prop, link_seed, static_cast<NodeId>(i),
                                  static_cast<NodeId>(j), d, range);
          if (p > 0.0) out.push_back(Link{static_cast<NodeId>(j), p});
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const Link& a, const Link& b) { return a.to < b.to; });
  }
  return links;
}

Topology::SparseLinks Topology::ComputeDeliveryDense(const std::vector<Point>& positions,
                                                     const PropagationOptions& prop,
                                                     double range, uint64_t link_seed) {
  size_t n = positions.size();
  SparseLinks links(n);
  if (n < 2 || range <= 0.0) return links;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double d = Distance(positions[i], positions[j]);
      if (d >= range) continue;
      double p = PairDelivery(prop, link_seed, static_cast<NodeId>(i),
                              static_cast<NodeId>(j), d, range);
      if (p > 0.0) links[i].push_back(Link{static_cast<NodeId>(j), p});
    }
  }
  return links;
}

Topology::Topology(std::vector<Point> positions, SparseLinks links)
    : positions_(std::move(positions)) {
  size_t n = positions_.size();
  SCOOP_CHECK_EQ(links.size(), n);

  // CSR audible-neighbor lists straight from the sparse rows (ascending
  // receiver, no self-links: a self-link would add a self Bernoulli draw
  // in the radio's delivery walk and break reproducibility).
  size_t audible = 0;
  for (const auto& row : links) audible += row.size();
  out_offsets_.assign(n + 1, 0);
  out_links_.reserve(audible);
  for (size_t from = 0; from < n; ++from) {
    out_offsets_[from] = static_cast<uint32_t>(out_links_.size());
    for (size_t k = 0; k < links[from].size(); ++k) {
      const Link& link = links[from][k];
      SCOOP_CHECK_NE(static_cast<size_t>(link.to), from);
      SCOOP_CHECK_LT(static_cast<size_t>(link.to), n);
      SCOOP_CHECK_GT(link.prob, 0.0);
      if (k > 0) SCOOP_CHECK_GT(link.to, links[from][k - 1].to);
      out_links_.push_back(link);
    }
  }
  out_offsets_[n] = static_cast<uint32_t>(out_links_.size());

  interferers_ = BuildInterfererSets(kInterferenceThreshold);
}

std::vector<InterfererSet> Topology::BuildInterfererSets(double threshold) const {
  size_t n = positions_.size();
  // Walking senders in ascending id keeps every receiver's list sorted
  // without a per-receiver sort.
  std::vector<std::vector<NodeId>> lists(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Link& link : audible_from(static_cast<NodeId>(from))) {
      if (link.prob >= threshold) lists[link.to].push_back(static_cast<NodeId>(from));
    }
  }
  std::vector<InterfererSet> sets;
  sets.reserve(n);
  for (size_t to = 0; to < n; ++to) {
    sets.push_back(InterfererSet::Of(std::move(lists[to]), static_cast<int>(n)));
  }
  return sets;
}

Topology Topology::MakeRandom(const RandomTopologyOptions& options) {
  SCOOP_CHECK_GE(options.num_nodes, 2);
  Rng rng(options.seed, /*stream=*/0x70F0);
  std::vector<Point> positions(static_cast<size_t>(options.num_nodes));
  // Basestation near a corner of the area, like a sink at the edge of a
  // deployment.
  positions[0] = Point{options.area_width * 0.05, options.area_height * 0.05};
  for (int i = 1; i < options.num_nodes; ++i) {
    positions[static_cast<size_t>(i)] =
        Point{rng.UniformDouble() * options.area_width,
              rng.UniformDouble() * options.area_height};
  }

  double range = options.radio_range;
  // Tune range to the requested mean neighbor fraction, then grow it until
  // the network is connected.
  for (int attempt = 0; attempt < 40; ++attempt) {
    uint64_t link_seed = MixSeed(options.seed, 7 + static_cast<uint64_t>(attempt));
    SparseLinks links =
        ComputeDelivery(positions, options.propagation, range, link_seed);
    int n = options.num_nodes;
    bool connected = ConnectedAt(links, n, 0.1);
    if (connected && options.target_neighbor_fraction > 0) {
      double frac = NeighborFractionAt(links, n, 0.1);
      if (frac > options.target_neighbor_fraction * 1.25) {
        range *= 0.93;
        continue;
      }
      if (frac < options.target_neighbor_fraction * 0.75) {
        range *= 1.08;
        continue;
      }
    }
    if (connected) return Topology(positions, std::move(links));
    range *= 1.12;
  }
  // Last resort: huge range; always connected.
  uint64_t link_seed = MixSeed(options.seed, 999);
  SparseLinks links =
      ComputeDelivery(positions, options.propagation, range * 4, link_seed);
  return Topology(positions, std::move(links));
}

Topology Topology::MakeTestbed(const TestbedTopologyOptions& options) {
  SCOOP_CHECK_GE(options.num_nodes, 2);
  Rng rng(options.seed, /*stream=*/0xBED);
  int n = options.num_nodes;
  std::vector<Point> positions(static_cast<size_t>(n));
  // Base near the left end of the floor (the paper's PC-attached mote).
  positions[0] = Point{1.5, options.floor_width / 2};
  // Motes laid out roughly in a grid down the floor (offices along a
  // corridor), with placement jitter.
  int rows = std::max(2, static_cast<int>(std::floor(options.floor_width / 4.5)));
  int cols = (n - 2 + rows) / rows;
  double dx = options.floor_length / (cols + 1);
  double dy = options.floor_width / (rows + 1);
  for (int i = 1; i < n; ++i) {
    int k = i - 1;
    int c = k / rows;
    int r = k % rows;
    double jx = rng.Gaussian(0, dx * 0.18);
    double jy = rng.Gaussian(0, dy * 0.18);
    positions[static_cast<size_t>(i)] =
        Point{std::clamp((c + 1) * dx + jx, 0.0, options.floor_length),
              std::clamp((r + 1) * dy + jy, 0.0, options.floor_width)};
  }

  double range = options.radio_range;
  for (int attempt = 0; attempt < 40; ++attempt) {
    uint64_t link_seed = MixSeed(options.seed, 1000 + static_cast<uint64_t>(attempt));
    SparseLinks links =
        ComputeDelivery(positions, options.propagation, range, link_seed);
    if (ConnectedAt(links, n, 0.1)) return Topology(positions, std::move(links));
    range *= 1.12;
  }
  uint64_t link_seed = MixSeed(options.seed, 2999);
  SparseLinks links =
      ComputeDelivery(positions, options.propagation, range * 4, link_seed);
  return Topology(positions, std::move(links));
}

Topology Topology::MakeGrid(const GridTopologyOptions& options) {
  SCOOP_CHECK_GE(options.num_nodes, 2);
  SCOOP_CHECK_GT(options.spacing, 0.0);
  Rng rng(options.seed, /*stream=*/0x6B1D);
  int n = options.num_nodes;
  int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<Point> positions(static_cast<size_t>(n));
  // Node 0 (the basestation) sits at the (0, 0) corner of the lattice;
  // sensors fill the grid row-major with a little placement jitter.
  for (int i = 0; i < n; ++i) {
    int r = i / cols;
    int c = i % cols;
    double jx = (i == 0) ? 0.0 : rng.Gaussian(0, options.spacing * options.jitter_fraction);
    double jy = (i == 0) ? 0.0 : rng.Gaussian(0, options.spacing * options.jitter_fraction);
    positions[static_cast<size_t>(i)] =
        Point{std::max(0.0, c * options.spacing + jx), std::max(0.0, r * options.spacing + jy)};
  }

  double range = options.radio_range;
  for (int attempt = 0; attempt < 40; ++attempt) {
    uint64_t link_seed = MixSeed(options.seed, 3000 + static_cast<uint64_t>(attempt));
    SparseLinks links =
        ComputeDelivery(positions, options.propagation, range, link_seed);
    if (ConnectedAt(links, n, 0.1)) return Topology(positions, std::move(links));
    range *= 1.12;
  }
  uint64_t link_seed = MixSeed(options.seed, 3999);
  SparseLinks links =
      ComputeDelivery(positions, options.propagation, range * 4, link_seed);
  return Topology(positions, std::move(links));
}

Topology Topology::FromMatrix(std::vector<Point> positions,
                              std::vector<std::vector<double>> delivery) {
  SCOOP_CHECK_EQ(positions.size(), delivery.size());
  size_t n = positions.size();
  SparseLinks links(n);
  for (size_t from = 0; from < n; ++from) {
    SCOOP_CHECK_EQ(delivery[from].size(), n);
    SCOOP_CHECK_EQ(delivery[from][from], 0.0);
    for (size_t to = 0; to < n; ++to) {
      if (delivery[from][to] > 0.0) {
        links[from].push_back(Link{static_cast<NodeId>(to), delivery[from][to]});
      }
    }
  }
  return Topology(std::move(positions), std::move(links));
}

double Topology::NeighborFractionAt(const SparseLinks& links, int n, double threshold) {
  if (n <= 1) return 0;
  long total = 0;
  for (const auto& row : links) {
    for (const Link& link : row) {
      if (link.prob >= threshold) ++total;
    }
  }
  return static_cast<double>(total) / (static_cast<double>(n) * (n - 1));
}

double Topology::AvgNeighborFraction(double threshold) const {
  int n = num_nodes();
  if (n <= 1) return 0;
  long total = 0;
  for (const Link& link : out_links_) {
    if (link.prob >= threshold) ++total;
  }
  return static_cast<double>(total) / (static_cast<double>(n) * (n - 1));
}

bool Topology::ConnectedAt(const SparseLinks& links, int n, double threshold) {
  // `forward` follows edges u->v (base pushes data out); `reverse` follows
  // v->u (data flows toward the base). Both must span the network; each
  // BFS is O(links).
  size_t un = static_cast<size_t>(n);
  auto forward = [&links](size_t u) -> const std::vector<Link>& { return links[u]; };
  if (!ReachesAllFromBase(un, threshold, forward)) return false;
  SparseLinks reverse = TransposeAbove(un, threshold, forward);
  return ReachesAllFromBase(
      un, threshold, [&reverse](size_t u) -> const std::vector<Link>& { return reverse[u]; });
}

bool Topology::IsConnected(double threshold) const {
  // Forward pass straight off the CSR; the reverse pass builds the one
  // adjacency the index lacks.
  size_t n = positions_.size();
  auto forward = [this](size_t u) { return audible_from(static_cast<NodeId>(u)); };
  if (!ReachesAllFromBase(n, threshold, forward)) return false;
  SparseLinks reverse = TransposeAbove(n, threshold, forward);
  return ReachesAllFromBase(
      n, threshold, [&reverse](size_t u) -> const std::vector<Link>& { return reverse[u]; });
}

double Topology::MeanHopsFrom(NodeId from, double threshold) const {
  int n = num_nodes();
  std::vector<int> dist(static_cast<size_t>(n), -1);
  std::queue<int> frontier;
  dist[from] = 0;
  frontier.push(from);
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    for (const Link& link : audible_from(static_cast<NodeId>(u))) {
      if (link.prob < threshold) continue;
      if (dist[link.to] >= 0) continue;
      dist[link.to] = dist[static_cast<size_t>(u)] + 1;
      frontier.push(link.to);
    }
  }
  double sum = 0;
  int count = 0;
  for (int v = 0; v < n; ++v) {
    if (v != from && dist[static_cast<size_t>(v)] > 0) {
      sum += dist[static_cast<size_t>(v)];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace scoop::sim
