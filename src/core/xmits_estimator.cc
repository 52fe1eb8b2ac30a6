#include "core/xmits_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"

namespace scoop::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

XmitsEstimator::XmitsEstimator(int num_nodes, const XmitsOptions& options)
    : num_nodes_(num_nodes),
      options_(options),
      edges_(static_cast<size_t>(num_nodes)),
      csr_offsets_(static_cast<size_t>(num_nodes) + 1, 0),
      pending_(static_cast<size_t>(num_nodes)),
      pending_flag_(static_cast<size_t>(num_nodes), 0) {
  SCOOP_CHECK_GT(num_nodes, 0);
  // Reserve the all-pairs matrix here rather than in the first Build(): a
  // base agent is constructed on the caller's thread but first builds on a
  // sharded-engine worker. Workers are new every run and glibc hands each
  // one whichever malloc arena is free, so a block first allocated there
  // lands in a different arena from trial to trial, and every arena it
  // visits keeps its own 8 MB copy (N = 1024) resident. The reserved pages
  // stay untouched until Build() fills them.
  dist_.reserve(static_cast<size_t>(num_nodes) * static_cast<size_t>(num_nodes));
}

void XmitsEstimator::Clear() {
  for (uint32_t s : pending_sources_) {
    pending_[s].clear();
    pending_flag_[s] = 0;
  }
  pending_sources_.clear();
  cleared_ = true;
  built_ = false;
}

void XmitsEstimator::AddLink(NodeId from, NodeId to, double quality) {
  SCOOP_CHECK_LT(static_cast<int>(from), num_nodes_);
  SCOOP_CHECK_LT(static_cast<int>(to), num_nodes_);
  if (from == to) return;
  if (quality < options_.min_quality) return;
  double etx = std::min(1.0 / quality, options_.max_link_etx);
  if (!pending_flag_[from]) {
    pending_flag_[from] = 1;
    pending_sources_.push_back(from);
  }
  pending_[from].push_back(PendingEdge{to, etx, /*tree=*/false});
  built_ = false;
}

void XmitsEstimator::AddTreeEdge(NodeId node, NodeId parent, double assumed_quality) {
  if (node == parent) return;
  if (static_cast<int>(node) >= num_nodes_ || static_cast<int>(parent) >= num_nodes_) return;
  double etx = std::min(1.0 / assumed_quality, options_.max_link_etx);
  for (auto [from, to] : {std::pair{node, parent}, std::pair{parent, node}}) {
    if (!pending_flag_[from]) {
      pending_flag_[from] = 1;
      pending_sources_.push_back(from);
    }
    pending_[from].push_back(PendingEdge{to, etx, /*tree=*/true});
  }
  built_ = false;
}

void XmitsEstimator::FoldPending(int source) {
  // Committed entries (none if Clear() intervened) come first, then staged
  // mutations in insertion order; a stable sort by receiver keeps that
  // order within each receiver so the fold below applies the original
  // sequential semantics: first entry wins the slot, later tree edges
  // never overwrite, later measured links take the min.
  static const std::vector<Edge> kNoEdges;
  const std::vector<Edge>& base = cleared_ ? kNoEdges : edges_[static_cast<size_t>(source)];
  std::vector<PendingEdge>& merged = merge_scratch_;
  merged.clear();
  merged.reserve(base.size() + pending_[source].size());
  for (const Edge& e : base) merged.push_back(PendingEdge{e.to, e.etx, /*tree=*/false});
  merged.insert(merged.end(), pending_[source].begin(), pending_[source].end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const PendingEdge& a, const PendingEdge& b) { return a.to < b.to; });

  std::vector<Edge>& folded = fold_scratch_;
  folded.clear();
  folded.reserve(merged.size());
  for (const PendingEdge& p : merged) {
    if (!folded.empty() && folded.back().to == p.to) {
      if (!p.tree) folded.back().etx = std::min(folded.back().etx, p.etx);
    } else {
      folded.push_back(Edge{p.to, p.etx});
    }
  }
}

void XmitsEstimator::RebuildCsr() {
  size_t n = static_cast<size_t>(num_nodes_);
  size_t total = 0;
  for (const auto& list : edges_) total += list.size();
  csr_offsets_.assign(n + 1, 0);
  csr_to_.clear();
  csr_to_.reserve(total);
  csr_etx_.clear();
  csr_etx_.reserve(total);
  for (size_t s = 0; s < n; ++s) {
    csr_offsets_[s] = static_cast<uint32_t>(csr_to_.size());
    for (const Edge& e : edges_[s]) {
      csr_to_.push_back(e.to);
      csr_etx_.push_back(e.etx);
    }
  }
  csr_offsets_[n] = static_cast<uint32_t>(csr_to_.size());

  // Reverse CSR via counting sort; entries index the forward arrays so a
  // weight patch on csr_etx_ is visible through both views.
  rev_offsets_.assign(n + 1, 0);
  for (NodeId to : csr_to_) ++rev_offsets_[static_cast<size_t>(to) + 1];
  for (size_t v = 0; v < n; ++v) rev_offsets_[v + 1] += rev_offsets_[v];
  rev_from_.resize(total);
  rev_edge_.resize(total);
  std::vector<uint32_t> cursor(rev_offsets_.begin(), rev_offsets_.end() - 1);
  for (size_t s = 0; s < n; ++s) {
    for (uint32_t k = csr_offsets_[s]; k < csr_offsets_[s + 1]; ++k) {
      uint32_t slot = cursor[csr_to_[k]]++;
      rev_from_[slot] = static_cast<NodeId>(s);
      rev_edge_[slot] = k;
    }
  }
}

void XmitsEstimator::RelaxFromHeap(double* dist, RepairHeap& heap) {
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (uint32_t k = csr_offsets_[u]; k < csr_offsets_[u + 1]; ++k) {
      NodeId v = csr_to_[k];
      double nd = d + csr_etx_[k];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace(nd, v);
      }
    }
  }
}

void XmitsEstimator::FullRow(int source) {
  size_t n = static_cast<size_t>(num_nodes_);
  double* dist = dist_.data() + static_cast<size_t>(source) * n;
  std::fill(dist, dist + n, kInf);
  RepairHeap heap;
  dist[source] = 0;
  heap.emplace(0.0, static_cast<NodeId>(source));
  RelaxFromHeap(dist, heap);
}

bool XmitsEstimator::DecreaseRepairRow(int source, const std::vector<EdgeDelta>& decreases) {
  size_t n = static_cast<size_t>(num_nodes_);
  double* dist = dist_.data() + static_cast<size_t>(source) * n;
  RepairHeap heap;
  // Seed with the direct improvements the new/cheaper edges offer; the
  // relaxation propagates cascaded improvements (an endpoint that itself
  // improves re-relaxes its out-edges when popped).
  for (const EdgeDelta& d : decreases) {
    double du = dist[d.from];
    if (du == kInf) continue;
    double nd = du + d.etx;
    if (nd < dist[d.to]) {
      dist[d.to] = nd;
      heap.emplace(nd, d.to);
    }
  }
  if (heap.empty()) return false;
  RelaxFromHeap(dist, heap);
  return true;
}

bool XmitsEstimator::IncreaseRepairRow(int source, const std::vector<EdgeDelta>& increases) {
  size_t n = static_cast<size_t>(num_nodes_);
  double* dist = dist_.data() + static_cast<size_t>(source) * n;

  // Candidate-affected vertices, processed in ascending committed distance
  // so every potential supporter (strictly closer: etx >= 1) is classified
  // before its dependents.
  RepairHeap cand;
  enqueued_list_.clear();
  for (const EdgeDelta& d : increases) {
    double du = dist[d.from];
    // The worsened edge mattered to this row only if it was tight on a
    // shortest path: dist[from] + old_weight == dist[to] (optimality
    // forbids '<'; '>' means the edge was slack).
    if (du == kInf || dist[d.to] == kInf) continue;
    if (du + d.old_etx == dist[d.to] && !enqueued_[d.to]) {
      enqueued_[d.to] = 1;
      enqueued_list_.push_back(d.to);
      cand.emplace(dist[d.to], d.to);
    }
  }
  if (cand.empty()) return false;

  affected_list_.clear();
  while (!cand.empty()) {
    auto [dv, v] = cand.top();
    cand.pop();
    // Supported: some in-edge from an unaffected vertex still justifies
    // the committed value at the intermediate graph's weights.
    bool supported = (v == source);
    if (!supported) {
      for (uint32_t k = rev_offsets_[v]; k < rev_offsets_[v + 1] && !supported; ++k) {
        NodeId x = rev_from_[k];
        if (affected_[x] || dist[x] == kInf) continue;
        supported = dist[x] + csr_etx_[rev_edge_[k]] == dv;
      }
    }
    if (supported) continue;
    affected_[v] = 1;
    affected_list_.push_back(v);
    // Every vertex this one supported becomes a candidate.
    for (uint32_t k = csr_offsets_[v]; k < csr_offsets_[v + 1]; ++k) {
      NodeId y = csr_to_[k];
      if (enqueued_[y] || affected_[y] || dist[y] == kInf) continue;
      if (dv + csr_etx_[k] == dist[y]) {
        enqueued_[y] = 1;
        enqueued_list_.push_back(y);
        cand.emplace(dist[y], y);
      }
    }
  }

  bool changed = !affected_list_.empty();
  if (changed) {
    // Re-settle the affected set from the unaffected boundary.
    RepairHeap heap;
    for (NodeId v : affected_list_) dist[v] = kInf;
    for (NodeId v : affected_list_) {
      for (uint32_t k = rev_offsets_[v]; k < rev_offsets_[v + 1]; ++k) {
        NodeId x = rev_from_[k];
        if (affected_[x] || dist[x] == kInf) continue;
        double nd = dist[x] + csr_etx_[rev_edge_[k]];
        if (nd < dist[v]) dist[v] = nd;
      }
      if (dist[v] != kInf) heap.emplace(dist[v], v);
    }
    RelaxFromHeap(dist, heap);
  }

  // Reset the per-row scratch (touched entries only).
  for (NodeId v : affected_list_) affected_[v] = 0;
  for (NodeId v : enqueued_list_) enqueued_[v] = 0;
  return changed;
}

void XmitsEstimator::Build() {
  size_t n = static_cast<size_t>(num_nodes_);
  last_full_rows_ = 0;
  last_repaired_rows_ = 0;

  // Fold staged mutations and diff each touched source against the
  // committed graph. After Clear() every source with committed edges is a
  // candidate (its edges may have vanished).
  decreases_.clear();
  increases_.clear();
  size_t old_edge_count = csr_to_.size();
  bool edges_changed = false;
  auto diff_source = [&](int s) {
    FoldPending(s);
    const std::vector<Edge>& folded = fold_scratch_;
    const std::vector<Edge>& old = edges_[static_cast<size_t>(s)];
    size_t i = 0, j = 0;
    bool changed = false;
    while (i < old.size() || j < folded.size()) {
      if (j == folded.size() || (i < old.size() && old[i].to < folded[j].to)) {
        increases_.push_back(
            EdgeDelta{static_cast<NodeId>(s), old[i].to, kInf, old[i].etx});  // Removed.
        changed = true;
        ++i;
      } else if (i == old.size() || folded[j].to < old[i].to) {
        decreases_.push_back(
            EdgeDelta{static_cast<NodeId>(s), folded[j].to, folded[j].etx, kInf});  // New.
        changed = true;
        ++j;
      } else {
        if (folded[j].etx < old[i].etx) {
          decreases_.push_back(
              EdgeDelta{static_cast<NodeId>(s), folded[j].to, folded[j].etx, old[i].etx});
          changed = true;
        } else if (folded[j].etx > old[i].etx) {
          // A worsened edge can never improve a row (the committed row
          // already beat it at the old, cheaper weight): increase-only.
          increases_.push_back(
              EdgeDelta{static_cast<NodeId>(s), old[i].to, folded[j].etx, old[i].etx});
          changed = true;
        }
        ++i;
        ++j;
      }
    }
    if (changed) {
      // Only sources whose edge set actually changed pay an allocation.
      edges_[static_cast<size_t>(s)] = fold_scratch_;
      edges_changed = true;
    }
  };
  if (cleared_) {
    for (int s = 0; s < num_nodes_; ++s) diff_source(s);
  } else {
    for (uint32_t s : pending_sources_) diff_source(static_cast<int>(s));
  }
  for (uint32_t s : pending_sources_) {
    pending_[s].clear();
    pending_flag_[s] = 0;
  }
  pending_sources_.clear();
  cleared_ = false;

  bool first_build = dist_.empty();
  if (first_build) {
    dist_.assign(n * n, kInf);
    affected_.assign(n, 0);
    enqueued_.assign(n, 0);
  }

  if (!edges_changed && !first_build) {
    built_ = true;  // Same graph as last Build(): distances still hold.
    return;
  }
  if (edges_changed) RebuildCsr();

  // Wholesale graph replacement (first statistics after boot, a Clear()
  // whose re-ingest shares little with the committed graph): repair
  // bookkeeping would touch everything anyway, so run plain Dijkstras.
  size_t delta = increases_.size() + decreases_.size();
  bool wholesale =
      first_build || delta * 2 > std::max<size_t>(old_edge_count, csr_to_.size());
  if (wholesale) {
    for (size_t r = 0; r < n; ++r) FullRow(static_cast<int>(r));
    last_full_rows_ = static_cast<int>(n);
    built_ = true;
    return;
  }

  // Two-phase batched repair. Phase 1 must see the intermediate graph
  // (increases applied, decreases still at their committed weights), so
  // the decreased/new slots are patched back while it runs; the reverse
  // CSR reads through the same patched array.
  std::vector<uint8_t> row_changed(n, 0);
  if (!increases_.empty()) {
    std::vector<std::pair<uint32_t, double>> patches;  // (csr slot, new weight)
    patches.reserve(decreases_.size());
    for (const EdgeDelta& d : decreases_) {
      uint32_t lo = csr_offsets_[d.from];
      uint32_t hi = csr_offsets_[static_cast<size_t>(d.from) + 1];
      const NodeId* begin = csr_to_.data() + lo;
      const NodeId* end = csr_to_.data() + hi;
      const NodeId* pos = std::lower_bound(begin, end, d.to);
      uint32_t slot = lo + static_cast<uint32_t>(pos - begin);
      patches.emplace_back(slot, d.etx);
      csr_etx_[slot] = d.old_etx;  // kInf for brand-new edges: absent.
    }
    for (size_t r = 0; r < n; ++r) {
      if (IncreaseRepairRow(static_cast<int>(r), increases_)) row_changed[r] = 1;
    }
    for (const auto& [slot, etx] : patches) csr_etx_[slot] = etx;
  }
  if (!decreases_.empty()) {
    for (size_t r = 0; r < n; ++r) {
      if (DecreaseRepairRow(static_cast<int>(r), decreases_)) row_changed[r] = 1;
    }
  }
  for (size_t r = 0; r < n; ++r) last_repaired_rows_ += row_changed[r];
  built_ = true;
}

double XmitsEstimator::Xmits(NodeId x, NodeId y) const {
  SCOOP_CHECK(built_);
  SCOOP_CHECK_LT(static_cast<int>(x), num_nodes_);
  SCOOP_CHECK_LT(static_cast<int>(y), num_nodes_);
  if (x == y) return 0.0;
  double d = dist_[static_cast<size_t>(x) * static_cast<size_t>(num_nodes_) + y];
  return std::isinf(d) ? options_.unknown_cost : d;
}

}  // namespace scoop::core
