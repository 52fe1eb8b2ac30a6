#include "net/neighbor_table.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace scoop::net {

NeighborTable::NeighborTable(const NeighborTableOptions& options) : options_(options) {
  SCOOP_CHECK_GT(options_.capacity, 0);
  SCOOP_CHECK_GT(options_.estimation_window, 0);
  // Bounded table: one up-front allocation per array covers its lifetime.
  ids_.reserve(static_cast<size_t>(options_.capacity));
  entries_.reserve(static_cast<size_t>(options_.capacity));
}

size_t NeighborTable::Find(NodeId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return static_cast<size_t>(it - ids_.begin());
  return kAbsent;
}

void NeighborTable::OnPacketSeen(NodeId src, uint16_t seq, SimTime now) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), src);
  if (it == ids_.end() || *it != src) {
    if (static_cast<int>(ids_.size()) >= options_.capacity) {
      EvictWorst();
      // Eviction shifted slots; recompute the insertion point.
      it = std::lower_bound(ids_.begin(), ids_.end(), src);
    }
    Entry entry;
    entry.last_seq = seq;
    entry.window_received = 1;
    entry.quality = options_.initial_quality;
    entry.has_estimate = false;
    entry.last_heard = now;
    entries_.insert(entries_.begin() + (it - ids_.begin()), entry);
    ids_.insert(it, src);
    return;
  }

  Entry& entry = entries_[static_cast<size_t>(it - ids_.begin())];
  entry.last_heard = now;
  uint16_t gap = static_cast<uint16_t>(seq - entry.last_seq);
  if (gap == 0) return;  // Link-layer retransmission; not a new packet.
  entry.last_seq = seq;
  entry.window_received += 1;
  // A gap of g means g-1 packets from this sender were missed. Huge gaps
  // (sender rebooted or we were deaf a long time) are clamped to the window.
  int missed = std::min<int>(gap - 1, options_.estimation_window);
  entry.window_missed += missed;

  if (entry.window_received + entry.window_missed >= options_.estimation_window) {
    double observed = static_cast<double>(entry.window_received) /
                      (entry.window_received + entry.window_missed);
    if (entry.has_estimate) {
      entry.quality =
          options_.ewma_alpha * observed + (1 - options_.ewma_alpha) * entry.quality;
    } else {
      entry.quality = observed;
      entry.has_estimate = true;
    }
    entry.window_received = 0;
    entry.window_missed = 0;
  }
}

void NeighborTable::OnReverseReport(NodeId neighbor, double quality_they_hear_us) {
  size_t i = Find(neighbor);
  if (i == kAbsent) return;  // Only track reports from known neighbors.
  Entry& entry = entries_[i];
  if (entry.has_reverse) {
    entry.reverse_quality = options_.ewma_alpha * quality_they_hear_us +
                            (1 - options_.ewma_alpha) * entry.reverse_quality;
  } else {
    entry.reverse_quality = quality_they_hear_us;
    entry.has_reverse = true;
  }
}

double NeighborTable::Quality(NodeId src) const {
  size_t i = Find(src);
  return i == kAbsent ? 0.0 : entries_[i].quality;
}

double NeighborTable::OutboundQuality(NodeId dst) const {
  size_t i = Find(dst);
  if (i == kAbsent) return 0.0;
  const Entry& e = entries_[i];
  return e.has_reverse ? e.reverse_quality : e.quality;
}

double NeighborTable::UnicastQuality(NodeId dst) const {
  size_t i = Find(dst);
  if (i == kAbsent) return 0.0;
  const Entry& e = entries_[i];
  double out = e.has_reverse ? e.reverse_quality : e.quality;
  // The ACK returns on the inbound link; ACK frames are short, so their
  // loss is sub-linear in the link's packet loss.
  return out * std::sqrt(std::max(e.quality, 0.0));
}

std::vector<NeighborEntry> NeighborTable::BestNeighbors(int k) const {
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) ranked.emplace_back(entries_[i].quality, ids_[i]);
  // Sort by quality descending; break ties by id for determinism.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (static_cast<int>(ranked.size()) > k) ranked.resize(static_cast<size_t>(k));
  std::vector<NeighborEntry> out;
  out.reserve(ranked.size());
  for (const auto& [quality, id] : ranked) {
    NeighborEntry e;
    e.id = id;
    e.quality_x255 = static_cast<uint8_t>(std::lround(std::clamp(quality, 0.0, 1.0) * 255));
    out.push_back(e);
  }
  return out;
}

void NeighborTable::EvictStale(SimTime now) {
  size_t keep = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (now - entries_[i].last_heard <= options_.eviction_timeout) {
      if (keep != i) {
        ids_[keep] = ids_[i];
        entries_[keep] = entries_[i];
      }
      ++keep;
    }
  }
  ids_.resize(keep);
  entries_.resize(keep);
}

void NeighborTable::EvictWorst() {
  if (ids_.empty()) return;
  size_t worst = 0;
  for (size_t i = 1; i < ids_.size(); ++i) {
    // Ascending-id iteration plus strictly-less comparisons: ties on both
    // staleness and quality evict the lowest id, deterministically.
    const Entry& e = entries_[i];
    const Entry& w = entries_[worst];
    if (e.last_heard < w.last_heard ||
        (e.last_heard == w.last_heard && e.quality < w.quality)) {
      worst = i;
    }
  }
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(worst));
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(worst));
}

}  // namespace scoop::net
