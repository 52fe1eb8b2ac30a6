#include "net/neighbor_table.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scoop::net {
namespace {

TEST(NeighborTableTest, LearnsNeighbors) {
  NeighborTable table;
  EXPECT_FALSE(table.Contains(5));
  table.OnPacketSeen(5, 1, Seconds(1));
  EXPECT_TRUE(table.Contains(5));
  EXPECT_EQ(table.size(), 1u);
}

TEST(NeighborTableTest, PerfectLinkEstimatesNearOne) {
  NeighborTable table;
  for (uint16_t seq = 1; seq <= 40; ++seq) {
    table.OnPacketSeen(7, seq, Seconds(seq));
  }
  EXPECT_GT(table.Quality(7), 0.95);
}

TEST(NeighborTableTest, HalfLossyLinkEstimatesNearHalf) {
  NeighborTable table;
  // Hear only every other packet: gaps of 2 => 50% loss.
  for (uint16_t seq = 1; seq <= 80; seq += 2) {
    table.OnPacketSeen(7, seq, Seconds(seq));
  }
  EXPECT_NEAR(table.Quality(7), 0.5, 0.12);
}

TEST(NeighborTableTest, RetransmissionsDoNotSkewEstimate) {
  NeighborTable table;
  for (uint16_t seq = 1; seq <= 40; ++seq) {
    table.OnPacketSeen(7, seq, Seconds(seq));
    table.OnPacketSeen(7, seq, Seconds(seq));  // Duplicate (same seq).
  }
  EXPECT_GT(table.Quality(7), 0.95);
}

TEST(NeighborTableTest, UnknownNeighborQualityIsZero) {
  NeighborTable table;
  EXPECT_DOUBLE_EQ(table.Quality(9), 0.0);
}

TEST(NeighborTableTest, BestNeighborsSortedByQuality) {
  NeighborTable table;
  // Node 1: perfect. Node 2: 50%. Node 3: one packet (initial estimate).
  for (uint16_t seq = 1; seq <= 32; ++seq) table.OnPacketSeen(1, seq, Seconds(seq));
  for (uint16_t seq = 1; seq <= 64; seq += 2) table.OnPacketSeen(2, seq, Seconds(seq));
  table.OnPacketSeen(3, 1, Seconds(1));
  auto best = table.BestNeighbors(2);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0].id, 1);
  EXPECT_GT(best[0].quality_x255, best[1].quality_x255);
}

TEST(NeighborTableTest, BestNeighborsClampsToSize) {
  NeighborTable table;
  table.OnPacketSeen(1, 1, 0);
  EXPECT_EQ(table.BestNeighbors(12).size(), 1u);
}

TEST(NeighborTableTest, CapacityEnforced) {
  NeighborTableOptions opts;
  opts.capacity = 4;
  NeighborTable table(opts);
  for (NodeId id = 1; id <= 10; ++id) {
    table.OnPacketSeen(id, 1, Seconds(id));
  }
  EXPECT_EQ(table.size(), 4u);
  // The most recently heard neighbors survive.
  EXPECT_TRUE(table.Contains(10));
  EXPECT_FALSE(table.Contains(1));
}

TEST(NeighborTableTest, EvictStaleRemovesSilentNeighbors) {
  NeighborTableOptions opts;
  opts.eviction_timeout = Seconds(100);
  NeighborTable table(opts);
  table.OnPacketSeen(1, 1, Seconds(0));
  table.OnPacketSeen(2, 1, Seconds(90));
  table.EvictStale(Seconds(150));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
}

TEST(NeighborTableTest, SequenceWraparoundHandled) {
  NeighborTable table;
  // Sequence numbers wrap at 65535; estimation must not explode.
  table.OnPacketSeen(4, 65533, Seconds(1));
  table.OnPacketSeen(4, 65535, Seconds(2));
  table.OnPacketSeen(4, 1, Seconds(3));
  table.OnPacketSeen(4, 3, Seconds(4));
  for (uint16_t i = 0; i < 16; ++i) {
    table.OnPacketSeen(4, static_cast<uint16_t>(5 + 2 * i), Seconds(5 + i));
  }
  EXPECT_NEAR(table.Quality(4), 0.5, 0.15);
}

TEST(NeighborTableTest, QualityTracksLinkChanges) {
  NeighborTableOptions opts;
  opts.ewma_alpha = 0.5;
  NeighborTable table(opts);
  uint16_t seq = 1;
  for (int i = 0; i < 32; ++i) table.OnPacketSeen(6, seq++, Seconds(i));
  double good = table.Quality(6);
  // Link degrades: hear 1 in 4.
  for (int i = 0; i < 32; ++i) {
    seq = static_cast<uint16_t>(seq + 4);
    table.OnPacketSeen(6, seq, Seconds(100 + i));
  }
  double bad = table.Quality(6);
  EXPECT_GT(good, 0.9);
  EXPECT_LT(bad, 0.5);
}

/// The table's contract written the obvious way: an id-keyed std::map with
/// the same estimation arithmetic, evicting the stalest entry (then the
/// lowest quality, then the lowest id) when a new neighbor arrives at
/// capacity.
class ReferenceNeighbors {
 public:
  explicit ReferenceNeighbors(const NeighborTableOptions& opts) : opts_(opts) {}

  void OnPacketSeen(NodeId src, uint16_t seq, SimTime now) {
    auto it = map_.find(src);
    if (it == map_.end()) {
      if (static_cast<int>(map_.size()) >= opts_.capacity) {
        auto worst = map_.begin();
        for (auto j = map_.begin(); j != map_.end(); ++j) {
          const Ref& a = j->second;
          const Ref& w = worst->second;
          if (a.last_heard < w.last_heard ||
              (a.last_heard == w.last_heard && a.quality < w.quality)) {
            worst = j;
          }
        }
        map_.erase(worst);
      }
      Ref r;
      r.last_seq = seq;
      r.received = 1;
      r.quality = opts_.initial_quality;
      r.last_heard = now;
      map_[src] = r;
      return;
    }
    Ref& r = it->second;
    r.last_heard = now;
    uint16_t gap = static_cast<uint16_t>(seq - r.last_seq);
    if (gap == 0) return;
    r.last_seq = seq;
    r.received += 1;
    r.missed += std::min<int>(gap - 1, opts_.estimation_window);
    if (r.received + r.missed >= opts_.estimation_window) {
      double observed = static_cast<double>(r.received) / (r.received + r.missed);
      r.quality = r.has_estimate
                      ? opts_.ewma_alpha * observed + (1 - opts_.ewma_alpha) * r.quality
                      : observed;
      r.has_estimate = true;
      r.received = 0;
      r.missed = 0;
    }
  }

  void OnReverseReport(NodeId id, double q) {
    auto it = map_.find(id);
    if (it == map_.end()) return;
    Ref& r = it->second;
    r.reverse = r.has_reverse ? opts_.ewma_alpha * q + (1 - opts_.ewma_alpha) * r.reverse : q;
    r.has_reverse = true;
  }

  void EvictStale(SimTime now) {
    std::erase_if(map_, [&](const auto& kv) {
      return now - kv.second.last_heard > opts_.eviction_timeout;
    });
  }

  double Quality(NodeId id) const {
    auto it = map_.find(id);
    return it == map_.end() ? 0.0 : it->second.quality;
  }
  double OutboundQuality(NodeId id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return 0.0;
    return it->second.has_reverse ? it->second.reverse : it->second.quality;
  }
  double UnicastQuality(NodeId id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return 0.0;
    return OutboundQuality(id) * std::sqrt(std::max(it->second.quality, 0.0));
  }
  bool Contains(NodeId id) const { return map_.contains(id); }
  size_t size() const { return map_.size(); }

  /// Quality descending, id ascending on ties, first `k`, quantized.
  std::vector<std::pair<NodeId, int>> BestNeighbors(int k) const {
    std::vector<std::pair<double, NodeId>> ranked;
    for (const auto& [id, r] : map_) ranked.emplace_back(r.quality, id);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::pair<NodeId, int>> out;
    for (const auto& [q, id] : ranked) {
      if (static_cast<int>(out.size()) == k) break;
      out.emplace_back(id, static_cast<int>(std::lround(std::clamp(q, 0.0, 1.0) * 255)));
    }
    return out;
  }

  std::vector<NodeId> Ids() const {
    std::vector<NodeId> ids;
    for (const auto& kv : map_) ids.push_back(kv.first);
    return ids;
  }

 private:
  struct Ref {
    uint16_t last_seq = 0;
    int received = 0;
    int missed = 0;
    double quality = 0;
    bool has_estimate = false;
    double reverse = 0;
    bool has_reverse = false;
    SimTime last_heard = 0;
  };

  NeighborTableOptions opts_;
  std::map<NodeId, Ref> map_;
};

/// Drives the table and the reference through the same seeded sequence of
/// receptions (in-order, gapped, retransmitted, rebooted senders, seq
/// wraparound), reverse reports and stale sweeps over `ids` candidate
/// neighbors, and compares every answer after every step.
void ExpectMatchesReference(int capacity, int ids, uint64_t seed) {
  NeighborTableOptions opts;
  opts.capacity = capacity;
  opts.eviction_timeout = Seconds(30);
  NeighborTable table(opts);
  ReferenceNeighbors ref(opts);
  Rng rng(seed, /*stream=*/1);
  // Each sender's next sequence number; many start just below the wrap.
  std::vector<uint16_t> next_seq(static_cast<size_t>(ids) + 1);
  for (uint16_t& s : next_seq) {
    s = static_cast<uint16_t>(rng.UniformInt(0, 1) == 0 ? rng.UniformInt(65500, 65535)
                                                        : rng.UniformInt(1, 100));
  }
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Coarse time steps make equal last_heard values (eviction ties)
    // common; occasional long silences make stale sweeps bite.
    int tick = static_cast<int>(rng.UniformInt(0, 19));
    if (tick < 4) now += Seconds(rng.UniformInt(0, 3));
    if (tick == 4) now += Seconds(rng.UniformInt(10, 40));
    NodeId id = static_cast<NodeId>(rng.UniformInt(1, ids));
    uint16_t& seq = next_seq[id];
    switch (rng.UniformInt(0, 19)) {
      case 0:
        table.EvictStale(now);
        ref.EvictStale(now);
        break;
      case 1:
      case 2: {
        double q = static_cast<double>(rng.UniformInt(0, 100)) / 100.0;
        table.OnReverseReport(id, q);
        ref.OnReverseReport(id, q);
        break;
      }
      case 3:  // A retransmission: the same seq again.
        table.OnPacketSeen(id, static_cast<uint16_t>(seq - 1), now);
        ref.OnPacketSeen(id, static_cast<uint16_t>(seq - 1), now);
        break;
      case 4:  // A rebooted sender: its counter restarts anywhere.
        seq = static_cast<uint16_t>(rng.UniformInt(0, 65535));
        [[fallthrough]];
      default: {
        // Mostly in order; sometimes a gap of missed packets.
        if (rng.UniformInt(0, 3) == 0) seq = static_cast<uint16_t>(seq + rng.UniformInt(1, 12));
        table.OnPacketSeen(id, seq, now);
        ref.OnPacketSeen(id, seq, now);
        seq = static_cast<uint16_t>(seq + 1);
        break;
      }
    }
    ASSERT_LE(table.size(), static_cast<size_t>(capacity));
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_EQ(table.Ids(), ref.Ids());
    NodeId probe = static_cast<NodeId>(rng.UniformInt(0, ids + 1));
    ASSERT_EQ(table.Contains(probe), ref.Contains(probe));
    ASSERT_EQ(table.Quality(probe), ref.Quality(probe));
    ASSERT_EQ(table.OutboundQuality(probe), ref.OutboundQuality(probe));
    ASSERT_EQ(table.UnicastQuality(probe), ref.UnicastQuality(probe));
    int k = static_cast<int>(rng.UniformInt(0, capacity + 2));
    std::vector<std::pair<NodeId, int>> best;
    for (const NeighborEntry& e : table.BestNeighbors(k)) {
      best.emplace_back(e.id, e.quality_x255);
    }
    ASSERT_EQ(best, ref.BestNeighbors(k));
  }
}

TEST(NeighborTableTest, MatchesReferenceAtCapacityFour) {
  // Ten candidates over four slots: EvictWorst runs on most insertions.
  ExpectMatchesReference(/*capacity=*/4, /*ids=*/10, /*seed=*/2024);
}

TEST(NeighborTableTest, MatchesReferenceAtPaperCapacity) {
  ExpectMatchesReference(/*capacity=*/32, /*ids=*/48, /*seed=*/2025);
}

}  // namespace
}  // namespace scoop::net
