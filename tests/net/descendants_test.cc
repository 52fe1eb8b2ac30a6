#include "net/descendants.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scoop::net {
namespace {

TEST(DescendantsTest, LearnAndLookup) {
  DescendantsTable table;
  table.Learn(/*descendant=*/9, /*via_child=*/3, Seconds(1));
  ASSERT_TRUE(table.Contains(9));
  EXPECT_EQ(table.NextHop(9).value(), 3);
  EXPECT_FALSE(table.NextHop(8).has_value());
}

TEST(DescendantsTest, UpdatesRoute) {
  DescendantsTable table;
  table.Learn(9, 3, Seconds(1));
  table.Learn(9, 4, Seconds(2));  // Descendant moved to another branch.
  EXPECT_EQ(table.NextHop(9).value(), 4);
  EXPECT_EQ(table.size(), 1u);
}

TEST(DescendantsTest, CapacityEvictsOldest) {
  DescendantsOptions opts;
  opts.capacity = 3;
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(1));
  table.Learn(2, 1, Seconds(2));
  table.Learn(3, 1, Seconds(3));
  table.Learn(4, 1, Seconds(4));  // Evicts descendant 1.
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(4));
}

TEST(DescendantsTest, RefreshProtectsFromEviction) {
  DescendantsOptions opts;
  opts.capacity = 2;
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(1));
  table.Learn(2, 1, Seconds(2));
  table.Learn(1, 1, Seconds(3));  // Refresh 1; now 2 is oldest.
  table.Learn(3, 1, Seconds(4));
  EXPECT_TRUE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
}

TEST(DescendantsTest, EvictStale) {
  DescendantsOptions opts;
  opts.eviction_timeout = Seconds(100);
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(0));
  table.Learn(2, 1, Seconds(50));
  table.EvictStale(Seconds(120));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
}

TEST(DescendantsTest, ForgetChildDropsWholeBranch) {
  DescendantsTable table;
  table.Learn(1, 7, Seconds(1));
  table.Learn(2, 7, Seconds(1));
  table.Learn(3, 8, Seconds(1));
  table.ForgetChild(7);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
  EXPECT_TRUE(table.Contains(3));
}

TEST(DescendantsTest, IdsListsAll) {
  DescendantsTable table;
  table.Learn(5, 1, Seconds(1));
  table.Learn(6, 2, Seconds(1));
  auto ids = table.Ids();
  EXPECT_EQ(ids.size(), 2u);
}

TEST(DescendantsTest, EqualLastUpdateEvictsLowestId) {
  DescendantsOptions opts;
  opts.capacity = 3;
  DescendantsTable table(opts);
  table.Learn(7, 1, Seconds(5));
  table.Learn(3, 1, Seconds(5));
  table.Learn(9, 1, Seconds(5));
  table.Learn(4, 1, Seconds(6));  // All three tie on last_update: 3 goes.
  EXPECT_EQ(table.Ids(), (std::vector<NodeId>{4, 7, 9}));
  table.Learn(1, 1, Seconds(6));  // 7 and 9 tie as oldest: 7 goes.
  EXPECT_EQ(table.Ids(), (std::vector<NodeId>{1, 4, 9}));
}

/// The table's contract written the obvious way: an id-keyed std::map,
/// evicting the least recently updated entry (lowest id on ties) when a
/// new descendant arrives at capacity.
class ReferenceDescendants {
 public:
  ReferenceDescendants(int capacity, SimTime timeout)
      : capacity_(capacity), timeout_(timeout) {}

  void Learn(NodeId d, NodeId via, SimTime now) {
    if (!map_.contains(d) && static_cast<int>(map_.size()) >= capacity_) {
      auto oldest = map_.begin();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->second.second < oldest->second.second) oldest = it;
      }
      map_.erase(oldest);
    }
    map_[d] = {via, now};
  }
  void ForgetChild(NodeId child) {
    std::erase_if(map_, [child](const auto& kv) { return kv.second.first == child; });
  }
  void EvictStale(SimTime now) {
    std::erase_if(map_, [&](const auto& kv) { return now - kv.second.second > timeout_; });
  }
  std::optional<NodeId> NextHop(NodeId d) const {
    auto it = map_.find(d);
    if (it == map_.end()) return std::nullopt;
    return it->second.first;
  }
  std::vector<NodeId> Ids() const {
    std::vector<NodeId> ids;
    for (const auto& kv : map_) ids.push_back(kv.first);
    return ids;
  }

 private:
  int capacity_;
  SimTime timeout_;
  std::map<NodeId, std::pair<NodeId, SimTime>> map_;  // id -> (via, last_update)
};

TEST(DescendantsTest, MatchesReferenceOverLongSeededSequence) {
  DescendantsOptions opts;
  opts.capacity = 8;
  opts.eviction_timeout = Seconds(40);
  DescendantsTable table(opts);
  ReferenceDescendants ref(opts.capacity, opts.eviction_timeout);
  Rng rng(/*seed=*/2024, /*stream=*/1);
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Coarse time steps make equal last_update values (eviction ties)
    // common; 24 ids over 8 slots keep the table at capacity most of the
    // time.
    if (rng.UniformInt(0, 3) == 0) now += Seconds(rng.UniformInt(0, 5));
    NodeId id = static_cast<NodeId>(rng.UniformInt(1, 24));
    NodeId child = static_cast<NodeId>(rng.UniformInt(1, 4));
    switch (rng.UniformInt(0, 19)) {
      case 0:
        table.ForgetChild(child);
        ref.ForgetChild(child);
        break;
      case 1:
        table.EvictStale(now);
        ref.EvictStale(now);
        break;
      default:
        table.Learn(id, child, now);
        ref.Learn(id, child, now);
        break;
    }
    ASSERT_LE(table.size(), static_cast<size_t>(opts.capacity));
    ASSERT_EQ(table.Ids(), ref.Ids());
    NodeId probe = static_cast<NodeId>(rng.UniformInt(0, 25));
    ASSERT_EQ(table.NextHop(probe), ref.NextHop(probe));
    ASSERT_EQ(table.Contains(probe), ref.NextHop(probe).has_value());
  }
}

}  // namespace
}  // namespace scoop::net
