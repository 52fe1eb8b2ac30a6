// Differential property tests for the two-tier queues: EventQueue and
// ShardQueue (timer wheel in front of the spill heap) must execute the
// exact same event sequence as a small in-test reference model -- one
// ordered map on the documented ordering key -- under randomized
// schedule / cancel / reschedule streams, including same-timestamp ties,
// zero-delay events scheduled from inside callbacks, and delays
// straddling both wheel levels and the spill horizon. This is the
// ordering-invariant contract every golden leans on.
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/shard.h"

namespace scoop::sim {
namespace {

/// Deterministic splitmix64: the op stream must be a pure function of the
/// seed so the queue and its reference replay the identical history.
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Draws a delay that exercises every tier boundary: zero-delay, same
/// L0 frame (< 1024 us), the L1 horizon (< ~1.05 s), and far-future
/// spills beyond it.
SimTime DrawDelay(StreamRng& rng) {
  switch (rng.Below(5)) {
    case 0:
      return 0;  // Same instant as the current clock.
    case 1:
      return static_cast<SimTime>(rng.Below(1024));  // Within the L0 frame.
    case 2:
      return static_cast<SimTime>(rng.Below(1u << 20));  // Within the wheel.
    case 3:
      // MAC-backoff-like band: 8..64 ms, the wheel's design target.
    return static_cast<SimTime>(8000 + rng.Below(56000));
    default:
      return static_cast<SimTime>(rng.Below(4000000));  // Often spills.
  }
}

/// Reference for EventQueue: FIFO by (time, schedule sequence).
class ReferenceEventQueue {
 public:
  EventId ScheduleAt(SimTime at, std::function<void()> fn) {
    EventId id = ++seq_;
    events_.emplace(std::make_pair(at, id), std::move(fn));
    at_[id] = at;
    return id;
  }
  void Cancel(EventId id) {
    auto it = at_.find(id);
    if (it == at_.end()) return;
    events_.erase(std::make_pair(it->second, id));
    at_.erase(it);
  }
  void RunUntil(SimTime end) {
    while (!events_.empty() && events_.begin()->first.first <= end) {
      auto node = events_.extract(events_.begin());
      at_.erase(node.key().second);
      now_ = node.key().first;
      ++processed_;
      node.mapped()();
    }
    now_ = end;
  }
  SimTime now() const { return now_; }
  size_t size() const { return events_.size(); }
  uint64_t processed() const { return processed_; }

 private:
  std::map<std::pair<SimTime, uint64_t>, std::function<void()>> events_;
  std::unordered_map<EventId, SimTime> at_;
  uint64_t seq_ = 0;
  SimTime now_ = 0;
  uint64_t processed_ = 0;
};

/// Replays one randomized schedule/cancel/reschedule history against a
/// fresh `Queue` and returns the execution order (labels in the order
/// their callbacks fired) plus processed().
template <typename Queue>
std::pair<std::vector<int>, uint64_t> ReplayEventQueue(uint64_t seed) {
  Queue q;
  StreamRng rng(seed);
  std::vector<int> order;
  std::vector<EventId> ids;  // Indexed by label; stale entries are fine.
  int next_label = 0;
  SimTime tie_at = 0;  // Reused timestamp to force same-time ties.

  auto schedule = [&](SimTime at) {
    int label = next_label++;
    ids.push_back(kInvalidEventId);
    ids[static_cast<size_t>(label)] = q.ScheduleAt(at, [&, label] {
      order.push_back(label);
      // Every few events, the callback itself schedules a zero-delay
      // follow-up -- the Trickle "fire now" shape.
      if (label % 7 == 0) {
        int follow = next_label++;
        ids.push_back(kInvalidEventId);
        ids[static_cast<size_t>(follow)] =
            q.ScheduleAt(q.now(), [&, follow] { order.push_back(follow); });
      }
    });
  };

  for (int step = 0; step < 3000; ++step) {
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2: {  // Fresh schedule.
        SimTime at = q.now() + DrawDelay(rng);
        if (rng.Below(4) == 0) at = tie_at >= q.now() ? tie_at : at;
        tie_at = at;
        schedule(at);
        break;
      }
      case 3: {  // Cancel (often a stale id: must be a deterministic no-op).
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        break;
      }
      case 4: {  // Reschedule: cancel + fresh schedule.
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        schedule(q.now() + DrawDelay(rng));
        break;
      }
      default: {  // Advance the clock, running everything due.
        q.RunUntil(q.now() + static_cast<SimTime>(rng.Below(200000)));
        break;
      }
    }
  }
  q.RunUntil(q.now() + 10000000);  // Drain everything still pending.
  EXPECT_EQ(q.size(), 0u);
  return {std::move(order), q.processed()};
}

TEST(EventQueueDifferentialTest, WheelMatchesHeapUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [ref_order, ref_processed] = ReplayEventQueue<ReferenceEventQueue>(seed);
    auto [wheel_order, wheel_processed] = ReplayEventQueue<EventQueue>(seed);
    EXPECT_GT(ref_processed, 0u) << "seed " << seed;
    EXPECT_EQ(wheel_processed, ref_processed) << "seed " << seed;
    ASSERT_EQ(wheel_order, ref_order) << "seed " << seed;
  }
}

TEST(EventQueueDifferentialTest, WheelAbsorbsNearFutureSchedules) {
  // Sanity that the differential test actually exercises both tiers: a
  // wheel replay must both absorb and spill under the delay mix above.
  EventQueue q;
  StreamRng rng(99);
  for (int i = 0; i < 2000; ++i) {
    q.ScheduleAt(q.now() + DrawDelay(rng), [] {});
    if (rng.Below(4) == 0) q.RunUntil(q.now() + static_cast<SimTime>(rng.Below(100000)));
  }
  EXPECT_GT(q.wheel_absorbed(), 0u);
  EXPECT_GT(q.wheel_spilled(), 0u);
  EXPECT_EQ(q.wheel_absorbed() + q.wheel_spilled(), 2000u);
}

/// Reference for ShardQueue: ordered on the documented canonical key
/// (time, phase, origin, counter), where eval/finish events key on
/// (sender, generation) and regular events on (origin, per-origin
/// schedule counter).
class ReferenceShardQueue {
 public:
  explicit ReferenceShardQueue(uint32_t num_origins) : counters_(num_origins, 0) {}

  EventId ScheduleEval(SimTime at, NodeId sender, uint32_t gen, std::function<void()> fn) {
    return Insert(Key{at, 0, sender, gen}, std::move(fn));
  }
  EventId ScheduleFinish(SimTime at, NodeId sender, uint32_t gen, std::function<void()> fn) {
    return Insert(Key{at, 1, sender, gen}, std::move(fn));
  }
  EventId ScheduleRegular(SimTime at, uint32_t origin, std::function<void()> fn) {
    return Insert(Key{at, 2, origin, counters_[origin]++}, std::move(fn));
  }
  void Cancel(EventId id) {
    auto it = keys_.find(id);
    if (it == keys_.end()) return;
    events_.erase(it->second);
    keys_.erase(it);
  }
  bool empty() const { return events_.empty(); }
  SimTime HeadTime() const {
    return events_.empty() ? kSimTimeHorizon : std::get<0>(events_.begin()->first);
  }
  bool RunOne() {
    if (events_.empty()) return false;
    auto node = events_.extract(events_.begin());
    keys_.erase(node.mapped().first);
    now_ = std::get<0>(node.key());
    ++processed_;
    node.mapped().second();
    return true;
  }
  SimTime now() const { return now_; }
  uint64_t processed() const { return processed_; }

 private:
  using Key = std::tuple<SimTime, int, uint32_t, uint64_t>;

  EventId Insert(const Key& key, std::function<void()> fn) {
    EventId id = ++seq_;
    events_.emplace(key, std::make_pair(id, std::move(fn)));
    keys_.emplace(id, key);
    return id;
  }

  std::map<Key, std::pair<EventId, std::function<void()>>> events_;
  std::unordered_map<EventId, Key> keys_;
  std::vector<uint64_t> counters_;
  uint64_t seq_ = 0;
  SimTime now_ = 0;
  uint64_t processed_ = 0;
};

/// ShardQueue replay: same shape, but through the canonical (time, ord)
/// ordering -- regular events with random origins plus eval/finish phases,
/// whose relative order the wheel's lazy bucket sort must reproduce.
template <typename Queue>
std::pair<std::vector<std::string>, uint64_t> ReplayShardQueue(uint64_t seed) {
  constexpr uint32_t kOrigins = 16;
  Queue q(kOrigins);
  StreamRng rng(seed);
  std::vector<std::string> order;
  std::vector<EventId> ids;
  int next_label = 0;

  auto drain_until = [&](SimTime t) {
    while (!q.empty() && q.HeadTime() <= t) q.RunOne();
  };
  auto schedule = [&](SimTime at) {
    int label = next_label++;
    EventId id = kInvalidEventId;
    switch (rng.Below(4)) {
      case 0: {
        // gen = label keeps (sender, gen) unique: the engine never enqueues
        // two evals for one (sender, gen) at one instant, and a duplicate
        // would make the canonical order ill-defined.
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        std::string tag(1, 'e');
        tag += std::to_string(label);
        id = q.ScheduleEval(at, sender, static_cast<uint32_t>(label),
                            [&order, tag] { order.push_back(tag); });
        break;
      }
      case 1: {
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        std::string tag(1, 'f');
        tag += std::to_string(label);
        id = q.ScheduleFinish(at, sender, static_cast<uint32_t>(label),
                              [&order, tag] { order.push_back(tag); });
        break;
      }
      default: {
        uint32_t origin = static_cast<uint32_t>(rng.Below(kOrigins));
        std::string tag(1, 'r');
        tag += std::to_string(label);
        id = q.ScheduleRegular(at, origin, [&order, tag] { order.push_back(tag); });
        break;
      }
    }
    ids.push_back(id);
  };

  SimTime tie_at = 0;
  for (int step = 0; step < 3000; ++step) {
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2: {
        SimTime at = q.now() + DrawDelay(rng);
        if (rng.Below(4) == 0) at = tie_at >= q.now() ? tie_at : at;
        tie_at = at;
        schedule(at);
        break;
      }
      case 3: {
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        break;
      }
      case 4: {
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        schedule(q.now() + DrawDelay(rng));
        break;
      }
      default: {
        drain_until(q.now() + static_cast<SimTime>(rng.Below(200000)));
        break;
      }
    }
  }
  while (!q.empty()) q.RunOne();
  return {std::move(order), q.processed()};
}

TEST(ShardQueueDifferentialTest, WheelMatchesHeapUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [ref_order, ref_processed] = ReplayShardQueue<ReferenceShardQueue>(seed);
    auto [wheel_order, wheel_processed] = ReplayShardQueue<ShardQueue>(seed);
    EXPECT_GT(ref_processed, 0u) << "seed " << seed;
    EXPECT_EQ(wheel_processed, ref_processed) << "seed " << seed;
    ASSERT_EQ(wheel_order, ref_order) << "seed " << seed;
  }
}

}  // namespace
}  // namespace scoop::sim
