// Pins the link-layer duplicate flag (ReceiveInfo::duplicate) on both
// engines. Two senders unicast to one receiver whose reverse links are
// absent, so no ACK ever returns and every unicast goes out 1 + retries
// times with the same sequence number. A copy is a duplicate iff the
// previous addressed reception over the same link carried the same seq.
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/sharded_engine.h"

namespace scoop::sim {
namespace {

constexpr NodeId kSenderA = 0;
constexpr NodeId kSenderB = 1;
constexpr NodeId kReceiver = 2;

/// One addressed reception at the receiver.
struct Heard {
  NodeId src;
  uint16_t seq;
  bool broadcast;
  bool duplicate;

  friend bool operator==(const Heard&, const Heard&) = default;
};

/// A's unicast at 1 s, B's unicast at 4 s (both the senders' first frame,
/// so both carry seq 1), then A's broadcast at 7 s (seq 2).
class SenderApp : public App {
 public:
  void OnBoot(Context& ctx) override {
    SimTime unicast_at = ctx.self() == kSenderA ? Seconds(1) : Seconds(4);
    ctx.Schedule(unicast_at, [&ctx] {
      ctx.Unicast(kReceiver, MakePacket(ctx.self(), kReceiver, DataPayload{}));
    });
    if (ctx.self() == kSenderA) {
      ctx.Schedule(Seconds(7), [&ctx] {
        ctx.Broadcast(MakePacket(ctx.self(), kInvalidNodeId, DataPayload{}));
      });
    }
  }
  void OnReceive(Context&, const Packet&, const ReceiveInfo&) override {}
};

class ReceiverApp : public App {
 public:
  explicit ReceiverApp(std::vector<Heard>* heard) : heard_(heard) {}
  void OnBoot(Context&) override {}
  void OnReceive(Context&, const Packet& pkt, const ReceiveInfo& info) override {
    heard_->push_back(
        {pkt.hdr.link_src, pkt.hdr.seq, pkt.hdr.link_dst == kBroadcastId, info.duplicate});
  }

 private:
  std::vector<Heard>* heard_;
};

/// Both senders reach the receiver perfectly; nothing reaches back, and
/// the senders cannot hear each other.
Topology TwoSendersNoAcks() {
  std::vector<Point> pos = {{0, 0}, {0, 10}, {20, 5}};
  std::vector<std::vector<double>> d = {{0, 0, 1.0}, {0, 0, 1.0}, {0, 0, 0}};
  return Topology::FromMatrix(std::move(pos), std::move(d));
}

template <typename Sim>
std::vector<Heard> Drive(Sim& sim) {
  std::vector<Heard> heard;
  sim.SetApp(kSenderA, std::make_unique<SenderApp>());
  sim.SetApp(kSenderB, std::make_unique<SenderApp>());
  sim.SetApp(kReceiver, std::make_unique<ReceiverApp>(&heard));
  sim.Start();
  sim.RunUntil(Seconds(10));
  return heard;
}

/// Every copy of each unicast, then the broadcast.
std::vector<Heard> Expected() {
  RadioOptions radio;
  std::vector<Heard> want;
  for (NodeId src : {kSenderA, kSenderB}) {
    for (int copy = 0; copy <= radio.unicast_retries; ++copy) {
      want.push_back({src, 1, false, /*duplicate=*/copy > 0});
    }
  }
  want.push_back({kSenderA, 2, true, false});
  return want;
}

TEST(DuplicateFilterTest, FlagsRetransmissionsOnNetwork) {
  NetworkOptions opts;
  opts.boot_jitter = 0;
  Network net(TwoSendersNoAcks(), opts);
  EXPECT_EQ(Drive(net), Expected());
}

TEST(DuplicateFilterTest, FlagsRetransmissionsOnShardedEngineOneShard) {
  ShardedEngineOptions opts;
  opts.boot_jitter = 0;
  opts.shards = 1;
  ShardedEngine engine(TwoSendersNoAcks(), opts);
  EXPECT_EQ(Drive(engine), Expected());
}

TEST(DuplicateFilterTest, FlagsRetransmissionsAcrossTheShardBoundary) {
  ShardedEngineOptions opts;
  opts.boot_jitter = 0;
  opts.shards = 2;
  ShardedEngine engine(TwoSendersNoAcks(), opts);
  ASSERT_EQ(engine.shard_of(kSenderA), engine.shard_of(kSenderB));
  ASSERT_NE(engine.shard_of(kSenderA), engine.shard_of(kReceiver));
  EXPECT_EQ(Drive(engine), Expected());
}

}  // namespace
}  // namespace scoop::sim
