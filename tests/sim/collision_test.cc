// Pins the collision predicate at its edges on both engines. A reception
// at `receiver` of `sender`'s frame is corrupted iff an overlapping
// transmitter's link to the receiver has
//   prob >= interference_threshold && prob >= capture_ratio * signal.
// The fixture is a hidden terminal: the sender and the interferer cannot
// hear each other (no carrier sense), both broadcast large frames at the
// same instants, and only the interferer->receiver link varies between
// cases. The sender->receiver link is perfect, so every frame that is not
// corrupted arrives.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/sharded_engine.h"

namespace scoop::sim {
namespace {

constexpr NodeId kSender = 0;
constexpr NodeId kReceiver = 1;
constexpr NodeId kInterferer = 2;
constexpr int kFrames = 20;

/// Which frame slots (at 1 s + 200 ms * k) each node broadcasts in.
using Schedule = std::vector<std::vector<int>>;

std::vector<int> Slots(int first, int step, int count) {
  std::vector<int> slots;
  for (int k = 0; k < count; ++k) slots.push_back(first + step * k);
  return slots;
}

/// The sender and the interferer both send in slots 0..kFrames-1.
Schedule SideBySide() {
  return {Slots(0, 1, kFrames), {}, Slots(0, 1, kFrames)};
}

/// Broadcasts large frames in its schedule's slots, and counts receptions
/// of the sender's frames.
class BurstApp : public App {
 public:
  BurstApp(std::vector<int> slots, int* heard_from_sender)
      : slots_(std::move(slots)), heard_(heard_from_sender) {}

  void OnBoot(Context& ctx) override {
    for (int k : slots_) {
      ctx.Schedule(Seconds(1) + Millis(200) * k, [&ctx] {
        DataPayload payload;
        payload.producer = ctx.self();
        // Eight readings: ~21 ms of airtime, longer than the sharded
        // engine's carrier-sense jitter, so both frames always overlap.
        payload.readings.resize(8);
        ctx.Broadcast(MakePacket(ctx.self(), kInvalidNodeId, std::move(payload)));
      });
    }
  }

  void OnReceive(Context& ctx, const Packet& pkt, const ReceiveInfo& info) override {
    (void)ctx;
    (void)info;
    if (pkt.hdr.link_src == kSender) ++*heard_;
  }

 private:
  std::vector<int> slots_;
  int* heard_;
};

/// Sender, receiver and interferer on a line; the sender and interferer
/// share no link in either direction.
Topology HiddenTerminal(double interference) {
  std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}};
  std::vector<std::vector<double>> d = {
      {0, 1.0, 0}, {1.0, 0, 1.0}, {0, interference, 0}};
  return Topology::FromMatrix(std::move(pos), std::move(d));
}

/// The sender's frames the receiver got, on the sequential engine.
int RunNetwork(const Topology& topo, const RadioOptions& radio, const Schedule& schedule) {
  NetworkOptions opts;
  opts.radio = radio;
  opts.boot_jitter = 0;
  Network net(topo, opts);
  int heard = 0;
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    net.SetApp(i, std::make_unique<BurstApp>(schedule[i], &heard));
  }
  net.Start();
  net.RunUntil(Seconds(20));
  return heard;
}

/// The same on the sharded engine at `shards`.
int RunSharded(const Topology& topo, const RadioOptions& radio, const Schedule& schedule,
               int shards) {
  ShardedEngineOptions opts;
  opts.radio = radio;
  opts.boot_jitter = 0;
  opts.shards = shards;
  ShardedEngine engine(topo, opts);
  int heard = 0;
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    engine.SetApp(i, std::make_unique<BurstApp>(schedule[i], &heard));
  }
  engine.Start();
  engine.RunUntil(Seconds(20));
  return heard;
}

/// Runs on every engine and expects `want` of the sender's frames heard.
void ExpectHeard(const Topology& topo, const RadioOptions& radio, const Schedule& schedule,
                 int want) {
  EXPECT_EQ(RunNetwork(topo, radio, schedule), want) << "Network";
  EXPECT_EQ(RunSharded(topo, radio, schedule, 1), want) << "ShardedEngine K=1";
  EXPECT_EQ(RunSharded(topo, radio, schedule, 2), want) << "ShardedEngine K=2";
}

struct EdgeCase {
  const char* name;
  double interference;  ///< interferer -> receiver delivery probability.
  bool corrupted;
};

/// Runs every case on the hidden terminal and checks all-or-nothing delivery.
void ExpectVerdicts(const RadioOptions& radio, const std::vector<EdgeCase>& cases) {
  for (const EdgeCase& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectHeard(HiddenTerminal(c.interference), radio, SideBySide(),
                c.corrupted ? 0 : kFrames);
  }
}

TEST(CollisionPredicateTest, TwoShardsPutTheInterfererAcrossTheBoundary) {
  // At K=2 the interferer's frames reach the receiver's collision check as
  // mirrored announcements from the other shard.
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(HiddenTerminal(0.5), opts);
  EXPECT_NE(engine.shard_of(kInterferer), engine.shard_of(kReceiver));
  EXPECT_EQ(engine.shard_of(kSender), engine.shard_of(kReceiver));
}

TEST(CollisionPredicateTest, CaptureRatioEdgeAtDefaultThreshold) {
  RadioOptions radio;  // capture_ratio 0.5, signal 1.0: the edge is 0.5.
  ASSERT_EQ(radio.capture_ratio, 0.5);
  ExpectVerdicts(radio, {
      {"exactly capture_ratio * signal", 0.5, true},
      {"just below capture_ratio * signal", std::nextafter(0.5, 0.0), false},
      {"well above capture_ratio * signal", 0.9, true},
  });
}

TEST(CollisionPredicateTest, InterferenceThresholdEdgeAtDefaultThreshold) {
  RadioOptions radio;
  radio.capture_ratio = 0.01;  // Capture edge 0.01, below the 0.05 threshold.
  ASSERT_EQ(radio.interference_threshold, Topology::kInterferenceThreshold);
  ExpectVerdicts(radio, {
      {"above capture edge, below threshold", 0.04, false},
      {"just below threshold", std::nextafter(0.05, 0.0), false},
      {"exactly the threshold", 0.05, true},
  });
}

TEST(CollisionPredicateTest, CustomThresholdEdges) {
  // A non-default threshold makes each radio build its own interferer sets.
  RadioOptions radio;
  radio.interference_threshold = 0.3;
  ExpectVerdicts(radio, {
      {"exactly capture_ratio * signal", 0.5, true},
      {"just below capture_ratio * signal", std::nextafter(0.5, 0.0), false},
  });
  radio.capture_ratio = 0.01;
  ExpectVerdicts(radio, {
      {"above capture edge, below custom threshold", 0.29, false},
      {"above the default threshold only", 0.05, false},
      {"exactly the custom threshold", 0.3, true},
  });
}

TEST(CollisionPredicateTest, NoCollisionModelDeliversEverything) {
  RadioOptions radio;
  radio.model_collisions = false;
  ExpectVerdicts(radio, {{"strong interferer", 1.0, false}});
}

TEST(CollisionPredicateTest, VerdictsDoNotLeakAcrossFrames) {
  // A fourth node near the sender, also hidden from it, with no link to
  // the receiver. The sender's frames alternate between overlapping the
  // interferer (corrupted) and overlapping only the fourth node (clean):
  // what the interferer did to an earlier frame must not carry over.
  std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}, {0, 10}};
  std::vector<std::vector<double>> d = {
      {0, 1.0, 0, 0}, {1.0, 0, 1.0, 0}, {0, 0.9, 0, 0}, {0, 0, 0, 0}};
  Topology topo = Topology::FromMatrix(std::move(pos), std::move(d));
  Schedule schedule = {Slots(0, 1, 2 * kFrames), {}, Slots(0, 2, kFrames),
                       Slots(1, 2, kFrames)};
  ExpectHeard(topo, RadioOptions{}, schedule, kFrames);
}

}  // namespace
}  // namespace scoop::sim
