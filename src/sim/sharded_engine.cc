#include "sim/sharded_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "common/check.h"

namespace scoop::sim {

/// Per-node container on its owner shard: implements Context for the
/// hosted app and hands it the shard radio's deliveries (duplicate-flagged
/// by the shared filter). Byte-for-byte the same behavior as
/// Network::Host, but wired to the owner shard's queue and radio.
class ShardedEngine::Host : public Context {
 public:
  Host(ShardedEngine* engine, Shard* shard, NodeId id, uint64_t seed)
      : engine_(engine), shard_(shard), id_(id), rng_(MixSeed(seed, id), /*stream=*/id) {}

  void set_app(std::unique_ptr<App> app) { app_ = std::move(app); }
  App* app() { return app_.get(); }

  // --- Context ---
  NodeId self() const override { return id_; }
  SimTime now() const override;
  Rng& rng() override { return rng_; }
  void Broadcast(Packet pkt) override;
  void Unicast(NodeId dst, Packet pkt) override;
  EventId Schedule(SimTime delay, SmallCallback fn) override;
  void Cancel(EventId id) override;
  const RadioOptions& radio_options() const override { return engine_->options_.radio; }

  // --- Delivery path (called by the shard's radio hooks) ---
  void Deliver(const Packet& pkt, bool addressed, bool duplicate) {
    if (app_ == nullptr) return;
    if (addressed) {
      ReceiveInfo info;
      info.addressed_to_me = true;
      info.duplicate = duplicate;
      app_->OnReceive(*this, pkt, info);
    } else {
      app_->OnSnoop(*this, pkt);
    }
  }

  void SendDone(const Packet& pkt, bool success) {
    if (app_ != nullptr) app_->OnSendDone(*this, pkt, success);
  }

  void Boot() {
    if (app_ != nullptr) app_->OnBoot(*this);
  }

  // --- Fault lifecycle (invoked by the engine's Fault* helpers, always on
  // this host's owning shard thread) ---
  void Crash() {
    if (app_ != nullptr) app_->OnCrash(*this);
  }
  void Reboot() {
    if (app_ != nullptr) app_->OnReboot(*this);
  }
  void RootPromote(bool promote) {
    if (app_ != nullptr) app_->OnRootPromote(*this, promote);
  }

 private:
  ShardedEngine* engine_;
  Shard* shard_;
  NodeId id_;
  Rng rng_;
  std::unique_ptr<App> app_;
};

/// The floor that set a published promise (ties go to the earlier entry).
enum EptBind { kBindMac, kBindHead, kBindSafe, kBindAlive };

/// One shard: a deterministic queue, the radio for its nodes, and the
/// hosts it owns. Everything in here is touched only by the shard's own
/// thread while a run is in flight.
struct ShardedEngine::Shard {
  explicit Shard(uint32_t num_origins) : queue(num_origins) {}

  int index = 0;
  ShardQueue queue;
  std::unique_ptr<ShardRadio> radio;
  std::vector<std::unique_ptr<Host>> hosts;  ///< Indexed by node; null if not owned.
  /// Sorted times of every pre-scheduled power-toggle this shard will
  /// execute; `alive_cursor` advances as they run. The next pending time
  /// is the AliveFloor: a power-down can emit an abort at its event time
  /// with no carrier-sense lookahead in front of it.
  std::vector<SimTime> alive_times;
  size_t alive_cursor = 0;
  uint64_t in_mask = 0;     ///< Shards whose EPT bounds our safe time.
  uint64_t out_mask = 0;    ///< Shards our promises must cover.
  uint64_t drain_mask = 0;  ///< Shards that may push into our mailboxes.
  /// Always-on perf telemetry (like ShardQueue::processed()): wall time
  /// spent spinning with no executable event, and how many distinct
  /// no-progress episodes occurred. Wall-clock-derived, NOT deterministic.
  uint64_t stall_us_total = 0;
  uint64_t stall_episodes = 0;
  Radio::TransmitHook transmit_observer;
  Radio::DeliverHook deliver_observer;
  Radio::DropHook drop_observer;

  // --- Observability (null/0 = off; the queue and radio hold their own
  // resolved pointers, this is the engine-loop share) ---
  obs::TraceSink* trace = nullptr;
  obs::SimProfiler* profiler = nullptr;
  obs::MetricsRegistry* sample_reg = nullptr;  ///< Non-null iff sampling on.
  obs::Histogram* depth_hist = nullptr;
  uint64_t* ctr_stall_us = nullptr;
  uint64_t* ctr_stall_episodes = nullptr;
  /// Per-out-neighbor "shard.ept_slack_us.to<k>" counters (accumulated
  /// extra headroom the per-boundary promise gives that neighbor over the
  /// most conservative one); null slots = off.
  std::vector<uint64_t*> ctr_ept_slack;
  bool slack_obs = false;  ///< Any ctr_ept_slack slot non-null.
  /// "shard.ept_bind.<floor>" counters: which floor set each raised
  /// promise (indexed by EptBind; null = off).
  uint64_t* ctr_ept_bind[kBindAlive + 1] = {};
  SimTime metrics_interval = 0;
  SimTime next_sample = 0;

  SimTime AliveFloor() const {
    return alive_cursor < alive_times.size() ? alive_times[alive_cursor]
                                             : kSimTimeHorizon;
  }
};

SimTime ShardedEngine::Host::now() const { return shard_->queue.now(); }

void ShardedEngine::Host::Broadcast(Packet pkt) {
  pkt.hdr.link_dst = kBroadcastId;
  shard_->radio->Send(id_, std::move(pkt));
}

void ShardedEngine::Host::Unicast(NodeId dst, Packet pkt) {
  SCOOP_CHECK_NE(dst, id_);
  pkt.hdr.link_dst = dst;
  shard_->radio->Send(id_, std::move(pkt));
}

EventId ShardedEngine::Host::Schedule(SimTime delay, SmallCallback fn) {
  return shard_->queue.ScheduleRegular(shard_->queue.now() + delay, id_, std::move(fn));
}

void ShardedEngine::Host::Cancel(EventId id) { shard_->queue.Cancel(id); }

ShardedEngine::ShardedEngine(Topology topology, ShardedEngineOptions options)
    : topology_(std::move(topology)), options_(options), duplicates_(topology_) {
  SCOOP_CHECK_GE(options_.shards, 1);
  SCOOP_CHECK_LE(options_.shards, 64);  // Shard sets travel as uint64_t masks.
  num_shards_ = options_.shards;
  int n = topology_.num_nodes();
  owner_ = PartitionNodes(topology_, num_shards_, options_.partition);
  cut_edges_ = CutEdges(topology_, owner_);
  imbalance_ = PartitionImbalance(owner_, num_shards_);

  // Announce routes from the CSR audible lists: every shard owning a node
  // that can hear (or be interfered by) `u` mirrors u's transmissions.
  // The interference threshold prunes at 0.05 but any audible link is a
  // superset of that, so the mask covers all channel effects.
  announce_mask_.assign(static_cast<size_t>(n), 0);
  std::vector<uint64_t> out_mask(static_cast<size_t>(num_shards_), 0);
  std::vector<uint64_t> in_mask(static_cast<size_t>(num_shards_), 0);
  for (NodeId u = 0; u < n; ++u) {
    uint64_t mask = 0;
    for (const Topology::Link& link : topology_.audible_from(u)) {
      mask |= uint64_t{1} << owner_[link.to];
    }
    mask &= ~(uint64_t{1} << owner_[u]);
    announce_mask_[u] = mask;
    out_mask[owner_[u]] |= mask;
    uint64_t m = mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      in_mask[t] |= uint64_t{1} << owner_[u];
    }
  }

  mail_ = std::make_unique<Mailbox[]>(static_cast<size_t>(num_shards_) *
                                      static_cast<size_t>(num_shards_));
  size_t cells = static_cast<size_t>(num_shards_) * static_cast<size_t>(num_shards_);
  ept_ = std::make_unique<std::atomic<SimTime>[]>(cells);
  for (size_t c = 0; c < cells; ++c) ept_[c].store(0, std::memory_order_relaxed);

  // Two pseudo-origins above the node id space order same-time driver and
  // failure-injection events deterministically after node events.
  uint32_t num_origins = static_cast<uint32_t>(n) + 2;
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>(num_origins);
    Shard* sh = shard.get();
    sh->index = s;
    sh->in_mask = in_mask[s];
    sh->out_mask = out_mask[s];
    // ACK verdicts flow opposite to announces, so drain both directions.
    sh->drain_mask = in_mask[s] | out_mask[s];
    sh->radio = std::make_unique<ShardRadio>(&topology_, options_.radio, &sh->queue,
                                             options_.seed, &owner_, s, &duplicates_);
    sh->radio->SetAnnounceTargets(&announce_mask_, num_shards_);
    sh->hosts.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < n; ++id) {
      if (owner_[id] == s) {
        sh->hosts[id] = std::make_unique<Host>(this, sh, id, options_.seed);
      }
    }
    sh->radio->set_deliver_hook(
        [sh](NodeId receiver, const Packet& pkt, bool addressed, bool duplicate) {
          if (sh->deliver_observer) sh->deliver_observer(receiver, pkt, addressed, duplicate);
          sh->hosts[receiver]->Deliver(pkt, addressed, duplicate);
        });
    sh->radio->set_send_done_hook([sh](NodeId src, const Packet& pkt, bool success) {
      sh->hosts[src]->SendDone(pkt, success);
    });
    sh->radio->set_transmit_hook([sh](NodeId src, const Packet& pkt, bool retx) {
      if (sh->transmit_observer) sh->transmit_observer(src, pkt, retx);
    });
    sh->radio->set_drop_hook([sh](NodeId src, const Packet& pkt, DropReason reason) {
      if (sh->drop_observer) sh->drop_observer(src, pkt, reason);
    });
    sh->radio->set_announce_fn(
        [this, sh](NodeId src, uint32_t gen, SimTime start, SimTime end,
                   const Packet& pkt) {
          uint64_t mask = announce_mask_[src];
          while (mask != 0) {
            int to = std::countr_zero(mask);
            mask &= mask - 1;
            ShardMsg msg;
            msg.kind = ShardMsg::Kind::kAnnounce;
            msg.src = src;
            msg.gen = gen;
            msg.start = start;
            msg.end = end;
            msg.pkt = pkt;
            Push(sh->index, to, std::move(msg));
          }
        });
    sh->radio->set_abort_fn([this, sh](NodeId src, uint32_t gen) {
      uint64_t mask = announce_mask_[src];
      while (mask != 0) {
        int to = std::countr_zero(mask);
        mask &= mask - 1;
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kAbort;
        msg.src = src;
        msg.gen = gen;
        Push(sh->index, to, std::move(msg));
      }
    });
    sh->radio->set_ack_fn([this, sh](NodeId src, uint32_t gen, bool received) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kAck;
      msg.src = src;
      msg.gen = gen;
      msg.received = received;
      Push(sh->index, owner_[src], std::move(msg));
    });
    shards_.push_back(std::move(shard));
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::SetApp(NodeId id, std::unique_ptr<App> app) {
  SCOOP_CHECK(!started_);
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  shards_[owner_[id]]->hosts[id]->set_app(std::move(app));
}

App* ShardedEngine::app(NodeId id) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  return shards_[owner_[id]]->hosts[id]->app();
}

void ShardedEngine::Start() {
  SCOOP_CHECK(!started_);
  started_ = true;
  // Identical draw order to Network::Start (one boot-jitter stream walked
  // in node id order), independent of the partition.
  Rng boot_rng(MixSeed(options_.seed, 0xB007), /*stream=*/0xB007);
  int n = topology_.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    SimTime at =
        options_.boot_jitter > 0 ? boot_rng.UniformInt(0, options_.boot_jitter) : 0;
    Shard* sh = shards_[owner_[id]].get();
    Host* h = sh->hosts[id].get();
    sh->queue.ScheduleRegular(at, id, [h] { h->Boot(); });
  }
  for (auto& shard : shards_) {
    std::sort(shard->alive_times.begin(), shard->alive_times.end());
  }
}

void ShardedEngine::ScheduleDriver(SimTime at, SmallCallback fn) {
  Shard* sh = shards_[owner_[0]].get();
  sh->queue.ScheduleRegular(at, static_cast<uint32_t>(topology_.num_nodes()),
                            std::move(fn));
}

SimTime ShardedEngine::DriverNow() const { return shards_[owner_[0]]->queue.now(); }

void ShardedEngine::ScheduleAlive(SimTime at, NodeId id, bool alive) {
  ScheduleFault(at, id, [this, id, alive] { FaultSetAlive(id, alive); });
}

void ShardedEngine::ScheduleFault(SimTime at, NodeId id, SmallCallback fn) {
  SCOOP_CHECK(!started_);  // The AliveFloor schedule must be complete pre-run.
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  Shard* sh = shards_[owner_[id]].get();
  // Named functor rather than a lambda: capturing one SmallCallback inside
  // another overflows the inline buffer either way, but the struct keeps
  // the advance-the-AliveFloor bookkeeping next to the action it covers.
  struct FaultFire {
    Shard* sh;
    SmallCallback fn;
    void operator()() {
      fn();
      ++sh->alive_cursor;
    }
  };
  sh->queue.ScheduleRegular(at, static_cast<uint32_t>(topology_.num_nodes()) + 1,
                            FaultFire{sh, std::move(fn)});
  sh->alive_times.push_back(at);
}

void ShardedEngine::FaultSetAlive(NodeId id, bool alive) {
  shards_[owner_[id]]->radio->SetNodeAlive(id, alive);
}

void ShardedEngine::FaultCrash(NodeId id) { shards_[owner_[id]]->hosts[id]->Crash(); }

void ShardedEngine::FaultReboot(NodeId id) { shards_[owner_[id]]->hosts[id]->Reboot(); }

void ShardedEngine::FaultRootPromote(NodeId id, bool promote) {
  shards_[owner_[id]]->hosts[id]->RootPromote(promote);
}

void ShardedEngine::SetFaultChannel(const fault::LinkFaultChannel* channel) {
  for (auto& shard : shards_) shard->radio->SetFaultChannel(channel);
}

void ShardedEngine::set_transmit_observer(int shard, Radio::TransmitHook observer) {
  shards_[shard]->transmit_observer = std::move(observer);
}

void ShardedEngine::set_deliver_observer(int shard, Radio::DeliverHook observer) {
  shards_[shard]->deliver_observer = std::move(observer);
}

void ShardedEngine::set_drop_observer(int shard, Radio::DropHook observer) {
  shards_[shard]->drop_observer = std::move(observer);
}

void ShardedEngine::EnableObservability(int shard, obs::TraceSink* trace,
                                        obs::MetricsRegistry* metrics,
                                        obs::SimProfiler* profiler,
                                        SimTime metrics_interval) {
  Shard* sh = shards_[shard].get();
  sh->trace = trace;
  sh->profiler = profiler;
  sh->queue.set_profiler(profiler);
  sh->radio->EnableObservability(trace, metrics, profiler);
  if (metrics != nullptr) {
    sh->ctr_stall_us = metrics->Counter("shard.stall_us");
    sh->ctr_stall_episodes = metrics->Counter("shard.stall_episodes");
    ShardRadio* radio = sh->radio.get();
    metrics->Gauge("shard.mirrored_frames",
                   [radio] { return radio->mirrored_frames(); });
    if (shard == 0) {
      // Partition quality is engine-global; register it on shard 0 only so
      // the merged JSONL carries one copy per sample instant. The
      // imbalance gauge is in per-mille (gauges are integral).
      metrics->Gauge("partition.cut_edges", [this] { return cut_edges_; });
      metrics->Gauge("partition.imbalance", [this] {
        return static_cast<uint64_t>(imbalance_ * 1000.0);
      });
    }
    // One slack counter per out-neighbor: how much extra promise headroom
    // the per-boundary floors gave that neighbor over the most
    // conservative (global-minimum) promise, accumulated per publish.
    sh->ctr_ept_slack.assign(static_cast<size_t>(num_shards_), nullptr);
    uint64_t m = sh->out_mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      sh->ctr_ept_slack[t] =
          metrics->Counter("shard.ept_slack_us.to" + std::to_string(t));
      sh->slack_obs = true;
    }
    sh->ctr_ept_bind[kBindMac] = metrics->Counter("shard.ept_bind.mac");
    sh->ctr_ept_bind[kBindHead] = metrics->Counter("shard.ept_bind.lookahead_head");
    sh->ctr_ept_bind[kBindSafe] = metrics->Counter("shard.ept_bind.lookahead_safe");
    sh->ctr_ept_bind[kBindAlive] = metrics->Counter("shard.ept_bind.alive");
    sh->depth_hist = metrics->Hist("queue.occupancy");
    ShardQueue* q = &sh->queue;
    metrics->Gauge("queue.depth", [q] { return static_cast<uint64_t>(q->size()); });
    metrics->Gauge("queue.processed", [q] { return q->processed(); });
    // Per-tier split of the two-tier queue (wheel L0/L1 + heap spill).
    metrics->Gauge("queue.wheel.absorbed", [q] { return q->wheel_absorbed(); });
    metrics->Gauge("queue.wheel.spilled", [q] { return q->wheel_spilled(); });
    metrics->Gauge("queue.wheel.l0_depth",
                   [q] { return static_cast<uint64_t>(q->wheel_l0_size()); });
    metrics->Gauge("queue.wheel.l1_depth",
                   [q] { return static_cast<uint64_t>(q->wheel_l1_size()); });
    metrics->Gauge("queue.heap_depth",
                   [q] { return static_cast<uint64_t>(q->heap_tier_size()); });
    if (metrics_interval > 0) {
      sh->sample_reg = metrics;
      sh->metrics_interval = metrics_interval;
      sh->next_sample = metrics_interval;
    }
  }
}

uint64_t ShardedEngine::processed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.processed();
  return total;
}

uint64_t ShardedEngine::wheel_absorbed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.wheel_absorbed();
  return total;
}

uint64_t ShardedEngine::wheel_spilled() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.wheel_spilled();
  return total;
}

uint64_t ShardedEngine::stall_us() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stall_us_total;
  return total;
}

uint64_t ShardedEngine::stall_episodes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stall_episodes;
  return total;
}

uint64_t ShardedEngine::mirrored_frames() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->radio->mirrored_frames();
  return total;
}

void ShardedEngine::Push(int from, int to, ShardMsg msg) {
  // Promise soundness: an announce or abort is never earlier than what
  // `from` already promised `to` (an abort goes out at the sender's
  // clock). Acks are exempt: the completion waiting on one stalls at its
  // shard's queue head, which keeps that shard's own promise covering it.
  SCOOP_DCHECK(msg.kind == ShardMsg::Kind::kAck ||
               ept_[static_cast<size_t>(from) * num_shards_ + to].load(
                   std::memory_order_relaxed) <=
                   (msg.kind == ShardMsg::Kind::kAnnounce
                        ? msg.start
                        : shards_[from]->queue.now()));
  Mailbox& box = mail_[static_cast<size_t>(to) * num_shards_ + from];
  std::lock_guard<std::mutex> lock(box.mu);
  box.msgs.push_back(std::move(msg));
}

SimTime ShardedEngine::SafeTime(const Shard& shard) const {
  SimTime safe = kSimTimeHorizon;
  uint64_t mask = shard.in_mask;
  while (mask != 0) {
    int f = std::countr_zero(mask);
    mask &= mask - 1;
    // `f`'s promise TO US specifically -- not its global minimum.
    safe = std::min(safe, ept_[static_cast<size_t>(f) * num_shards_ + shard.index]
                              .load(std::memory_order_acquire));
  }
  return safe;
}

void ShardedEngine::Drain(Shard* shard) {
  uint64_t mask = shard->drain_mask;
  while (mask != 0) {
    int from = std::countr_zero(mask);
    mask &= mask - 1;
    Mailbox& box = mail_[static_cast<size_t>(shard->index) * num_shards_ + from];
    std::vector<ShardMsg> msgs;
    {
      std::lock_guard<std::mutex> lock(box.mu);
      msgs.swap(box.msgs);
    }
    for (ShardMsg& m : msgs) {
      switch (m.kind) {
        case ShardMsg::Kind::kAnnounce:
          shard->radio->HandleAnnounce(m.src, m.gen, m.start, m.end, std::move(m.pkt));
          break;
        case ShardMsg::Kind::kAbort:
          shard->radio->HandleAbort(m.src, m.gen);
          break;
        case ShardMsg::Kind::kAck:
          shard->radio->HandleAckResult(m.src, m.gen, m.received);
          break;
      }
    }
  }
}

bool ShardedEngine::ExecuteUpTo(Shard* shard, SimTime safe, SimTime end) {
  obs::ScopedBucket bucket(shard->profiler, obs::SimProfiler::kQueue);
  const SimTime limit = std::min(safe, end);
  bool progress = false;
  SimTime head = shard->queue.HeadTime();
  while (head <= limit) {
    if (shard->sample_reg != nullptr) {
      // Sample right before the first event past each grid point, i.e.
      // with exactly the events at or before it executed -- a point in
      // the canonical event order, so the rows are deterministic even
      // though `limit` depends on thread timing. Grid points the run
      // never executes past are flushed at the end of RunShard.
      while (shard->next_sample < head) {
        shard->depth_hist->Record(shard->queue.size());
        shard->sample_reg->Sample(shard->next_sample);
        shard->next_sample += shard->metrics_interval;
      }
    }
    NodeId sender;
    uint32_t gen;
    if (shard->queue.HeadFinishInfo(&sender, &gen) &&
        shard->radio->AckBlocked(sender, gen)) {
      // The completion's remote ACK verdict has not arrived: stall with
      // the event still queued (MacFloor keeps the promise at its time).
      break;
    }
    shard->queue.RunOne();
    progress = true;
    head = shard->queue.HeadTime();
    if (head > shard->queue.now()) {
      // This instant is complete: publish the promise it raised now, so a
      // neighbor waiting on it runs alongside the rest of this batch.
      obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
      PublishEpt(shard, safe, head);
    }
  }
  return progress;
}

void ShardedEngine::PublishEpt(Shard* shard, SimTime safe, SimTime head) {
  if (shard->out_mask == 0) return;  // Nobody reads our promises.
  SimTime clock = shard->queue.now();
  const bool head_past_clock = head > clock;
  SimTime alive = shard->AliveFloor();
  // Any transmission this shard has not yet committed to must still clear
  // a scheduled carrier sense: at least backoff_min past the earliest
  // thing that could trigger one (queue head, or an inbound message at
  // our current safe time). This shard-global floor also covers every
  // post-completion acquisition: a frame finishing at `end` holds head <=
  // end until its completion runs, and its successor starts >= end +
  // backoff_min, so in-flight transmit ends need no floor entry at all.
  SimTime base = std::min(head, safe);
  SimTime lookahead = base >= kSimTimeHorizon - options_.radio.backoff_min
                          ? kSimTimeHorizon
                          : base + options_.radio.backoff_min;
  const SimTime shared = std::min(alive, lookahead);
  // Per-boundary promises: each out-neighbor is capped only by the armed
  // carrier senses of nodes whose announces actually reach it.
  SimTime epts[64];
  SimTime min_ept = kSimTimeHorizon;
  uint64_t mask = shard->out_mask;
  while (mask != 0) {
    int t = std::countr_zero(mask);
    mask &= mask - 1;
    SimTime mac = shard->radio->MacFloorFor(t, clock, head_past_clock);
    SimTime ept = std::min(shared, mac);
    std::atomic<SimTime>& cell =
        ept_[static_cast<size_t>(shard->index) * num_shards_ + t];
    // Monotone publish: a promise never retreats. Only this shard's thread
    // writes the cell, so load-then-store is race-free.
    if (ept > cell.load(std::memory_order_relaxed)) {
      cell.store(ept, std::memory_order_release);
      if (shard->ctr_ept_bind[kBindMac] != nullptr) {
        EptBind bind = ept == mac         ? kBindMac
                       : ept != lookahead ? kBindAlive
                       : head <= safe     ? kBindHead
                                          : kBindSafe;
        ++*shard->ctr_ept_bind[bind];
      }
    }
    epts[t] = ept;
    if (ept < min_ept) min_ept = ept;
  }
  if (shard->slack_obs) {
    // Accumulated per-neighbor headroom over the most conservative
    // promise (what a single global floor would have published); clamped
    // per publish so an idle tail cannot swamp the series.
    uint64_t m = shard->out_mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      if (shard->ctr_ept_slack[t] == nullptr) continue;
      SimTime slack = std::min(epts[t] - min_ept, kSecond);
      *shard->ctr_ept_slack[t] += static_cast<uint64_t>(slack);
    }
  }
}

void ShardedEngine::RunShard(Shard* shard, SimTime end) {
  // Attribution starts here: setup time between EnableObservability and
  // the run loop belongs to no bucket.
  if (shard->profiler != nullptr) shard->profiler->Restart();
  // Wall time spent in the current run of no-progress iterations; each
  // such episode becomes one counter bump + trace instant on resumption
  // (not one per spin), so stalls cannot flood the sinks.
  int64_t stall_ns = 0;
  for (;;) {
    SimTime safe;
    {
      obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
      safe = SafeTime(*shard);  // Acquire EPTs BEFORE draining, so
      Drain(shard);             // every message behind them is seen.
    }
    bool progress = ExecuteUpTo(shard, safe, end);
    obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
    SimTime head = shard->queue.HeadTime();
    PublishEpt(shard, safe, head);
    if (stall_ns > 0 && progress) {
      uint64_t us = static_cast<uint64_t>(stall_ns / 1000);
      stall_ns = 0;
      shard->stall_us_total += us;
      ++shard->stall_episodes;
      if (shard->ctr_stall_us != nullptr) *shard->ctr_stall_us += us;
      if (shard->ctr_stall_episodes != nullptr) ++*shard->ctr_stall_episodes;
      if (shard->trace != nullptr) {
        shard->trace->Instant(shard->queue.now(), "ept.stall",
                              obs::TraceCat::kShardSync, obs::kEngineTid,
                              "wall_us", us);
      }
    }
    // Done once nothing at or before `end` remains and no in-neighbor can
    // still send anything relevant. The loop keeps republishing on idle
    // iterations so neighbor promises (and then everyone's exit) converge.
    if (safe > end && head > end) break;
    if (!progress) {
      // Always wall-clocked (the spin is wasted time anyway); the totals
      // feed the engine's stall_us()/stall_episodes() perf telemetry even
      // with observability off.
      auto mark = std::chrono::steady_clock::now();
      std::this_thread::yield();
      stall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - mark)
                      .count();
    }
  }
  if (stall_ns > 0) {
    uint64_t us = static_cast<uint64_t>(stall_ns / 1000);
    shard->stall_us_total += us;
    ++shard->stall_episodes;
    if (shard->ctr_stall_us != nullptr) *shard->ctr_stall_us += us;
    if (shard->ctr_stall_episodes != nullptr) ++*shard->ctr_stall_episodes;
  }
  if (shard->sample_reg != nullptr) {
    // Flush grid points the event stream never stepped past: everything at
    // or before `end` has executed, so these rows are deterministic too.
    while (shard->next_sample <= end) {
      shard->depth_hist->Record(shard->queue.size());
      shard->sample_reg->Sample(shard->next_sample);
      shard->next_sample += shard->metrics_interval;
    }
  }
  // Close the books on this shard's wall-clock attribution here, on the
  // shard's own thread: whatever the main thread does afterwards (trace
  // export, result merge) must not leak into this shard's buckets.
  if (shard->profiler != nullptr) shard->profiler->Stop();
}

void ShardedEngine::RunUntil(SimTime end) {
  SCOOP_CHECK(started_);
  if (num_shards_ == 1) {
    RunShard(shards_[0].get(), end);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_shards_));
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    threads.emplace_back([this, sh, end] { RunShard(sh, end); });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace scoop::sim
