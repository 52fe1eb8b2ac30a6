#include "sim/radio.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scoop::sim {

Radio::Radio(const Topology* topology, const RadioOptions& options, EventQueue* queue,
             uint64_t seed)
    : topology_(topology),
      options_(options),
      queue_(queue),
      rng_(MixSeed(seed, /*entity_id=*/0xAD10), /*stream=*/0xAD10),
      mac_(static_cast<size_t>(topology->num_nodes())),
      alive_(static_cast<size_t>(topology->num_nodes()), true),
      active_tx_(topology->num_nodes()),
      node_tx_(static_cast<size_t>(topology->num_nodes())),
      collisions_(topology, options, Airtime(options.max_packet_bytes)),
      duplicates_(*topology) {
  SCOOP_CHECK(topology != nullptr);
  SCOOP_CHECK(queue != nullptr);
  // The topology precomputes interferer sets at its default threshold; a
  // radio configured with a different threshold builds matching sets once
  // here. Either way carrier sense reads one resolved pointer.
  if (options_.interference_threshold == Topology::kInterferenceThreshold) {
    interferers_ = &topology->interferer_sets();
  } else {
    own_interferers_ = topology->BuildInterfererSets(options_.interference_threshold);
    interferers_ = &own_interferers_;
  }
}

void Radio::EnableObservability(obs::TraceSink* trace,
                                obs::MetricsRegistry* metrics,
                                obs::SimProfiler* profiler) {
  trace_ = trace;
  profiler_ = profiler;
  if (metrics != nullptr) {
    backoff_hist_ = metrics->Hist("mac.backoff_us");
    ctr_backoffs_ = metrics->Counter("mac.backoffs_scheduled");
    ctr_tx_ = metrics->Counter("radio.tx_started");
    ctr_deliveries_ = metrics->Counter("radio.deliveries");
    ctr_drops_busy_ = metrics->Counter("radio.drops_channel_busy");
    ctr_drops_noack_ = metrics->Counter("radio.drops_no_ack");
    ctr_rx_collided_ = metrics->Counter("radio.rx_collided");
    ctr_rx_duplicate_ = metrics->Counter("radio.rx_duplicate");
  }
}

void Radio::SetNodeAlive(NodeId id, bool alive) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), alive_.size());
  alive_[id] = alive;
  if (!alive) {
    MacState& mac = mac_[id];
    mac.queue.clear();
    if (mac.transmitting) {
      // Abort the in-flight frame: bumping the generation turns the
      // pending FinishTx into a stale no-op, so a frame queued after a
      // power-cycle can never be mistaken for the aborted one. The RF
      // energy already on the air keeps interfering until its scheduled
      // end (the channel indexes retain the span).
      mac.transmitting = false;
      ++mac.tx_gen;
    }
  }
}

bool Radio::IsAlive(NodeId id) const {
  SCOOP_CHECK_LT(static_cast<size_t>(id), alive_.size());
  return alive_[id];
}

SimTime Radio::Airtime(int wire_size) const {
  double bits = static_cast<double>(options_.link_header_bytes + wire_size) * 8.0;
  return static_cast<SimTime>(bits / options_.bitrate_bps * kSecond);
}

SimTime Radio::BackoffWindow(const RadioOptions& options, int attempt) {
  SCOOP_CHECK_GE(attempt, 1);
  // Binary exponential backoff: the window starts at backoff_min, doubles
  // with each failed channel-acquisition attempt, and is clamped at
  // backoff_max. (The seed started at backoff_max and doubled from there,
  // so contending senders waited 32x too long on first contact and the
  // window kept growing past any configured ceiling.)
  SimTime window = options.backoff_min;
  for (int k = 1; k < attempt && window < options.backoff_max; ++k) window *= 2;
  return std::min(window, options.backoff_max);
}

void Radio::Send(NodeId src, Packet pkt) {
  SCOOP_CHECK_LT(src, mac_.size());
  SCOOP_CHECK_LE(pkt.WireSize(), options_.max_packet_bytes);
  if (!alive_[src]) return;  // Dead radios transmit nothing.
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  if (trace_ != nullptr) {
    trace_->Instant(queue_->now(), "originate", obs::TraceCat::kPacket, src,
                    "type", static_cast<uint64_t>(pkt.hdr.type), "bytes",
                    static_cast<uint64_t>(pkt.WireSize()));
  }
  pkt.hdr.link_src = src;
  OutFrame frame;
  frame.airtime = Airtime(pkt.WireSize());
  frame.pkt = std::move(pkt);
  frame.retries_left =
      (frame.pkt.hdr.link_dst == kBroadcastId) ? 0 : options_.unicast_retries;
  mac_[src].queue.push_back(std::move(frame));
  TryStart(src);
}

bool Radio::IsIdle(NodeId src) const {
  SCOOP_CHECK_LT(src, mac_.size());
  return mac_[src].queue.empty() && !mac_[src].transmitting;
}

size_t Radio::PendingCount(NodeId src) const {
  SCOOP_CHECK_LT(src, mac_.size());
  return mac_[src].queue.size();
}

bool Radio::ChannelBusy(NodeId node) const {
  SimTime now = queue_->now();
  // Our own latest transmission (only the most recent can still be on the
  // air -- a node's transmissions are serial).
  if (node_tx_[node][0].end > now) return true;
  // Audible foreign transmissions: only active transmitters that are in
  // this node's interferer set can trip carrier sense.
  const InterfererSet& audible = (*interferers_)[node];
  return audible.AnyActive(active_tx_,
                           [&](NodeId a) { return node_tx_[a][0].end > now; });
}

bool Radio::WasTransmitting(NodeId node, SimTime start, SimTime end) const {
  // A node's transmissions are serial, so of all its frames only the most
  // recent one starting before `end` can overlap [start, end] -- and at
  // most one newer frame can share the window's end instant. Both live in
  // node_tx_.
  for (const TxSpan& t : node_tx_[node]) {
    if (t.start < end && t.end > start) return true;
  }
  return false;
}

void Radio::TryStart(NodeId src) {
  MacState& mac = mac_[src];
  if (mac.transmitting || mac.backoff_scheduled || mac.queue.empty()) return;
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);

  OutFrame& frame = mac.queue.front();
  if (ChannelBusy(src)) {
    ++frame.channel_attempts;
    if (frame.channel_attempts >= options_.max_channel_attempts) {
      OutFrame dropped = std::move(mac.queue.front());
      mac.queue.pop_front();
      if (ctr_drops_busy_ != nullptr) ++*ctr_drops_busy_;
      if (trace_ != nullptr) {
        trace_->Instant(queue_->now(), "drop.channel_busy",
                        obs::TraceCat::kPacket, src, "type",
                        static_cast<uint64_t>(dropped.pkt.hdr.type));
      }
      if (drop_hook_) drop_hook_(src, dropped.pkt, DropReason::kChannelBusy);
      if (send_done_hook_) send_done_hook_(src, dropped.pkt, false);
      TryStart(src);
      return;
    }
    SimTime window = BackoffWindow(options_, frame.channel_attempts);
    // Uniform in [1, window]: never zero (a zero delay would re-sense at
    // the same instant and burn channel attempts without progress).
    SimTime delay = 1 + rng_.UniformInt(0, window - 1);
    // Record the already-drawn delay (never draw for instrumentation).
    if (backoff_hist_ != nullptr) backoff_hist_->Record(static_cast<uint64_t>(delay));
    if (ctr_backoffs_ != nullptr) ++*ctr_backoffs_;
    if (trace_ != nullptr) {
      trace_->Span(queue_->now(), delay, "backoff", obs::TraceCat::kMac, src,
                   "attempt", static_cast<uint64_t>(frame.channel_attempts),
                   "window_us", static_cast<uint64_t>(window));
    }
    mac.backoff_scheduled = true;
    queue_->ScheduleAfter(delay, [this, src] {
      mac_[src].backoff_scheduled = false;
      TryStart(src);
    });
    return;
  }

  // Channel clear: transmit.
  if (!frame.seq_assigned) {
    frame.pkt.hdr.seq = mac.next_seq++;
    frame.seq_assigned = true;
  }
  bool is_retx = frame.retries_left < options_.unicast_retries &&
                 frame.pkt.hdr.link_dst != kBroadcastId;
  if (transmit_hook_) transmit_hook_(src, frame.pkt, is_retx);

  SimTime start = queue_->now();
  SimTime end = start + frame.airtime;
  if (ctr_tx_ != nullptr) ++*ctr_tx_;
  if (trace_ != nullptr) {
    trace_->Span(start, frame.airtime, "tx", obs::TraceCat::kPacket, src,
                 "type", static_cast<uint64_t>(frame.pkt.hdr.type), "seq",
                 static_cast<uint64_t>(frame.pkt.hdr.seq));
  }
  collisions_.Insert(src, start, end);
  node_tx_[src][1] = node_tx_[src][0];
  node_tx_[src][0] = TxSpan{start, end};
  active_tx_.Set(src);
  mac.transmitting = true;
  uint32_t gen = ++mac.tx_gen;
  queue_->ScheduleAt(end, [this, src, start, end, gen] { FinishTx(src, start, end, gen); });
}

void Radio::FinishTx(NodeId src, SimTime start, SimTime end, uint32_t gen) {
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  MacState& mac = mac_[src];
  if (gen != mac.tx_gen) {
    // Stale completion: the frame was aborted mid-air by a power-cycle.
    // Never touch the queue -- a frame queued after revival is a different
    // transmission. Retire the active-transmitter bit unless a newer
    // frame of this node has since claimed it.
    if (!mac.transmitting) active_tx_.Clear(src);
    return;
  }
  SCOOP_CHECK(mac.transmitting);
  mac.transmitting = false;
  active_tx_.Clear(src);
  // The queue cannot be empty here: power-downs (the only external queue
  // clear) bump tx_gen, which routes their completion through the stale
  // branch above.
  SCOOP_CHECK(!mac.queue.empty());

  OutFrame& frame = mac.queue.front();
  const Packet& pkt = frame.pkt;
  NodeId dst = pkt.hdr.link_dst;
  bool dst_received = false;

  // Only the sender's audible out-neighbors can receive; the CSR list
  // visits them in ascending id, the order the Bernoulli draws are pinned
  // to. Link i of the row owns duplicate slot first_link + i.
  // Fault windows scale link probabilities; the draw below still happens
  // for every audible link (even at probability 0), so an inactive channel
  // consumes the shared RNG stream exactly as a fault-free build does.
  // Windows are evaluated at the transmission end (= delivery instant).
  bool faulted = fault_ != nullptr && fault_->active();
  const bool maybe_collided = collisions_.Open(src, start, end);
  const size_t first_link = topology_->link_index(src);
  std::span<const Topology::Link> row = topology_->audible_from(src);
  for (size_t i = 0; i < row.size(); ++i) {
    const Topology::Link& link = row[i];
    NodeId r = link.to;
    if (!alive_[r]) continue;  // Dead radios hear nothing.
    double p = link.prob;
    if (faulted) p *= fault_->Scale(src, r, end);
    if (!rng_.Bernoulli(p)) continue;                   // Link loss.
    if (WasTransmitting(r, start, end)) continue;       // Half duplex.
    if (maybe_collided && collisions_.Corrupted(r, link.prob)) {
      if (ctr_rx_collided_ != nullptr) ++*ctr_rx_collided_;
      continue;
    }
    bool addressed = (dst == kBroadcastId) || (dst == r);
    if (dst == r) dst_received = true;
    bool duplicate = addressed && duplicates_.Observe(first_link + i, pkt.hdr.seq);
    if (ctr_deliveries_ != nullptr) ++*ctr_deliveries_;
    if (duplicate && ctr_rx_duplicate_ != nullptr) ++*ctr_rx_duplicate_;
    // Trace addressed receptions only; snoops are counted, not traced,
    // to bound trace volume in dense neighborhoods.
    if (trace_ != nullptr && addressed) {
      trace_->Instant(end, "deliver", obs::TraceCat::kPacket, r, "src",
                      static_cast<uint64_t>(src), "type",
                      static_cast<uint64_t>(pkt.hdr.type));
    }
    if (deliver_hook_) deliver_hook_(r, pkt, addressed, duplicate);
  }

  if (dst == kBroadcastId) {
    Packet sent = std::move(mac.queue.front().pkt);
    mac.queue.pop_front();
    if (send_done_hook_) send_done_hook_(src, sent, true);
  } else {
    // Link-layer ACK: modeled as a Bernoulli trial over the reverse link,
    // boosted because ACK frames are tiny (fewer bits at risk). We neither
    // charge airtime nor count ACKs as messages, matching mote link ACKs.
    double p_ack = std::pow(topology_->delivery_prob(dst, src),
                            options_.ack_shortness_exponent);
    if (faulted) p_ack *= fault_->Scale(dst, src, end);  // Reverse link.
    bool acked = dst_received && rng_.Bernoulli(p_ack);
    if (acked) {
      Packet sent = std::move(mac.queue.front().pkt);
      mac.queue.pop_front();
      if (send_done_hook_) send_done_hook_(src, sent, true);
    } else if (frame.retries_left > 0) {
      --frame.retries_left;
      frame.channel_attempts = 0;  // Fresh CSMA round for the retransmission.
    } else {
      Packet sent = std::move(mac.queue.front().pkt);
      mac.queue.pop_front();
      if (ctr_drops_noack_ != nullptr) ++*ctr_drops_noack_;
      if (trace_ != nullptr) {
        trace_->Instant(end, "drop.no_ack", obs::TraceCat::kPacket, src,
                        "type", static_cast<uint64_t>(sent.hdr.type), "dst",
                        static_cast<uint64_t>(dst));
      }
      if (drop_hook_) drop_hook_(src, sent, DropReason::kNoAck);
      if (send_done_hook_) send_done_hook_(src, sent, false);
    }
  }

  collisions_.Prune(queue_->now());
  TryStart(src);
}

}  // namespace scoop::sim
