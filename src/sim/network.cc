#include "sim/network.h"

#include <utility>

#include "common/check.h"

namespace scoop::sim {

/// Per-node container: implements Context for the hosted app and hands it
/// the radio's deliveries (duplicate-flagged by the radio's filter).
class Network::Host : public Context {
 public:
  Host(Network* network, NodeId id, uint64_t seed)
      : network_(network), id_(id), rng_(MixSeed(seed, id), /*stream=*/id) {}

  void set_app(std::unique_ptr<App> app) { app_ = std::move(app); }
  App* app() { return app_.get(); }

  // --- Context ---
  NodeId self() const override { return id_; }
  SimTime now() const override { return network_->queue_.now(); }
  Rng& rng() override { return rng_; }

  void Broadcast(Packet pkt) override {
    pkt.hdr.link_dst = kBroadcastId;
    network_->radio_->Send(id_, std::move(pkt));
  }

  void Unicast(NodeId dst, Packet pkt) override {
    SCOOP_CHECK_NE(dst, id_);
    pkt.hdr.link_dst = dst;
    network_->radio_->Send(id_, std::move(pkt));
  }

  EventId Schedule(SimTime delay, SmallCallback fn) override {
    return network_->queue_.ScheduleAfter(delay, std::move(fn));
  }

  void Cancel(EventId id) override { network_->queue_.Cancel(id); }

  const RadioOptions& radio_options() const override { return network_->options_.radio; }

  // --- Delivery path (called by Network) ---
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

 private:
  Network* network_;
  NodeId id_;
  Rng rng_;
  std::unique_ptr<App> app_;
};

Network::Network(Topology topology, NetworkOptions options)
    : topology_(std::move(topology)), options_(options) {
  radio_ = std::make_unique<Radio>(&topology_, options_.radio, &queue_, options_.seed);
  int n = topology_.num_nodes();
  hosts_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    hosts_.push_back(std::make_unique<Host>(this, static_cast<NodeId>(i), options_.seed));
  }
  radio_->set_deliver_hook(
      [this](NodeId receiver, const Packet& pkt, bool addressed, bool duplicate) {
        if (deliver_observer_) deliver_observer_(receiver, pkt, addressed, duplicate);
        hosts_[receiver]->Deliver(pkt, addressed, duplicate);
      });
  radio_->set_send_done_hook([this](NodeId src, const Packet& pkt, bool success) {
    hosts_[src]->SendDone(pkt, success);
  });
}

Network::~Network() = default;

void Network::SetApp(NodeId id, std::unique_ptr<App> app) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), hosts_.size());
  SCOOP_CHECK(!started_);
  hosts_[id]->set_app(std::move(app));
}

void Network::Start() {
  SCOOP_CHECK(!started_);
  started_ = true;
  Rng boot_rng(MixSeed(options_.seed, 0xB007), /*stream=*/0xB007);
  for (auto& host : hosts_) {
    SimTime at = options_.boot_jitter > 0
                     ? boot_rng.UniformInt(0, options_.boot_jitter)
                     : 0;
    Host* h = host.get();
    queue_.ScheduleAt(at, [h] { h->Boot(); });
  }
}

void Network::RunUntil(SimTime t) { queue_.RunUntil(t); }

App* Network::app(NodeId id) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), hosts_.size());
  return hosts_[id]->app();
}

Context& Network::context(NodeId id) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), hosts_.size());
  return *hosts_[id];
}

void Network::set_transmit_observer(Radio::TransmitHook observer) {
  // The Network itself never consumes the transmit hook; pass through.
  radio_->set_transmit_hook(std::move(observer));
}

void Network::set_deliver_observer(Radio::DeliverHook observer) {
  deliver_observer_ = std::move(observer);
}

void Network::set_drop_observer(Radio::DropHook observer) {
  // The Network itself never consumes the drop hook; pass through.
  radio_->set_drop_hook(std::move(observer));
}

}  // namespace scoop::sim
