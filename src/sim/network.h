// Assembles a simulated network: event queue + radio + one hosted App per
// node. Provides the run loop used by tests, examples, and benchmarks.
#ifndef SCOOP_SIM_NETWORK_H_
#define SCOOP_SIM_NETWORK_H_

#include <memory>
#include <vector>

#include "sim/app.h"
#include "sim/event_queue.h"
#include "sim/radio.h"
#include "sim/topology.h"

namespace scoop::sim {

/// Whole-network configuration.
struct NetworkOptions {
  RadioOptions radio;
  /// Master seed; per-node streams are derived from it.
  uint64_t seed = 1;
  /// Nodes boot at a uniform random time in [0, boot_jitter].
  SimTime boot_jitter = Seconds(2);
};

/// Owns the simulation state for one run.
class Network {
 public:
  Network(Topology topology, NetworkOptions options);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the protocol stack for node `id`. Must be called for every
  /// node before Start().
  void SetApp(NodeId id, std::unique_ptr<App> app);

  /// Schedules all boots. Call once after all SetApp() calls.
  void Start();

  /// Advances simulated time, running all due events.
  void RunUntil(SimTime t);

  /// Current simulated time.
  SimTime now() const { return queue_.now(); }

  EventQueue& queue() { return queue_; }
  Radio& radio() { return *radio_; }
  const Topology& topology() const { return topology_; }

  /// The app installed on `id` (null if none).
  App* app(NodeId id);

  /// The Context handed to node `id` (for tests that poke apps directly).
  Context& context(NodeId id);

  /// Observers for instrumentation (message statistics). These chain in
  /// front of internal delivery -- unlike Radio's hooks, which the Network
  /// itself owns, these are safe for user code to install.
  void set_transmit_observer(Radio::TransmitHook observer);
  void set_deliver_observer(Radio::DeliverHook observer);
  void set_drop_observer(Radio::DropHook observer);

  /// Failure injection (§2.1): powers a node's radio down (it neither
  /// sends nor receives) or back up. The node's protocol timers keep
  /// running, as a crashed-and-rebooted mote's would not -- this models a
  /// radio/power failure, the common mote failure mode.
  void SetNodeAlive(NodeId id, bool alive) { radio_->SetNodeAlive(id, alive); }

  /// Attaches a link-fault channel (see Radio::SetFaultChannel); nullptr
  /// detaches. The channel must outlive the run.
  void SetFaultChannel(const fault::LinkFaultChannel* channel) {
    radio_->SetFaultChannel(channel);
  }

 private:
  class Host;

  Topology topology_;
  NetworkOptions options_;
  EventQueue queue_;
  std::unique_ptr<Radio> radio_;
  std::vector<std::unique_ptr<Host>> hosts_;
  Radio::DeliverHook deliver_observer_;
  bool started_ = false;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_NETWORK_H_
