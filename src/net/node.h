// cmtos/net/node.h
//
// An end-system / switching node.  Every node can both terminate traffic
// (it demultiplexes terminating packets to per-protocol handlers — the
// transport entity, the LLO, the RPC runtime register themselves here) and
// forward transit traffic toward its destination using the routing table
// computed by the Network.
//
// Each node owns a LocalClock: all components *on* that node must read time
// through it, never through the scheduler directly, reproducing the remote
// clock-rate discrepancies of §3.6.

#pragma once

#include <array>
#include <functional>
#include <string>

#include "net/packet.h"
#include "sim/clock.h"
#include "util/time.h"
#include "util/thread_annotations.h"

namespace cmtos::sim {
class NodeRuntime;
}

namespace cmtos::net {

class Network;

class CMTOS_SHARD_AFFINE Node {
 public:
  using Handler = std::function<void(Packet&&)>;

  Node(Network& network, NodeId id, std::string name, sim::LocalClock clock,
       sim::NodeRuntime& runtime)
      : network_(network), runtime_(&runtime), id_(id), name_(std::move(name)), clock_(clock) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  sim::LocalClock& clock() { return clock_; }
  const sim::LocalClock& clock() const { return clock_; }

  /// This node's local view of the current time.
  Time local_now() const;

  /// The event-queue shard that owns every piece of state on this node.
  /// Components resident on the node schedule their timers here.
  sim::NodeRuntime& runtime() { return *runtime_; }
  const sim::NodeRuntime& runtime() const { return *runtime_; }

  /// Registers the handler for packets terminating here with protocol `p`.
  void set_handler(Proto p, Handler h) { handlers_[index(p)] = std::move(h); }
  /// The handler registered for `p` (tests wrap it to drop chosen packets).
  const Handler& handler(Proto p) const { return handlers_[index(p)]; }

  /// Called by the Network when a packet addressed to this node arrives.
  void receive(Packet&& pkt);

  /// Crash/restart support: a down node neither terminates nor forwards
  /// traffic (the Network black-holes transit packets at a down node, the
  /// same observable behaviour as a powered-off switch).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  /// Installed by the platform: invoked by Network::set_node_up so crash /
  /// restart of the software stack routes through the Network rather than
  /// the fault injector poking node-owned state directly.
  void set_fault_handler(std::function<void(bool up)> h) { fault_handler_ = std::move(h); }
  void invoke_fault_handler(bool up) {
    if (fault_handler_) fault_handler_(up);
  }

  Network& network() { return network_; }

 private:
  static std::size_t index(Proto p) { return static_cast<std::size_t>(p); }

  Network& network_;
  sim::NodeRuntime* runtime_;
  NodeId id_;
  std::string name_;
  sim::LocalClock clock_;
  bool up_ = true;
  std::array<Handler, 8> handlers_{};
  std::function<void(bool)> fault_handler_;
};

}  // namespace cmtos::net
