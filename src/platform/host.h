// cmtos/platform/host.h
//
// Host bundles everything that runs on one end-system: the transport
// entity, the LLO instance and the RPC runtime (the software the MNI unit
// ran beside the application host, §2.1).  Platform owns the hosts, the
// network, the trader and the HLO/Orchestrator, giving tests, benches and
// examples a one-stop way to stand up the whole Lancaster stack.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "net/network.h"
#include "orch/llo.h"
#include "orch/orchestrator.h"
#include "platform/orch_app_mux.h"
#include "platform/rpc.h"
#include "platform/trader.h"
#include "sim/scheduler.h"
#include "transport/transport_entity.h"
#include "util/rng.h"

namespace cmtos::platform {

struct Host {
  net::NodeId id;
  transport::TransportEntity entity;
  orch::Llo llo;
  RpcRuntime rpc;
  OrchAppMux app_mux;

  Host(net::Network& network, net::NodeId node)
      : id(node), entity(network, node), llo(network, node, entity), rpc(network, node) {
    llo.set_app_handler(&app_mux);
    // Crash/restart of the software stack routes through the network node:
    // Network::set_node_up is the single cross-shard fault channel, and the
    // handler tears down / cold-starts the layers that live on this shard.
    // A crash drops every layer's volatile state (transport VCs and pending
    // handshakes, LLO sessions and endpoint attachments, pending RPCs); a
    // restart comes back empty, so peers must re-establish everything.
    network.node(node).set_fault_handler([this](bool up) {
      if (up) {
        entity.restart();
        llo.restart();
        rpc.restart();
      } else {
        entity.crash();
        llo.crash();
        rpc.crash();
      }
    });
  }

  /// Allocates a fresh TSAP for dynamically created users (Streams).
  /// Device TSAPs are conventionally chosen below 1000.
  net::Tsap alloc_tsap() { return next_tsap_++; }

 private:
  net::Tsap next_tsap_ = 1000;
};

class Platform {
 public:
  explicit Platform(std::uint64_t seed = 42)
      : network_(scheduler_, Rng(seed)),
        orchestrator_([this](net::NodeId n) {
          auto it = hosts_.find(n);
          return it == hosts_.end() ? nullptr : &it->second->llo;
        }) {}

  sim::Scheduler& scheduler() { return scheduler_; }
  net::Network& network() { return network_; }
  orch::Orchestrator& orchestrator() { return orchestrator_; }

  /// Adds a node + host stack.  `clock` models the host's skewed local
  /// clock (§3.6 drift).
  Host& add_host(const std::string& name, sim::LocalClock clock = {}) {
    const net::NodeId id = network_.add_node(name, clock);
    auto host = std::make_unique<Host>(network_, id);
    Host& ref = *host;
    hosts_.emplace(id, std::move(host));
    return ref;
  }

  Host& host(net::NodeId id) { return *hosts_.at(id); }
  std::size_t host_count() const { return hosts_.size(); }

  /// Designates `node` as the trader node and starts the server there.
  void start_trader(net::NodeId node) {
    trader_node_ = node;
    trader_server_ = std::make_unique<TraderServer>(host(node).rpc);
  }
  net::NodeId trader_node() const { return trader_node_; }
  TraderClient trader_client(net::NodeId from) {
    return TraderClient(host(from).rpc, trader_node_);
  }

  /// Convenience: run the simulation until quiescent or until `t`.
  void run_until(Time t) { scheduler_.run_until(t); }
  void run() { scheduler_.run(); }

  /// Worker count for parallel executor rounds; 1 reproduces serial traces
  /// byte-for-byte (the determinism oracle).
  void set_threads(unsigned n) { scheduler_.set_threads(n); }

  bool node_alive(net::NodeId id) const { return network_.node_up(id); }

 private:
  sim::Scheduler scheduler_;
  net::Network network_;
  std::map<net::NodeId, std::unique_ptr<Host>> hosts_;
  orch::Orchestrator orchestrator_;
  net::NodeId trader_node_ = net::kInvalidNode;
  std::unique_ptr<TraderServer> trader_server_;
};

}  // namespace cmtos::platform
