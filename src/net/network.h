// cmtos/net/network.h
//
// The simulated internetwork: nodes + unidirectional links + static
// shortest-path routing + per-link bandwidth reservation (the ST-II / SRP
// analogue the paper assumes for resource guarantees at intermediate
// nodes).

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/slot_table.h"

namespace cmtos::net {

/// Identifies one direction of a link: (from, to).
struct LinkKey {
  NodeId from, to;
  friend auto operator<=>(const LinkKey&, const LinkKey&) = default;
};

struct LinkKeyHash {
  std::size_t operator()(const LinkKey& k) const {
    return FlatHash<std::uint64_t>{}((std::uint64_t{k.from} << 32) | k.to);
  }
};

/// Handle for a committed bandwidth reservation along a path.  Opaque to
/// callers: internally a packed slot-table handle, so a released id can
/// never alias a later reservation (generation check).
using ReservationId = std::uint64_t;
inline constexpr ReservationId kNoReservation = 0;

class Network {
 public:
  Network(sim::Scheduler& sched, Rng rng) : sched_(sched), rng_(rng) {}

  sim::Scheduler& scheduler() { return sched_; }

  /// Adds a node; `clock` gives it a skewed local clock (default: perfect).
  NodeId add_node(const std::string& name, sim::LocalClock clock = {});

  /// Adds a full-duplex link (two unidirectional Links with equal config).
  void add_link(NodeId a, NodeId b, const LinkConfig& cfg);

  /// (Re)computes routing tables.  Must be called after topology changes
  /// and before traffic flows.  Minimises hop count; ties broken by lowest
  /// next-hop id for determinism.
  void finalize_routes();

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  /// One direction of a link, or nullptr.
  Link* link(NodeId from, NodeId to);

  /// Sets both directions of the a<->b link up or down (the partition
  /// primitive used by fault injection).  No-op when no such link exists.
  /// Routing tables are left untouched: traffic toward a down link is
  /// black-holed rather than re-routed, matching the static-route model.
  void set_link_up(NodeId a, NodeId b, bool up);

  /// Sets every link direction touching `id` up or down in one call: the
  /// node-isolation primitive (partition one node from the whole cluster,
  /// then heal it).  The node itself stays up — unlike set_node_up(false)
  /// its protocol state survives, which is exactly the split-brain case.
  void set_node_isolated(NodeId id, bool isolated);

  /// Marks a node down (crash) or up (restart).  A down node drops all
  /// terminating and transit packets.  The node's fault handler (if any)
  /// runs afterwards, so the platform's stack teardown / cold start routes
  /// through the network rather than the injector reaching into node state.
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return nodes_.at(id)->up(); }

  /// The route from src to dst (inclusive of both), empty if unreachable.
  std::vector<NodeId> path(NodeId src, NodeId dst) const;

  /// Injects a packet at its src node and forwards it hop by hop.
  /// Packets that cannot be routed, or that are dropped by a link, vanish
  /// (datagram semantics); reliability is the transport's business.
  void send(Packet&& pkt);

  /// Injects a burst of packets sharing one source node with a single
  /// injection event (the paced-burst data path): each packet is stamped
  /// and forwarded exactly as by send(), in order, but the scheduler sees
  /// one event instead of burst-many.  Any packet needing a global
  /// terminal delivery (loopback control) falls back to per-packet send().
  void send(std::vector<Packet>&& burst);

  // --- reservation / admission control (ST-II analogue) ---

  /// When disabled, reserve() always succeeds without accounting; the A4
  /// bench uses this to show what happens without admission control.
  void set_admission_control(bool enabled) { admission_enabled_ = enabled; }
  bool admission_control() const { return admission_enabled_; }

  /// Attempts to reserve `bps` along path(src,dst).  All-or-nothing.
  /// Returns nullopt if any link lacks capacity.
  std::optional<ReservationId> reserve(NodeId src, NodeId dst, std::int64_t bps);

  /// Adjusts an existing reservation to `new_bps` (used by QoS
  /// renegotiation).  All-or-nothing; on failure the old reservation is
  /// kept intact.
  bool adjust_reservation(ReservationId id, std::int64_t new_bps);

  void release(ReservationId id);

  /// Marks a reservation eligible for preemptive admission: `importance` is
  /// its class and `on_preempt` the owner hook that tears the holding VC
  /// down (releasing this reservation in the process).  Un-annotated
  /// reservations are never preempted.
  void annotate_reservation(ReservationId id, std::uint8_t importance,
                            std::function<void()> on_preempt);

  /// Preemptive admission: frees capacity for a `bps` reservation along
  /// path(src,dst) by preempting annotated reservations of *strictly*
  /// lower importance that hold bandwidth on a deficit link of the path,
  /// lowest importance (then oldest) first.  Returns true once
  /// available_bps(src,dst) >= bps; false when no eligible victims remain.
  bool preempt_for(NodeId src, NodeId dst, std::int64_t bps, std::uint8_t importance);

  /// Total reserved bandwidth on one link direction.
  std::int64_t reserved_on(NodeId from, NodeId to);

  /// Unreserved reservable bandwidth along path(src,dst): the minimum over
  /// the path links of (reservable - reserved).  0 if unreachable.
  std::int64_t available_bps(NodeId src, NodeId dst);

  /// Lower-bound end-to-end latency estimate for a packet of `bytes` along
  /// path(src,dst): per-hop serialisation plus propagation (no queueing).
  Duration path_delay_estimate(NodeId src, NodeId dst, std::int64_t bytes);

 private:
  /// Conservative lookahead for the parallel executor: the minimum
  /// propagation delay over all links.  Pushed on add_link and whenever a
  /// link's propagation delay is retuned mid-run.
  void refresh_lookahead();

  struct Reservation {
    std::vector<LinkKey> links;
    std::int64_t bps = 0;
    // Preemptive-admission annotation (see annotate_reservation).
    bool preemptible = false;
    std::uint8_t importance = 0;
    std::function<void()> on_preempt;
  };
  using ResvTable = SlotTable<Reservation>;

  /// Schedules the injection event that forwards `pkts` in order from
  /// their source node.
  void inject(sim::NodeRuntime& src_rt, Time when, bool global, std::vector<Packet>&& pkts);
  void forward(Packet&& pkt, NodeId at);
  Reservation* resv(ReservationId id) {
    return id == kNoReservation ? nullptr : reservations_.get(ResvTable::Handle::unpack(id));
  }

  sim::Scheduler& sched_;
  Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  FlatMap<LinkKey, std::unique_ptr<Link>, LinkKeyHash> links_;
  // routes_[src][dst] = next hop from src toward dst (kInvalidNode if none).
  std::vector<std::vector<NodeId>> routes_;
  bool routes_valid_ = false;
  bool admission_enabled_ = true;
  ResvTable reservations_;
  // Preemption index: per importance class, annotated reservation ids in
  // annotation (≈ admission) order.  Entries go stale on release or
  // re-annotation and are swept lazily during victim scans, so the scan
  // cost is proportional to eligible victims, not total reservations.
  std::array<std::vector<ReservationId>, 256> preempt_classes_;
};

}  // namespace cmtos::net
