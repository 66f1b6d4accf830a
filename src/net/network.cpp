#include "net/network.h"

#include <algorithm>
#include <queue>

#include "obs/metrics.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::net {

NodeId Network::add_node(const std::string& name, sim::LocalClock clock) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  // Each node gets its own executor shard (shard 0 is the scheduler's
  // control shard, so node i lives on shard i + 1).
  sim::NodeRuntime& rt = sched_.executor().add_shard();
  nodes_.push_back(std::make_unique<Node>(*this, id, name, clock, rt));
  routes_valid_ = false;
  return id;
}

void Network::add_link(NodeId a, NodeId b, const LinkConfig& cfg) {
  CMTOS_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b, "net.link_endpoints");
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    auto link = std::make_unique<Link>(nodes_[from]->runtime(), nodes_[to]->runtime(),
                                       rng_.split(), cfg, from, to);
    link->set_deliver([this, to](Packet&& p) { forward(std::move(p), to); });
    link->set_retune_hook([this] { refresh_lookahead(); });
    links_[LinkKey{from, to}] = std::move(link);
  }
  routes_valid_ = false;
  refresh_lookahead();
}

void Network::refresh_lookahead() {
  Duration min_prop = kTimeNever;
  for (const auto& [key, link] : links_) {
    min_prop = std::min(min_prop, link->config().propagation_delay);
  }
  sched_.executor().set_lookahead(min_prop == kTimeNever ? 1 : min_prop);
}

void Network::set_node_up(NodeId id, bool up) {
  Node& n = *nodes_.at(id);
  n.set_up(up);
  n.invoke_fault_handler(up);
}

void Network::finalize_routes() {
  const std::size_t n = nodes_.size();
  routes_.assign(n, std::vector<NodeId>(n, kInvalidNode));

  // Adjacency (sorted for deterministic tie-breaking).
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [key, _] : links_) adj[key.from].push_back(key.to);
  for (auto& v : adj) std::sort(v.begin(), v.end());

  // BFS from every destination over reversed edges gives, for each source,
  // the next hop toward that destination.  Links are symmetric here
  // (add_link creates both directions), so forward BFS per source works.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<int> dist(n, -1);
    std::vector<NodeId> first_hop(n, kInvalidNode);
    std::queue<NodeId> q;
    dist[src] = 0;
    q.push(src);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (NodeId v : adj[u]) {
        if (dist[v] != -1) continue;
        dist[v] = dist[u] + 1;
        first_hop[v] = (u == src) ? v : first_hop[u];
        q.push(v);
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) routes_[src][dst] = first_hop[dst];
  }
  routes_valid_ = true;
}

Link* Network::link(NodeId from, NodeId to) {
  auto it = links_.find(LinkKey{from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
  if (Link* l = link(a, b)) l->set_up(up);
  if (Link* l = link(b, a)) l->set_up(up);
}

void Network::set_node_isolated(NodeId id, bool isolated) {
  for (auto& [key, l] : links_)
    if (key.from == id || key.to == id) l->set_up(!isolated);
}

std::vector<NodeId> Network::path(NodeId src, NodeId dst) const {
  CMTOS_ASSERT(routes_valid_, "net.routes_stale");
  std::vector<NodeId> p;
  if (src >= nodes_.size() || dst >= nodes_.size()) return p;
  p.push_back(src);
  NodeId at = src;
  while (at != dst) {
    const NodeId next = routes_[at][dst];
    if (next == kInvalidNode) return {};  // unreachable
    p.push_back(next);
    at = next;
    if (p.size() > nodes_.size()) return {};  // defensive: routing loop
  }
  return p;
}

void Network::send(Packet&& pkt) {
  CMTOS_ASSERT(routes_valid_, "net.routes_stale");  // finalize_routes() not called
  pkt.injected_at = sched_.now();
  // Packet ids come from the *calling* shard's node-scoped counter (the
  // sender executes on its own node's shard), so no cross-shard counter is
  // shared.  Callers outside any event context (test setup) charge the id
  // to the source node.
  sim::NodeRuntime* ctx = sim::Executor::current();
  sim::NodeRuntime& id_rt = (ctx != nullptr && &ctx->executor() == &sched_.executor())
                                ? *ctx
                                : nodes_.at(pkt.src)->runtime();
  pkt.id = id_rt.next_node_unique_id();
  // Dispatch through the source node's shard (even for node-local
  // delivery) so a send never re-enters the receiver synchronously from
  // inside the sender's call stack.  The injection event forwards: for a
  // loopback packet that invokes the terminal handler directly, so it
  // inherits the packet's global classification; otherwise it only feeds
  // the first link, which is local to the source shard.
  sim::NodeRuntime& src_rt = nodes_.at(pkt.src)->runtime();
  const bool global = pkt.global_delivery && pkt.src == pkt.dst;
  const Time when = pkt.injected_at;
  std::vector<Packet> one = take_packet_vector(1);
  one.push_back(std::move(pkt));
  inject(src_rt, when, global, std::move(one));
}

void Network::send(std::vector<Packet>&& burst) {
  if (burst.empty()) return;
  if (burst.size() == 1) {
    send(std::move(burst.front()));
    give_packet_vector(std::move(burst));
    return;
  }
  CMTOS_ASSERT(routes_valid_, "net.routes_stale");
  const NodeId src = burst.front().src;
  bool any_global = false;
  for (const auto& pkt : burst) {
    CMTOS_ASSERT(pkt.src == src, "net.burst_mixed_src");
    any_global |= pkt.global_delivery && pkt.src == pkt.dst;
  }
  if (any_global) {
    // A loopback global delivery cannot share the burst's local injection
    // event; this is not a data-plane shape, so take the slow path whole.
    for (auto& pkt : burst) send(std::move(pkt));
    give_packet_vector(std::move(burst));
    return;
  }
  // Stamping is identical to send(): one id per packet from the calling
  // shard's node-scoped counter, in burst order.
  sim::NodeRuntime* ctx = sim::Executor::current();
  sim::NodeRuntime& id_rt = (ctx != nullptr && &ctx->executor() == &sched_.executor())
                                ? *ctx
                                : nodes_.at(src)->runtime();
  const Time when = sched_.now();
  for (auto& pkt : burst) {
    pkt.injected_at = when;
    pkt.id = id_rt.next_node_unique_id();
  }
  inject(nodes_.at(src)->runtime(), when, false, std::move(burst));
}

void Network::inject(sim::NodeRuntime& src_rt, Time when, bool global,
                     std::vector<Packet>&& pkts) {
  // The vector itself is the injection event's capture (no box around
  // it), and goes back to the spare-vector cache once its packets are
  // forwarded.
  auto fn = [this, pkts = std::move(pkts)]() mutable {
    for (auto& pkt : pkts) {
      const NodeId at = pkt.src;
      forward(std::move(pkt), at);
    }
    give_packet_vector(std::move(pkts));
  };
  if (global) {
    (void)src_rt.at_global(when, std::move(fn));
  } else {
    (void)src_rt.at(when, std::move(fn));
  }
}

void Network::forward(Packet&& pkt, NodeId at) {
  if (!nodes_[at]->up()) return;  // crashed node black-holes transit too
  if (pkt.dst == at) {
    nodes_[at]->receive(std::move(pkt));
    return;
  }
  const NodeId next = routes_[at][pkt.dst];
  if (next == kInvalidNode) {
    CMTOS_WARN("net", "no route from %u to %u; packet %llu dropped", at, pkt.dst,
               static_cast<unsigned long long>(pkt.id));
    return;
  }
  Link* l = link(at, next);
  CMTOS_ASSERT(l != nullptr, "net.route_without_link");
  if (l == nullptr) return;
  (void)l->transmit(std::move(pkt));
}

std::optional<ReservationId> Network::reserve(NodeId src, NodeId dst, std::int64_t bps) {
  const auto p = path(src, dst);
  if (p.size() < 2) return std::nullopt;

  Reservation r;
  r.bps = bps;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) r.links.push_back(LinkKey{p[i], p[i + 1]});

  if (admission_enabled_) {
    for (const auto& key : r.links) {
      Link* l = link(key.from, key.to);
      if (l->reserved_bps() + bps > l->reservable_bps()) {
        CMTOS_DEBUG("net", "admission reject %u->%u: %lld + %lld > %lld", key.from, key.to,
                    static_cast<long long>(l->reserved_bps()), static_cast<long long>(bps),
                    static_cast<long long>(l->reservable_bps()));
        return std::nullopt;
      }
    }
  }
  for (const auto& key : r.links) link(key.from, key.to)->add_reservation(bps);
  return reservations_.emplace(std::move(r)).pack();
}

bool Network::adjust_reservation(ReservationId id, std::int64_t new_bps) {
  Reservation* r = resv(id);
  if (r == nullptr) return false;
  const std::int64_t delta = new_bps - r->bps;
  if (delta > 0 && admission_enabled_) {
    for (const auto& key : r->links) {
      Link* l = link(key.from, key.to);
      if (l->reserved_bps() + delta > l->reservable_bps()) return false;
    }
  }
  for (const auto& key : r->links) link(key.from, key.to)->add_reservation(delta);
  r->bps = new_bps;
  return true;
}

void Network::release(ReservationId id) {
  Reservation* r = resv(id);
  if (r == nullptr) return;
  for (const auto& key : r->links) link(key.from, key.to)->release_reservation(r->bps);
  // Any preempt_classes_ entry pointing here goes stale and is swept lazily.
  reservations_.erase(ResvTable::Handle::unpack(id));
}

void Network::annotate_reservation(ReservationId id, std::uint8_t importance,
                                   std::function<void()> on_preempt) {
  Reservation* r = resv(id);
  if (r == nullptr) return;
  r->preemptible = true;
  r->importance = importance;
  r->on_preempt = std::move(on_preempt);
  // Index for importance-ordered victim scans.  Re-annotation at a new
  // class leaves the old entry behind; the scan's class check skips it.
  preempt_classes_[importance].push_back(id);
}

bool Network::preempt_for(NodeId src, NodeId dst, std::int64_t bps, std::uint8_t importance) {
  if (!admission_enabled_) return true;
  const auto p = path(src, dst);
  if (p.size() < 2) return false;
  std::vector<LinkKey> path_links;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) path_links.push_back(LinkKey{p[i], p[i + 1]});

  std::size_t scanned = 0;
  const auto done = [&](bool ok) {
    // Regression canary for the importance-ordered scan: entries visited
    // per admission attempt, not total reservations in the network.
    obs::Registry::global().set_gauge("admission.victim_scan_len",
                                      static_cast<double>(scanned));
    return ok;
  };
  for (;;) {
    // Deficit links: where the requested reservation does not fit yet.
    // Only victims holding bandwidth on one of those can help.
    std::vector<LinkKey> deficit;
    for (const auto& key : path_links) {
      Link* l = link(key.from, key.to);
      if (l->reserved_bps() + bps > l->reservable_bps()) deficit.push_back(key);
    }
    if (deficit.empty()) return done(true);

    // Victim search walks only classes strictly below the requester,
    // lowest class first, oldest annotation first within a class — the
    // same (importance, age) order as a full scan, but touching only
    // eligible candidates.  Stale entries (released or re-annotated at a
    // different class) are swept as they are encountered.
    Reservation* victim = nullptr;
    ReservationId victim_id = kNoReservation;
    for (std::uint32_t cls = 0; cls < importance && victim == nullptr; ++cls) {
      std::vector<ReservationId>& bucket = preempt_classes_[cls];
      std::size_t i = 0;
      while (i < bucket.size() && victim == nullptr) {
        Reservation* r = resv(bucket[i]);
        if (r == nullptr || !r->preemptible || r->importance != cls) {
          bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++scanned;
        const bool on_deficit_link = std::ranges::any_of(r->links, [&](const LinkKey& k) {
          return std::ranges::find(deficit, k) != deficit.end();
        });
        if (on_deficit_link) {
          victim = r;
          victim_id = bucket[i];
        }
        ++i;
      }
    }
    if (victim == nullptr) return done(false);

    CMTOS_DEBUG("net", "preempting reservation %llu (importance %u) for class-%u admission",
                static_cast<unsigned long long>(victim_id), victim->importance, importance);
    auto on_preempt = victim->on_preempt;  // the callback erases the table entry
    if (on_preempt) on_preempt();
    // Progress guard: a mis-behaved owner that did not release loses the
    // reservation anyway, or the loop would spin on the same victim.
    if (resv(victim_id) != nullptr) release(victim_id);
  }
}

std::int64_t Network::reserved_on(NodeId from, NodeId to) {
  Link* l = link(from, to);
  return l ? l->reserved_bps() : 0;
}

std::int64_t Network::available_bps(NodeId src, NodeId dst) {
  const auto p = path(src, dst);
  if (p.size() < 2) return 0;
  std::int64_t avail = INT64_MAX;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    Link* l = link(p[i], p[i + 1]);
    avail = std::min(avail, l->reservable_bps() - l->reserved_bps());
  }
  return std::max<std::int64_t>(0, avail);
}

Duration Network::path_delay_estimate(NodeId src, NodeId dst, std::int64_t bytes) {
  const auto p = path(src, dst);
  if (p.size() < 2) return kTimeNever;
  Duration d = 0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    Link* l = link(p[i], p[i + 1]);
    d += l->config().propagation_delay + transmission_time(bytes, l->config().bandwidth_bps);
  }
  return d;
}

}  // namespace cmtos::net
