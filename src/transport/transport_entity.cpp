#include "transport/transport_entity.h"

#include <algorithm>

#include "obs/wire_stats.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::transport {

namespace {

/// The per-VC transport counters, each read from VcStats: published with
/// {vc,node,role} labels while the endpoint lives, then folded into the
/// node's {node,role} totals.
struct VcCounter {
  const char* name;
  std::int64_t (*value)(const VcStats&);
};
constexpr std::array<VcCounter, 7> kVcCounters = {{
    // Every data TPDU put on the wire: first transmissions and retransmits.
    {"transport.tpdus_sent",
     [](const VcStats& s) { return s.tpdus_sent + s.tpdus_retransmitted; }},
    {"transport.tpdus_received", [](const VcStats& s) { return s.tpdus_received; }},
    {"transport.tpdus_lost", [](const VcStats& s) { return s.tpdus_lost; }},
    {"transport.tpdus_corrupt", [](const VcStats& s) { return s.tpdus_corrupt; }},
    {"transport.dup_dropped", [](const VcStats& s) { return s.tpdus_dup_dropped; }},
    {"transport.osdus_delivered", [](const VcStats& s) { return s.osdus_delivered; }},
    {"buffer.shed", [](const VcStats& s) { return s.osdus_shed; }},
}};

const char* role_name(VcRole role) { return role == VcRole::kSource ? "source" : "sink"; }

/// Worst-case wire bytes of one data TPDU, for path latency estimation.
constexpr std::int64_t kMaxWirePacket = 1400 + 64 + 32;

}  // namespace

TransportEntity::TransportEntity(net::Network& network, net::NodeId node)
    : network_(network),
      node_(node),
      rng_(0x7c3a9d5b11ull + node),
      conn_mgr_(*this),
      reneg_(*this),
      heartbeat_(*this),
      metrics_(obs::Registry::global().attach(
          [this](obs::Emitter& out) { collect_metrics(out); })) {
  network_.node(node_).set_handler(net::Proto::kTransportControl,
                                   [this](net::Packet&& p) { on_control_packet(std::move(p)); });
  network_.node(node_).set_handler(net::Proto::kTransportData,
                                   [this](net::Packet&& p) { on_data_packet(std::move(p)); });
}

Time TransportEntity::local_now() const { return local_time(network_.scheduler().now()); }

Time TransportEntity::local_time(Time t) const {
  return network_.node(node_).clock().local_time(t);
}

Duration TransportEntity::to_true(Duration local) const {
  return network_.node(node_).clock().true_duration(local);
}

void TransportEntity::bind(net::Tsap tsap, TransportUser* user) { users_[tsap] = user; }
void TransportEntity::unbind(net::Tsap tsap) { users_.erase(tsap); }

TransportUser* TransportEntity::user_at(net::Tsap tsap) const {
  auto it = users_.find(tsap);
  return it == users_.end() ? nullptr : it->second;
}

Connection* TransportEntity::source(VcId vc) {
  auto it = sources_.find(vc);
  return it == sources_.end() ? nullptr : it->second.get();
}

Connection* TransportEntity::sink(VcId vc) {
  auto it = sinks_.find(vc);
  return it == sinks_.end() ? nullptr : it->second.get();
}

Connection* TransportEntity::endpoint(VcId vc) {
  if (Connection* c = source(vc)) return c;
  return sink(vc);
}

void TransportEntity::collect_metrics(obs::Emitter& out) const {
  const std::string node = std::to_string(node_);
  for (const auto* table : {&sources_, &sinks_}) {
    for (const auto& [vc, conn] : *table) {
      const std::string id = std::to_string(vc);
      const obs::Labels labels = {{"vc", id}, {"node", node}, {"role", role_name(conn->role())}};
      for (const VcCounter& c : kVcCounters) out.counter(c.name, labels, c.value(conn->stats()));
      const QosMonitor* monitor = conn->monitor();
      if (monitor == nullptr) continue;
      const obs::Labels vc_only = {{"vc", id}};
      const QosReport& rep = monitor->last_report();
      out.gauge("qos.osdu_rate", vc_only, rep.measured_osdu_rate);
      out.gauge("qos.mean_delay_ms", vc_only, to_millis(rep.measured_mean_delay));
      out.gauge("qos.jitter_ms", vc_only, to_millis(rep.measured_jitter));
      out.gauge("qos.packet_error_rate", vc_only, rep.measured_packet_error_rate);
      out.gauge("qos.bit_error_rate", vc_only, rep.measured_bit_error_rate);
      out.counter("qos.violation_periods", vc_only, monitor->violation_periods());
    }
  }
}

void TransportEntity::retire_metrics(const Connection& conn) {
  auto& reg = obs::Registry::global();
  const std::string node = std::to_string(node_);
  auto& totals = closed_totals_[conn.role() == VcRole::kSource ? 0 : 1];
  if (totals.empty()) {
    const obs::Labels labels = {{"node", node}, {"role", role_name(conn.role())}};
    for (const VcCounter& c : kVcCounters) totals.push_back(&reg.counter(c.name, labels));
  }
  for (std::size_t i = 0; i < kVcCounters.size(); ++i)
    totals[i]->add(kVcCounters[i].value(conn.stats()));
  if (const QosMonitor* monitor = conn.monitor()) {
    if (closed_violation_periods_ == nullptr)
      closed_violation_periods_ = &reg.counter("qos.violation_periods", {{"node", node}});
    closed_violation_periods_->add(monitor->violation_periods());
  }
}

VcId TransportEntity::alloc_vc() {
  return (static_cast<VcId>(node_) + 1) << 32 | next_vc_++;
}

Duration TransportEntity::handshake_delay() {
  // Stretch only (never shrink): jitter must not tighten the overall
  // budget, only decorrelate simultaneous retries.
  const double stretch = 1.0 + rng_.uniform_real(0.0, kHandshakeJitter);
  return static_cast<Duration>(static_cast<double>(kHandshakeRetransmit) * stretch);
}

void TransportEntity::send_tpdu(net::NodeId dst, net::Proto proto,
                                std::vector<std::uint8_t> payload, net::Priority priority) {
  net::Packet pkt = tpdu_packet(dst, proto, priority);
  pkt.payload = std::move(payload);
  network_.send(std::move(pkt));
}

void TransportEntity::send_tpdu(net::NodeId dst, net::Proto proto,
                                std::span<const std::uint8_t> payload, net::Priority priority) {
  net::Packet pkt = tpdu_packet(dst, proto, priority);
  pkt.payload.assign(payload.begin(), payload.end());
  network_.send(std::move(pkt));
}

net::Packet TransportEntity::tpdu_packet(net::NodeId dst, net::Proto proto,
                                         net::Priority priority) const {
  net::Packet pkt;
  pkt.src = node_;
  pkt.dst = dst;
  pkt.proto = proto;
  pkt.priority = priority;
  // Control TPDU handlers release reservations and call into (possibly
  // facade-side) users: their terminal delivery must run in a serial
  // round.  The data plane (DT/AK/NAK/FB/HB) stays shard-local.
  pkt.global_delivery = (proto == net::Proto::kTransportControl);
  return pkt;
}

void TransportEntity::send_dt(net::NodeId dst, const DataTpdu& dt) {
  network_.send(make_dt_packet(dst, dt));
}

net::Packet TransportEntity::make_dt_packet(net::NodeId dst, const DataTpdu& dt) const {
  net::Packet pkt;
  pkt.src = node_;
  pkt.dst = dst;
  pkt.proto = net::Proto::kTransportData;
  pkt.priority = net::Priority::kMedia;
  dt.encode_onto(pkt);
  return pkt;
}

void TransportEntity::send_dt_burst(std::vector<net::Packet>&& burst) {
  network_.send(std::move(burst));
}

void TransportEntity::deliver_disconnect(VcId vc, net::Tsap tsap, DisconnectReason reason) {
  if (TransportUser* u = user_at(tsap)) u->t_disconnect_indication(vc, reason);
}

std::unique_ptr<Connection> TransportEntity::detach(VcId vc) {
  std::unique_ptr<Connection> conn;
  if (auto it = sources_.find(vc); it != sources_.end()) {
    conn = std::move(it->second);
    sources_.erase(it);
  } else if (auto sit = sinks_.find(vc); sit != sinks_.end()) {
    conn = std::move(sit->second);
    sinks_.erase(sit);
  } else {
    return nullptr;
  }
  release_reservations(conn->reservations());
  conn->close();
  return conn;
}

void TransportEntity::release_reservations(const VcReservations& resv) {
  if (resv.forward != net::kNoReservation) network_.release(resv.forward);
  if (resv.reverse != net::kNoReservation) network_.release(resv.reverse);
}

std::optional<QosParams> TransportEntity::admit(const QosTolerance& tolerance, net::NodeId src,
                                                net::NodeId dst, std::int64_t headroom_bps,
                                                DisconnectReason& reason) {
  // Node-local VCs need no network resources.  Without a reservation
  // substrate (the A4 ablation) the preference is accepted blindly and
  // hoped for: exactly the failure mode the paper's assumed ST-II-style
  // reservation exists to prevent.
  if (src == dst) return tolerance.preferred;
  if (network_.path(src, dst).empty()) {
    reason = DisconnectReason::kUnreachable;
    return std::nullopt;
  }
  if (!network_.admission_control()) return tolerance.preferred;
  auto cand = degrade_to_bandwidth(tolerance, network_.available_bps(src, dst) + headroom_bps);
  if (!cand) {
    reason = DisconnectReason::kNoResources;
    return std::nullopt;
  }
  const Duration est = network_.path_delay_estimate(src, dst, kMaxWirePacket);
  if (est > tolerance.worst.end_to_end_delay) {
    reason = DisconnectReason::kQosUnachievable;
    return std::nullopt;
  }
  // Offer an end-to-end delay bound that the path can plausibly meet: keep
  // the preference when the path is comfortably faster, otherwise weaken
  // toward the worst-acceptable bound.
  cand->end_to_end_delay =
      std::max(cand->end_to_end_delay,
               std::min(tolerance.worst.end_to_end_delay, 2 * est + 5 * kMillisecond));
  return cand;
}

// ====================================================================
// Fault model: crash / restart
// ====================================================================

void TransportEntity::crash() {
  down_ = true;
  // Open VCs die in place: no DR handshake leaves this node (the node is
  // off), but network-held reservations are returned to the substrate the
  // way ST-II stream cleanup would reclaim them.  Local users *are*
  // notified (kEntityFailure): in the simulation, device objects outlive
  // the stack and must drop their Connection pointers before the rings
  // under them are destroyed.  The on_vc_closed_ observer is NOT invoked —
  // the co-located LLO dies in the same crash and rebuilds from its own
  // crash(); a dead node reports nothing.
  std::vector<std::pair<VcId, net::Tsap>> lost;
  for (auto* table : {&sources_, &sinks_}) {
    std::vector<VcId> vcs;
    for (const auto& [vc, conn] : *table) vcs.push_back(vc);
    for (VcId vc : vcs) lost.emplace_back(vc, detach(vc)->local_tsap());
    // The emptied table restarts its slab: after restart() endpoints
    // iterate in insertion order, as on a fresh entity.
    table->clear();
  }

  // Closing the endpoints dropped every heartbeat record and in-flight
  // renegotiation with them.
  for (const auto& [vc, tsap] : conn_mgr_.crash()) lost.emplace_back(vc, tsap);
  // users_ and next_vc_ survive: TSAP bindings belong to the applications
  // (which outlive the stack), and VC ids must stay unique across
  // incarnations of this node.  Deliver last, against emptied maps, so a
  // re-entrant user call sees consistent post-crash state.
  for (const auto& [vc, tsap] : lost)
    deliver_disconnect(vc, tsap, DisconnectReason::kEntityFailure);
  CMTOS_WARN("transport", "entity at node %u crashed", node_);
}

void TransportEntity::restart() {
  down_ = false;
  heartbeat_.restart();
  CMTOS_INFO("transport", "entity at node %u restarted", node_);
}

// ====================================================================
// Packet dispatch
// ====================================================================

const std::array<TransportEntity::ControlHandler, 11>& TransportEntity::control_dispatch() {
  static const std::array<ControlHandler, 11> table = [] {
    std::array<ControlHandler, 11> t{};
    t[static_cast<std::size_t>(TpduType::kCR)] = &TransportEntity::dispatch_cr;
    t[static_cast<std::size_t>(TpduType::kCC)] = &TransportEntity::dispatch_cc;
    t[static_cast<std::size_t>(TpduType::kDR)] = &TransportEntity::dispatch_dr;
    t[static_cast<std::size_t>(TpduType::kDC)] = &TransportEntity::dispatch_dc;
    t[static_cast<std::size_t>(TpduType::kRCR)] = &TransportEntity::dispatch_rcr;
    t[static_cast<std::size_t>(TpduType::kRCC)] = &TransportEntity::dispatch_rcc;
    t[static_cast<std::size_t>(TpduType::kRDR)] = &TransportEntity::dispatch_rdr;
    t[static_cast<std::size_t>(TpduType::kRN)] = &TransportEntity::dispatch_rn;
    t[static_cast<std::size_t>(TpduType::kRNC)] = &TransportEntity::dispatch_rnc;
    t[static_cast<std::size_t>(TpduType::kQI)] = &TransportEntity::dispatch_qi;
    return t;
  }();
  return table;
}

void TransportEntity::on_control_packet(net::Packet&& pkt) {
  if (down_) return;  // crashed entity: traffic falls on the floor
  if (conn_mgr_.peer_quarantined(pkt.src)) return;
  WireFault fault = WireFault::kNone;
  auto t = ControlTpdu::decode(pkt.payload, &fault);
  if (!t) {
    note_wire_refusal(pkt.src, "control", fault);
    return;
  }
  heartbeat_.heard_from(pkt.src);
  const auto& table = control_dispatch();
  const auto idx = static_cast<std::size_t>(t->type);
  if (idx < table.size() && table[idx] != nullptr) {
    (this->*table[idx])(*t);
  } else {
    CMTOS_WARN("transport", "unexpected control TPDU type %u", static_cast<unsigned>(t->type));
  }
}

void TransportEntity::on_data_packet(net::Packet&& pkt) {
  if (down_) return;
  if (conn_mgr_.peer_quarantined(pkt.src)) return;
  const auto type = peek_type(pkt.payload);
  if (!type) return;
  // Decoder refusals on the data plane are counted (and, when the CRC was
  // valid, blamed on the peer) exactly like the control plane; damaged
  // bytes themselves are silent beyond the counters — media error control
  // (NAK/retransmit) recovers what the service class asks for.  Only a
  // checksum-valid TPDU proves the peer entity alive: damaged bytes must
  // not masquerade as liveness.
  WireFault fault = WireFault::kNone;
  const auto refused = [&](const char* pdu) { note_wire_refusal(pkt.src, pdu, fault); };
  if (*type == TpduType::kHB) {
    // The heartbeat is per node pair and carries no VC id.
    if (!heartbeat_.receive(pkt.src, pkt.payload, &fault)) refused("hb");
    return;
  }
  const auto vc = peek_vc(pkt.payload);
  if (!vc) return;
  switch (*type) {
    case TpduType::kDT: {
      Connection* c = sink(*vc);
      if (c != nullptr && c->on_data(pkt)) heartbeat_.heard_from(pkt.src);
      break;
    }
    case TpduType::kAK: {
      if (Connection* c = source(*vc)) {
        if (auto ack = AckTpdu::decode(pkt.payload, &fault)) {
          heartbeat_.heard_from(pkt.src);
          c->on_ack(*ack);
        } else {
          refused("ak");
        }
      }
      break;
    }
    case TpduType::kNAK: {
      if (Connection* c = source(*vc)) {
        if (auto nak = NakTpdu::decode(pkt.payload, &fault)) {
          heartbeat_.heard_from(pkt.src);
          c->on_nak(*nak);
        } else {
          refused("nak");
        }
      }
      break;
    }
    case TpduType::kFB: {
      if (Connection* c = source(*vc)) {
        if (auto fb = FeedbackTpdu::decode(pkt.payload, &fault)) {
          heartbeat_.heard_from(pkt.src);
          c->on_feedback(*fb);
        } else {
          refused("fb");
        }
      }
      break;
    }
    default:
      break;
  }
}

void TransportEntity::note_wire_refusal(net::NodeId peer, const char* pdu, WireFault fault) {
  obs::wire_decode_failed(pdu, fault);
  // Checksum refusals are line damage; a structural refusal with a valid
  // CRC is the peer misbehaving and counts toward its quarantine.
  if (fault != WireFault::kChecksum) conn_mgr_.note_malformed_pdu(peer);
}

}  // namespace cmtos::transport
