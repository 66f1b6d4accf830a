#include "transport/connection_manager.h"

#include <algorithm>

#include "obs/metrics.h"
#include "transport/connection.h"
#include "transport/transport_entity.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::transport {

namespace {
/// Worst-case wire bytes of one data TPDU, for path latency estimation.
constexpr std::int64_t kMaxWirePacket = 1400 + 64 + 32;
}  // namespace

ConnectionManager::ConnectionManager(TransportEntity& entity) : ent_(entity) {}

// ====================================================================
// Connection establishment (Table 1, Fig 3)
// ====================================================================

VcId ConnectionManager::t_connect_request(const ConnectRequest& req) {
  if (req.initiator.node != ent_.node_) {
    CMTOS_ERROR("transport", "T-Connect.request issued at node %u but initiator is node %u",
                ent_.node_, req.initiator.node);
    return kInvalidVc;
  }
  const VcId vc = ent_.alloc_vc();
  if (req.initiator == req.src) {
    // Conventional connect: "the caller simply sets the initiator to be
    // the same as the source address" (§4.1.1).
    source_connect(vc, req);
  } else {
    // Remote connect (§3.5): relay to the source entity, which asks the
    // application attached to the source TSAP.
    ControlTpdu t;
    t.type = TpduType::kRCR;
    t.vc = vc;
    t.initiator = req.initiator;
    t.src = req.src;
    t.dst = req.dst;
    t.service_class = req.service_class;
    t.qos = req.qos;
    t.sample_period = req.sample_period;
    t.buffer_osdus = req.buffer_osdus;
    t.importance = req.importance;
    t.shed_watermark_pct = req.shed_watermark_pct;
  t.pacing_burst = req.pacing_burst;
    PendingInitiated pend;
    pend.req = req;
    pend.remote = true;
    pend.retries_left = kHandshakeRetries;
    pending_initiated_.emplace(vc, std::move(pend));
    ent_.send_tpdu(req.src.node, net::Proto::kTransportControl, t.encode());
    // Handshake TPDUs are retransmitted a few times before the connect is
    // declared unreachable (the control path has no other reliability).
    arm_rcr_timer(vc, t.encode());
  }
  return vc;
}

void ConnectionManager::arm_rcr_timer(VcId vc, std::vector<std::uint8_t> wire) {
  auto rec = pending_initiated_.find(vc);
  if (rec == pending_initiated_.end()) return;
  rec->second.retransmit.after_global(ent_.runtime(), ent_.handshake_delay(), [this, vc, wire] {
    auto it = pending_initiated_.find(vc);
    if (it == pending_initiated_.end()) return;
    if (it->second.retries_left-- > 0) {
      ent_.send_tpdu(it->second.req.src.node, net::Proto::kTransportControl, wire);
      arm_rcr_timer(vc, wire);
      return;
    }
    const ConnectRequest req = it->second.req;
    pending_initiated_.erase(it);
    ent_.deliver_disconnect(vc, req.initiator.tsap, DisconnectReason::kUnreachable);
  });
}

void ConnectionManager::arm_cr_timer(VcId vc) {
  auto rec = pending_cc_.find(vc);
  if (rec == pending_cc_.end()) return;
  rec->second.retransmit.after_global(ent_.runtime(), ent_.handshake_delay(), [this, vc] {
    auto it = pending_cc_.find(vc);
    if (it == pending_cc_.end()) return;
    if (it->second.retries_left-- > 0) {
      ent_.send_tpdu(it->second.req.dst.node, net::Proto::kTransportControl,
                     it->second.cr_wire);
      arm_cr_timer(vc);
      return;
    }
    const ConnectRequest req = it->second.req;
    if (it->second.reservation != net::kNoReservation)
      ent_.network_.release(it->second.reservation);
    if (it->second.reverse_reservation != net::kNoReservation)
      ent_.network_.release(it->second.reverse_reservation);
    pending_cc_.erase(it);
    fail_connect(vc, req, DisconnectReason::kUnreachable);
  });
}

void ConnectionManager::handle_rcr(const ControlTpdu& t) {
  // Duplicate RCR (handshake retransmission): the connect is already in
  // progress or concluded here; do not re-ask the user.
  if (pending_source_accept_.contains(t.vc) || pending_cc_.contains(t.vc)) return;
  if (ent_.sources_.contains(t.vc)) {
    ControlTpdu rcc;
    rcc.type = TpduType::kRCC;
    rcc.vc = t.vc;
    rcc.initiator = t.initiator;
    rcc.src = t.src;
    rcc.dst = t.dst;
    rcc.accepted = 1;
    rcc.agreed = ent_.sources_.at(t.vc)->agreed_qos();
    ent_.send_tpdu(t.initiator.node, net::Proto::kTransportControl, rcc.encode());
    return;
  }
  ConnectRequest req;
  req.initiator = t.initiator;
  req.src = t.src;
  req.dst = t.dst;
  req.service_class = t.service_class;
  req.qos = t.qos;
  req.sample_period = t.sample_period;
  req.buffer_osdus = t.buffer_osdus;
  req.importance = t.importance;
  req.shed_watermark_pct = t.shed_watermark_pct;
  req.pacing_burst = t.pacing_burst;

  TransportUser* user = ent_.user_at(req.src.tsap);
  if (user == nullptr) {
    notify_initiator(t.vc, req, false, {}, DisconnectReason::kNoSuchTsap);
    return;
  }
  pending_source_accept_.emplace(t.vc, PendingSourceAccept{req});
  user->t_connect_indication(t.vc, req);
}

std::optional<QosParams> ConnectionManager::admit(const ConnectRequest& req,
                                                  DisconnectReason& reason) {
  net::Network& network = ent_.network_;
  const auto route = network.path(req.src.node, req.dst.node);
  if (route.empty() && req.src.node != req.dst.node) {
    reason = DisconnectReason::kUnreachable;
    return std::nullopt;
  }
  std::optional<QosParams> cand;
  if (req.src.node == req.dst.node) {
    cand = req.qos.preferred;  // node-local VC: no network resources needed
  } else if (!network.admission_control()) {
    // No reservation substrate (the A4 ablation): accept the preference
    // blindly and hope — exactly the failure mode the paper's assumed
    // ST-II-style reservation exists to prevent.
    cand = req.qos.preferred;
  } else {
    // The internal control VC's allowance comes off the top before the
    // data rate is negotiated.
    cand = degrade_to_bandwidth(req.qos, network.available_bps(req.src.node, req.dst.node) -
                                             TransportEntity::kControlVcBps);
    if (!cand) {
      reason = DisconnectReason::kNoResources;
      return std::nullopt;
    }
    const Duration est = network.path_delay_estimate(req.src.node, req.dst.node, kMaxWirePacket);
    if (est > req.qos.worst.end_to_end_delay) {
      reason = DisconnectReason::kQosUnachievable;
      return std::nullopt;
    }
    // Offer an end-to-end delay bound that the path can plausibly meet:
    // keep the preference when the path is comfortably faster, otherwise
    // weaken toward the worst-acceptable bound.
    cand->end_to_end_delay = std::max(cand->end_to_end_delay,
                                      std::min(req.qos.worst.end_to_end_delay,
                                               2 * est + 5 * kMillisecond));
  }
  return cand;
}

void ConnectionManager::source_connect(VcId vc, const ConnectRequest& req) {
  CMTOS_DCHECK(req.src.node == ent_.node_);
  net::Network& network = ent_.network_;
  DisconnectReason reason = DisconnectReason::kProtocolError;
  auto offered = admit(req, reason);
  if (!offered && reason == DisconnectReason::kNoResources &&
      network.preempt_for(req.src.node, req.dst.node,
                          req.qos.worst.required_bps() + TransportEntity::kControlVcBps,
                          req.importance)) {
    // Preemptive admission: lower-importance VCs on the contended path were
    // displaced (kPreempted); only enough for the worst-acceptable rate, so
    // the collateral damage is minimal.
    offered = admit(req, reason);
  }
  if (!offered) {
    fail_connect(vc, req, reason);
    return;
  }

  net::ReservationId resv = net::kNoReservation;
  net::ReservationId reverse_resv = net::kNoReservation;
  if (req.src.node != req.dst.node) {
    auto r = network.reserve(req.src.node, req.dst.node,
                             offered->required_bps() + TransportEntity::kControlVcBps);
    if (!r) {
      fail_connect(vc, req, DisconnectReason::kNoResources);
      return;
    }
    resv = *r;
    // Reverse trickle for feedback TPDUs and orchestrator replies.
    auto rr = network.reserve(req.dst.node, req.src.node, TransportEntity::kControlVcBps);
    if (!rr && network.preempt_for(req.dst.node, req.src.node, TransportEntity::kControlVcBps,
                                   req.importance))
      rr = network.reserve(req.dst.node, req.src.node, TransportEntity::kControlVcBps);
    if (!rr) {
      network.release(resv);
      fail_connect(vc, req, DisconnectReason::kNoResources);
      return;
    }
    reverse_resv = *rr;
    // Register for preemptive admission: a later, more important connect on
    // a contended link may displace this VC through preempt_vc.
    network.annotate_reservation(resv, req.importance, [this, vc] { preempt_vc(vc); });
  }

  ControlTpdu t;
  t.type = TpduType::kCR;
  t.vc = vc;
  t.initiator = req.initiator;
  t.src = req.src;
  t.dst = req.dst;
  t.service_class = req.service_class;
  t.qos.preferred = *offered;  // the offer cannot exceed what was admitted
  t.qos.worst = req.qos.worst;
  t.agreed = *offered;
  t.sample_period = req.sample_period;
  t.buffer_osdus = req.buffer_osdus;
  t.importance = req.importance;
  t.shed_watermark_pct = req.shed_watermark_pct;
  t.pacing_burst = req.pacing_burst;

  PendingCc pend;
  pend.req = req;
  pend.offered = *offered;
  pend.reservation = resv;
  pend.reverse_reservation = reverse_resv;
  pend.retries_left = kHandshakeRetries;
  pend.cr_wire = t.encode();
  pending_cc_.emplace(vc, std::move(pend));
  ent_.send_tpdu(req.dst.node, net::Proto::kTransportControl, t.encode());
  arm_cr_timer(vc);
}

void ConnectionManager::handle_cr(const ControlTpdu& t) {
  // Duplicate CR: if the sink already exists the CC was probably lost —
  // resend it; if the user is still deciding, stay quiet.
  if (pending_dest_accept_.contains(t.vc)) return;
  if (auto it = ent_.sinks_.find(t.vc); it != ent_.sinks_.end()) {
    ControlTpdu cc;
    cc.type = TpduType::kCC;
    cc.vc = t.vc;
    cc.initiator = t.initiator;
    cc.src = t.src;
    cc.dst = t.dst;
    cc.accepted = 1;
    cc.agreed = it->second->agreed_qos();
    ent_.send_tpdu(t.src.node, net::Proto::kTransportControl, cc.encode());
    return;
  }
  ConnectRequest req;
  req.initiator = t.initiator;
  req.src = t.src;
  req.dst = t.dst;
  req.service_class = t.service_class;
  req.qos = t.qos;
  req.sample_period = t.sample_period;
  req.buffer_osdus = t.buffer_osdus;
  req.importance = t.importance;
  req.shed_watermark_pct = t.shed_watermark_pct;
  req.pacing_burst = t.pacing_burst;

  TransportUser* user = ent_.user_at(req.dst.tsap);
  ControlTpdu reply;
  reply.type = TpduType::kCC;
  reply.vc = t.vc;
  reply.initiator = req.initiator;
  reply.src = req.src;
  reply.dst = req.dst;
  // The sink's QoS monitor steps its boundaries by the sample period, so a
  // period that is not positive is refused before any endpoint exists.
  if (user == nullptr || req.sample_period <= 0) {
    reply.accepted = 0;
    reply.reason = static_cast<std::uint8_t>(user == nullptr ? DisconnectReason::kNoSuchTsap
                                                             : DisconnectReason::kProtocolError);
    ent_.send_tpdu(req.src.node, net::Proto::kTransportControl, reply.encode());
    return;
  }
  pending_dest_accept_.emplace(t.vc, PendingDestAccept{req, t.agreed});
  user->t_connect_indication(t.vc, req);
}

void ConnectionManager::connect_response(VcId vc, bool accept,
                                         std::optional<QosParams> narrowed) {
  // Stage A: remote-connect consent at the source (§3.5, Fig 3 left half).
  if (auto it = pending_source_accept_.find(vc); it != pending_source_accept_.end()) {
    const ConnectRequest req = it->second.req;
    pending_source_accept_.erase(it);
    if (accept) {
      source_connect(vc, req);
    } else {
      notify_initiator(vc, req, false, {}, DisconnectReason::kRejectedByUser);
    }
    return;
  }
  // Stage B: acceptance at the destination.
  auto it = pending_dest_accept_.find(vc);
  if (it == pending_dest_accept_.end()) {
    CMTOS_WARN("transport", "connect_response for unknown vc %llu",
               static_cast<unsigned long long>(vc));
    return;
  }
  const ConnectRequest req = it->second.req;
  const QosParams offered = it->second.offered;
  pending_dest_accept_.erase(it);

  ControlTpdu reply;
  reply.type = TpduType::kCC;
  reply.vc = vc;
  reply.initiator = req.initiator;
  reply.src = req.src;
  reply.dst = req.dst;
  if (!accept) {
    reply.accepted = 0;
    reply.reason = static_cast<std::uint8_t>(DisconnectReason::kRejectedByUser);
    ent_.send_tpdu(req.src.node, net::Proto::kTransportControl, reply.encode());
    return;
  }
  QosParams agreed = offered;
  if (narrowed) {
    // The destination may narrow the offer within the tolerance: it cannot
    // ask for more than was offered, nor less than the worst-acceptable.
    if (narrowed->osdu_rate <= offered.osdu_rate && req.qos.acceptable(*narrowed)) {
      agreed = *narrowed;
    } else {
      CMTOS_WARN("transport", "destination narrowing outside tolerance ignored");
    }
  }
  ConnectRequest sink_req = req;
  auto conn = std::make_unique<Connection>(ent_, vc, VcRole::kSink, sink_req, agreed,
                                           net::kNoReservation);
  conn->open();
  ent_.sinks_.emplace(vc, std::move(conn));

  reply.accepted = 1;
  reply.agreed = agreed;
  ent_.send_tpdu(req.src.node, net::Proto::kTransportControl, reply.encode());
}

void ConnectionManager::handle_cc(const ControlTpdu& t) {
  if (ent_.sources_.contains(t.vc)) return;  // duplicate CC after success
  auto it = pending_cc_.find(t.vc);
  if (it == pending_cc_.end()) {
    // Late CC after timeout: tear the orphan sink down.
    if (t.accepted) {
      ControlTpdu dr;
      dr.type = TpduType::kDR;
      dr.vc = t.vc;
      dr.reason = static_cast<std::uint8_t>(DisconnectReason::kProtocolError);
      ent_.send_tpdu(t.dst.node, net::Proto::kTransportControl, dr.encode());
    }
    return;
  }
  PendingCc pend = std::move(it->second);
  pending_cc_.erase(it);

  if (!t.accepted) {
    if (pend.reservation != net::kNoReservation) ent_.network_.release(pend.reservation);
    if (pend.reverse_reservation != net::kNoReservation)
      ent_.network_.release(pend.reverse_reservation);
    fail_connect(t.vc, pend.req, static_cast<DisconnectReason>(t.reason));
    return;
  }

  QosParams agreed = t.agreed;
  if (pend.reservation != net::kNoReservation &&
      agreed.required_bps() < pend.offered.required_bps()) {
    // The destination narrowed the contract; shrink the reservation.
    ent_.network_.adjust_reservation(pend.reservation,
                                     agreed.required_bps() + TransportEntity::kControlVcBps);
  }
  if (pend.reverse_reservation != net::kNoReservation)
    ent_.reverse_reservations_[t.vc] = pend.reverse_reservation;
  auto conn = std::make_unique<Connection>(ent_, t.vc, VcRole::kSource, pend.req, agreed,
                                           pend.reservation);
  conn->open();
  ent_.sources_.emplace(t.vc, std::move(conn));

  // T-Connect.confirm to the source user and, for a remote connect, to the
  // initiator as well (§3.5).
  if (TransportUser* u = ent_.user_at(pend.req.src.tsap)) u->t_connect_confirm(t.vc, agreed);
  if (pend.req.initiator != pend.req.src)
    notify_initiator(t.vc, pend.req, true, agreed, DisconnectReason::kUserInitiated);
}

void ConnectionManager::notify_initiator(VcId vc, const ConnectRequest& req, bool accepted,
                                         const QosParams& agreed, DisconnectReason reason) {
  if (req.initiator.node == ent_.node_) {
    // A co-located initiator is told directly, which must also resolve any
    // pending RCR state exactly as an RCC arrival would: otherwise the RCR
    // retransmit loop keeps replaying the connect, and a replay landing
    // after the VC is gone (e.g. preempted) re-runs admission and delivers
    // stale failure indications.
    pending_initiated_.erase(vc);
    if (TransportUser* u = ent_.user_at(req.initiator.tsap)) {
      if (accepted) {
        u->t_connect_confirm(vc, agreed);
      } else {
        u->t_disconnect_indication(vc, reason);
      }
    }
    return;
  }
  ControlTpdu t;
  t.type = TpduType::kRCC;
  t.vc = vc;
  t.initiator = req.initiator;
  t.src = req.src;
  t.dst = req.dst;
  t.accepted = accepted ? 1 : 0;
  t.agreed = agreed;
  t.reason = static_cast<std::uint8_t>(reason);
  ent_.send_tpdu(req.initiator.node, net::Proto::kTransportControl, t.encode());
}

void ConnectionManager::handle_rcc(const ControlTpdu& t) {
  auto it = pending_initiated_.find(t.vc);
  if (it == pending_initiated_.end()) return;
  const ConnectRequest req = it->second.req;
  pending_initiated_.erase(it);

  if (TransportUser* u = ent_.user_at(req.initiator.tsap)) {
    if (t.accepted) {
      u->t_connect_confirm(t.vc, t.agreed);
    } else {
      u->t_disconnect_indication(t.vc, static_cast<DisconnectReason>(t.reason));
    }
  }
}

void ConnectionManager::fail_connect(VcId vc, const ConnectRequest& req,
                                     DisconnectReason reason) {
  // Report to the source user (it consented to this connect) ...
  if (TransportUser* u = ent_.user_at(req.src.tsap); u != nullptr && req.src.node == ent_.node_)
    u->t_disconnect_indication(vc, reason);
  // ... and separately to a distinct initiator.
  if (req.initiator != req.src) notify_initiator(vc, req, false, {}, reason);
}

// ====================================================================
// Release (Table 1)
// ====================================================================

void ConnectionManager::t_disconnect_request(VcId vc) {
  if (auto it = ent_.sources_.find(vc); it != ent_.sources_.end()) {
    auto conn = std::move(it->second);
    ent_.sources_.erase(it);
    const net::NodeId peer = conn->peer_node();
    if (conn->reservation() != net::kNoReservation) ent_.network_.release(conn->reservation());
    ent_.release_reverse_reservation(vc);
    conn->close();
    ControlTpdu t;
    t.type = TpduType::kDR;
    t.vc = vc;
    t.reason = static_cast<std::uint8_t>(DisconnectReason::kUserInitiated);
    ent_.send_tpdu(peer, net::Proto::kTransportControl, t.encode());
    // Courtesy indication to the endpoint's bound user: the release may
    // have been requested by a management object rather than the device
    // itself, and the device must learn its connection handle is dead.
    // Delivered asynchronously so no caller is re-entered mid-operation;
    // global, because the bound user may be a facade-side manager.
    TransportEntity& ent = ent_;
    const net::Tsap src_tsap = conn->request().src.tsap;
    ent_.runtime().after_global(0, [&ent, vc, src_tsap] {
      ent.deliver_disconnect(vc, src_tsap, DisconnectReason::kUserInitiated);
    });
    if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kUserInitiated);
    return;
  }
  if (auto it = ent_.sinks_.find(vc); it != ent_.sinks_.end()) {
    auto conn = std::move(it->second);
    ent_.sinks_.erase(it);
    const net::NodeId peer = conn->peer_node();
    conn->close();
    ControlTpdu t;
    t.type = TpduType::kDR;
    t.vc = vc;
    t.reason = static_cast<std::uint8_t>(DisconnectReason::kUserInitiated);
    ent_.send_tpdu(peer, net::Proto::kTransportControl, t.encode());
    TransportEntity& ent = ent_;
    const net::Tsap dst_tsap = conn->request().dst.tsap;
    ent_.runtime().after_global(0, [&ent, vc, dst_tsap] {
      ent.deliver_disconnect(vc, dst_tsap, DisconnectReason::kUserInitiated);
    });
    if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kUserInitiated);
    return;
  }
  CMTOS_WARN("transport", "T-Disconnect.request for unknown vc %llu",
             static_cast<unsigned long long>(vc));
}

void ConnectionManager::t_remote_disconnect_request(VcId vc, const net::NetAddress& endpoint) {
  ControlTpdu t;
  t.type = TpduType::kRDR;
  t.vc = vc;
  t.src = endpoint;
  ent_.send_tpdu(endpoint.node, net::Proto::kTransportControl, t.encode());
}

void ConnectionManager::handle_dr(const ControlTpdu& t) {
  DisconnectReason reason = static_cast<DisconnectReason>(t.reason);
  net::NodeId peer = net::kInvalidNode;
  // Tear the endpoint down *before* notifying the user: a user that reacts
  // to the indication by calling t_disconnect_request must find the VC
  // already gone, not re-enter a map we hold an iterator into.
  if (auto it = ent_.sources_.find(t.vc); it != ent_.sources_.end()) {
    auto conn = std::move(it->second);
    ent_.sources_.erase(it);
    peer = conn->peer_node();
    if (conn->reservation() != net::kNoReservation) ent_.network_.release(conn->reservation());
    ent_.release_reverse_reservation(t.vc);
    conn->close();
    ent_.deliver_disconnect(t.vc, conn->request().src.tsap, reason);
  } else if (auto it2 = ent_.sinks_.find(t.vc); it2 != ent_.sinks_.end()) {
    auto conn = std::move(it2->second);
    ent_.sinks_.erase(it2);
    peer = conn->peer_node();
    conn->close();
    ent_.deliver_disconnect(t.vc, conn->request().dst.tsap, reason);
  }
  if (peer != net::kInvalidNode) {
    ControlTpdu dc;
    dc.type = TpduType::kDC;
    dc.vc = t.vc;
    ent_.send_tpdu(peer, net::Proto::kTransportControl, dc.encode());
    if (ent_.on_vc_closed_) ent_.on_vc_closed_(t.vc, reason);
  }
}

void ConnectionManager::handle_dc(const ControlTpdu&) {
  // Nothing to do: the local endpoint was removed when DR was sent.
}

void ConnectionManager::handle_rdr(const ControlTpdu& t) {
  // Remote release: put a T-Disconnect.indication to the application
  // attached to the addressed TSAP; per §4.1.1 the application may then
  // itself issue T-Disconnect.request to release the VC.
  ent_.deliver_disconnect(t.vc, t.src.tsap, DisconnectReason::kUserInitiated);
}

void ConnectionManager::on_peer_dead(VcId vc) {
  // Liveness teardown: the peer went silent past the configured threshold.
  // Mirrors the handle_dr teardown (resources freed before the user hears
  // about it) but with kPeerDead, and still sends a best-effort DR so a
  // peer that was merely partitioned does not strand its half forever.
  obs::Registry::global()
      .counter("transport.peer_dead", {{"node", std::to_string(ent_.node_)}})
      .add();
  net::NodeId peer = net::kInvalidNode;
  net::Tsap tsap = 0;
  if (auto it = ent_.sources_.find(vc); it != ent_.sources_.end()) {
    auto conn = std::move(it->second);
    ent_.sources_.erase(it);
    peer = conn->peer_node();
    tsap = conn->request().src.tsap;
    if (conn->reservation() != net::kNoReservation) ent_.network_.release(conn->reservation());
    ent_.release_reverse_reservation(vc);
    conn->close();
  } else if (auto it2 = ent_.sinks_.find(vc); it2 != ent_.sinks_.end()) {
    auto conn = std::move(it2->second);
    ent_.sinks_.erase(it2);
    peer = conn->peer_node();
    tsap = conn->request().dst.tsap;
    conn->close();
  } else {
    return;
  }
  CMTOS_WARN("transport", "vc %llu peer (node %u) declared dead",
             static_cast<unsigned long long>(vc), peer);
  ControlTpdu dr;
  dr.type = TpduType::kDR;
  dr.vc = vc;
  dr.reason = static_cast<std::uint8_t>(DisconnectReason::kPeerDead);
  ent_.send_tpdu(peer, net::Proto::kTransportControl, dr.encode());
  ent_.deliver_disconnect(vc, tsap, DisconnectReason::kPeerDead);
  if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kPeerDead);
}

void ConnectionManager::connects_pending_with(net::NodeId peer, std::vector<VcId>& out) const {
  for (const auto& [vc, pend] : pending_cc_)
    if (pend.req.dst.node == peer) out.push_back(vc);
}

void ConnectionManager::note_malformed_pdu(net::NodeId peer) {
  // Called only for CRC-valid structural refusals: checksum failures are
  // line noise and never blamed on the peer (see util/quarantine.h).
  switch (quarantine_.note_malformed(peer)) {
    case PeerQuarantine::Action::kNone:
      break;
    case PeerQuarantine::Action::kWarn:
      CMTOS_WARN("transport", "node %u: peer node %u sent %lld malformed PDUs", ent_.node_,
                 peer, static_cast<long long>(quarantine_.malformed(peer)));
      break;
    case PeerQuarantine::Action::kEscalate:
      quarantine_peer(peer);
      break;
  }
}

void ConnectionManager::quarantine_peer(net::NodeId peer) {
  obs::Registry::global()
      .counter("wire.peer_quarantined", {{"node", std::to_string(ent_.node_)}})
      .add();
  CMTOS_WARN("transport", "node %u: quarantining peer node %u (malformed-PDU escalation)",
             ent_.node_, peer);
  // Tear down every established endpoint whose peer is the quarantined
  // node, on_peer_dead-style: free resources first, user hears
  // kPeerMisbehaving, best-effort DR so the (possibly healthy) remote half
  // does not strand.
  std::vector<VcId> victims;
  for (const auto& [vc, conn] : ent_.sources_)
    if (conn->peer_node() == peer) victims.push_back(vc);
  for (const auto& [vc, conn] : ent_.sinks_)
    if (conn->peer_node() == peer && std::find(victims.begin(), victims.end(), vc) ==
                                         victims.end())
      victims.push_back(vc);
  for (VcId vc : victims) {
    net::Tsap tsap = 0;
    bool found = false;
    if (auto it = ent_.sources_.find(vc); it != ent_.sources_.end()) {
      auto conn = std::move(it->second);
      ent_.sources_.erase(it);
      tsap = conn->request().src.tsap;
      if (conn->reservation() != net::kNoReservation) ent_.network_.release(conn->reservation());
      ent_.release_reverse_reservation(vc);
      conn->close();
      found = true;
    }
    if (auto it2 = ent_.sinks_.find(vc); it2 != ent_.sinks_.end()) {
      auto conn = std::move(it2->second);
      ent_.sinks_.erase(it2);
      if (!found) tsap = conn->request().dst.tsap;
      conn->close();
      found = true;
    }
    if (!found) continue;
    ControlTpdu dr;
    dr.type = TpduType::kDR;
    dr.vc = vc;
    dr.reason = static_cast<std::uint8_t>(DisconnectReason::kPeerMisbehaving);
    ent_.send_tpdu(peer, net::Proto::kTransportControl, dr.encode());
    ent_.deliver_disconnect(vc, tsap, DisconnectReason::kPeerMisbehaving);
    if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kPeerMisbehaving);
  }
}

void ConnectionManager::preempt_vc(VcId vc) {
  // Invoked (possibly re-entrantly, from inside another entity's
  // source_connect) by Network::preempt_for.  Reservations must be
  // released synchronously so the preempting admission can proceed; the
  // user indication is delivered asynchronously like any other teardown.
  obs::Registry::global()
      .counter("admission.preempt", {{"node", std::to_string(ent_.node_)}})
      .add();
  if (auto it = pending_cc_.find(vc); it != pending_cc_.end()) {
    // Still in the CR handshake: abort the pending connect.
    PendingCc pend = std::move(it->second);
    pending_cc_.erase(it);
    if (pend.reservation != net::kNoReservation) ent_.network_.release(pend.reservation);
    if (pend.reverse_reservation != net::kNoReservation)
      ent_.network_.release(pend.reverse_reservation);
    const ConnectRequest req = pend.req;
    ent_.runtime().after_global(0, [this, vc, req] {
      fail_connect(vc, req, DisconnectReason::kPreempted);
    });
    return;
  }
  auto it = ent_.sources_.find(vc);
  if (it == ent_.sources_.end()) return;
  auto conn = std::move(it->second);
  ent_.sources_.erase(it);
  const net::NodeId peer = conn->peer_node();
  if (conn->reservation() != net::kNoReservation) ent_.network_.release(conn->reservation());
  ent_.release_reverse_reservation(vc);
  conn->close();
  CMTOS_INFO("transport", "vc %llu preempted by a higher-importance admission",
             static_cast<unsigned long long>(vc));
  ControlTpdu t;
  t.type = TpduType::kDR;
  t.vc = vc;
  t.reason = static_cast<std::uint8_t>(DisconnectReason::kPreempted);
  ent_.send_tpdu(peer, net::Proto::kTransportControl, t.encode());
  const ConnectRequest req = conn->request();
  ent_.runtime().after_global(0, [this, vc, req] {
    ent_.deliver_disconnect(vc, req.src.tsap, DisconnectReason::kPreempted);
    // A distinct initiator (a managing Stream) hears about the displacement
    // too; remote initiators are reached best-effort via RCC.
    if (req.initiator != req.src)
      notify_initiator(vc, req, false, {}, DisconnectReason::kPreempted);
  });
  if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kPreempted);
}

std::vector<std::pair<VcId, net::Tsap>> ConnectionManager::crash() {
  std::vector<std::pair<VcId, net::Tsap>> lost;
  for (auto& [vc, pend] : pending_initiated_) lost.emplace_back(vc, pend.req.initiator.tsap);
  pending_initiated_.clear();
  pending_source_accept_.clear();
  for (auto& [vc, pend] : pending_cc_) {
    if (pend.reservation != net::kNoReservation) ent_.network_.release(pend.reservation);
    if (pend.reverse_reservation != net::kNoReservation)
      ent_.network_.release(pend.reverse_reservation);
  }
  pending_cc_.clear();
  pending_dest_accept_.clear();
  return lost;
}

}  // namespace cmtos::transport
