#include "transport/connection_manager.h"

#include <algorithm>

#include "obs/metrics.h"
#include "transport/connection.h"
#include "transport/transport_entity.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::transport {

namespace {

/// The connect parameters a CR or RCR carries: the one ConnectRequest ->
/// wire mapping (connect_request is its inverse), so a new connect field
/// is added here, there and in the codec.
ControlTpdu connect_tpdu(TpduType type, VcId vc, const ConnectRequest& req) {
  ControlTpdu t;
  t.type = type;
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
  return t;
}

ConnectRequest connect_request(const ControlTpdu& t) {
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
  return req;
}

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
    pending_initiated_.emplace(vc, PendingInitiated{req, {}});
    ent_.send_handshake(
        req.src.node, connect_tpdu(TpduType::kRCR, vc, req).encode(),
        [this, vc] { return pending_handshake(pending_initiated_, vc); },
        [this, vc] {
          const net::Tsap tsap = pending_initiated_.find(vc)->second.req.initiator.tsap;
          pending_initiated_.erase(vc);
          ent_.deliver_disconnect(vc, tsap, DisconnectReason::kUnreachable);
        });
  }
  return vc;
}

ConnectRequest ConnectionManager::abort_connect(VcId vc) {
  auto it = pending_cc_.find(vc);
  CMTOS_DCHECK(it != pending_cc_.end());
  ConnectRequest req = std::move(it->second.req);
  ent_.release_reservations(it->second.resv);
  pending_cc_.erase(it);
  return req;
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
  const ConnectRequest req = connect_request(t);
  TransportUser* user = ent_.user_at(req.src.tsap);
  if (user == nullptr) {
    notify_initiator(t.vc, req, false, {}, DisconnectReason::kNoSuchTsap);
    return;
  }
  pending_source_accept_.emplace(t.vc, PendingSourceAccept{req});
  user->t_connect_indication(t.vc, req);
}

void ConnectionManager::source_connect(VcId vc, const ConnectRequest& req) {
  CMTOS_DCHECK(req.src.node == ent_.node_);
  net::Network& network = ent_.network_;
  DisconnectReason reason = DisconnectReason::kProtocolError;
  // The internal control VC's allowance comes off the top before the data
  // rate is negotiated.
  const auto admit = [&] {
    return ent_.admit(req.qos, req.src.node, req.dst.node, -TransportEntity::kControlVcBps,
                      reason);
  };
  auto offered = admit();
  if (!offered && reason == DisconnectReason::kNoResources &&
      network.preempt_for(req.src.node, req.dst.node,
                          req.qos.worst.required_bps() + TransportEntity::kControlVcBps,
                          req.importance)) {
    // Preemptive admission: lower-importance VCs on the contended path were
    // displaced (kPreempted); only enough for the worst-acceptable rate, so
    // the collateral damage is minimal.
    offered = admit();
  }
  if (!offered) {
    fail_connect(vc, req, reason);
    return;
  }

  VcReservations resv;
  if (req.src.node != req.dst.node) {
    auto r = network.reserve(req.src.node, req.dst.node,
                             offered->required_bps() + TransportEntity::kControlVcBps);
    if (!r) {
      fail_connect(vc, req, DisconnectReason::kNoResources);
      return;
    }
    resv.forward = *r;
    // Reverse trickle for feedback TPDUs and orchestrator replies.
    auto rr = network.reserve(req.dst.node, req.src.node, TransportEntity::kControlVcBps);
    if (!rr && network.preempt_for(req.dst.node, req.src.node, TransportEntity::kControlVcBps,
                                   req.importance))
      rr = network.reserve(req.dst.node, req.src.node, TransportEntity::kControlVcBps);
    if (!rr) {
      ent_.release_reservations(resv);
      fail_connect(vc, req, DisconnectReason::kNoResources);
      return;
    }
    resv.reverse = *rr;
    // Register for preemptive admission: a later, more important connect on
    // a contended link may displace this VC through preempt_vc.
    network.annotate_reservation(resv.forward, req.importance, [this, vc] { preempt_vc(vc); });
  }

  ControlTpdu t = connect_tpdu(TpduType::kCR, vc, req);
  t.qos.preferred = *offered;  // the offer cannot exceed what was admitted
  t.agreed = *offered;

  pending_cc_.emplace(vc, PendingCc{req, *offered, resv, {}});
  ent_.send_handshake(
      req.dst.node, t.encode(), [this, vc] { return pending_handshake(pending_cc_, vc); },
      [this, vc] { fail_connect(vc, abort_connect(vc), DisconnectReason::kUnreachable); });
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
  const ConnectRequest req = connect_request(t);
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
    reply.reason = user == nullptr ? DisconnectReason::kNoSuchTsap : DisconnectReason::kProtocolError;
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
    reply.reason = DisconnectReason::kRejectedByUser;
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
  auto conn = std::make_unique<Connection>(ent_, vc, VcRole::kSink, req, agreed,
                                           VcReservations{});
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
    if (t.accepted) send_dr(t.dst.node, t.vc, DisconnectReason::kProtocolError);
    return;
  }
  if (!t.accepted) {
    fail_connect(t.vc, abort_connect(t.vc), t.reason);
    return;
  }
  PendingCc pend = std::move(it->second);
  pending_cc_.erase(it);

  const QosParams agreed = t.agreed;
  if (pend.resv.forward != net::kNoReservation &&
      agreed.required_bps() < pend.offered.required_bps()) {
    // The destination narrowed the contract; shrink the reservation.
    ent_.network_.adjust_reservation(pend.resv.forward,
                                     agreed.required_bps() + TransportEntity::kControlVcBps);
  }
  auto conn = std::make_unique<Connection>(ent_, t.vc, VcRole::kSource, pend.req, agreed,
                                           pend.resv);
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
  t.reason = reason;
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
      u->t_disconnect_indication(t.vc, t.reason);
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
  const auto gone = ent_.detach(vc);
  if (gone == nullptr) {
    CMTOS_WARN("transport", "T-Disconnect.request for unknown vc %llu",
               static_cast<unsigned long long>(vc));
    return;
  }
  send_dr(gone->peer_node(), vc, DisconnectReason::kUserInitiated);
  // Courtesy indication to the endpoint's bound user: the release may
  // have been requested by a management object rather than the device
  // itself, and the device must learn its connection handle is dead.
  // Delivered asynchronously so no caller is re-entered mid-operation;
  // global, because the bound user may be a facade-side manager.
  TransportEntity& ent = ent_;
  ent_.runtime().after_global(0, [&ent, vc, tsap = gone->local_tsap()] {
    ent.deliver_disconnect(vc, tsap, DisconnectReason::kUserInitiated);
  });
  if (ent_.on_vc_closed_) ent_.on_vc_closed_(vc, DisconnectReason::kUserInitiated);
}

void ConnectionManager::send_dr(net::NodeId peer, VcId vc, DisconnectReason reason) {
  ControlTpdu dr;
  dr.type = TpduType::kDR;
  dr.vc = vc;
  dr.reason = reason;
  ent_.send_tpdu(peer, net::Proto::kTransportControl, dr.encode());
}

void ConnectionManager::t_remote_disconnect_request(VcId vc, const net::NetAddress& endpoint) {
  ControlTpdu t;
  t.type = TpduType::kRDR;
  t.vc = vc;
  t.src = endpoint;
  ent_.send_tpdu(endpoint.node, net::Proto::kTransportControl, t.encode());
}

void ConnectionManager::handle_dr(const ControlTpdu& t) {
  // Tear the endpoint down *before* notifying the user: a user that reacts
  // to the indication by calling t_disconnect_request must find the VC
  // already gone, not re-enter a map we hold an iterator into.
  const auto gone = ent_.detach(t.vc);
  if (gone == nullptr) return;
  ent_.deliver_disconnect(t.vc, gone->local_tsap(), t.reason);
  ControlTpdu dc;
  dc.type = TpduType::kDC;
  dc.vc = t.vc;
  ent_.send_tpdu(gone->peer_node(), net::Proto::kTransportControl, dc.encode());
  if (ent_.on_vc_closed_) ent_.on_vc_closed_(t.vc, t.reason);
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
  const auto gone = ent_.detach(vc);
  if (gone == nullptr) return;
  CMTOS_WARN("transport", "vc %llu peer (node %u) declared dead",
             static_cast<unsigned long long>(vc), gone->peer_node());
  send_dr(gone->peer_node(), vc, DisconnectReason::kPeerDead);
  ent_.deliver_disconnect(vc, gone->local_tsap(), DisconnectReason::kPeerDead);
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
    const auto gone = ent_.detach(vc);
    if (gone == nullptr) continue;
    ent_.detach(vc);  // a loopback VC's sink half
    send_dr(peer, vc, DisconnectReason::kPeerMisbehaving);
    ent_.deliver_disconnect(vc, gone->local_tsap(), DisconnectReason::kPeerMisbehaving);
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
  if (pending_cc_.contains(vc)) {
    // Still in the CR handshake: abort the pending connect.
    const ConnectRequest req = abort_connect(vc);
    ent_.runtime().after_global(0, [this, vc, req] {
      fail_connect(vc, req, DisconnectReason::kPreempted);
    });
    return;
  }
  if (ent_.source(vc) == nullptr) return;
  const auto gone = ent_.detach(vc);
  CMTOS_INFO("transport", "vc %llu preempted by a higher-importance admission",
             static_cast<unsigned long long>(vc));
  send_dr(gone->peer_node(), vc, DisconnectReason::kPreempted);
  ent_.runtime().after_global(0, [this, vc, req = gone->request()] {
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
  std::vector<VcId> connecting;
  for (const auto& [vc, pend] : pending_cc_) connecting.push_back(vc);
  for (VcId vc : connecting) abort_connect(vc);
  pending_cc_.clear();  // restarts the emptied slab, as TransportEntity::crash does
  pending_dest_accept_.clear();
  return lost;
}

}  // namespace cmtos::transport
