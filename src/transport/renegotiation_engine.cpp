#include "transport/renegotiation_engine.h"

#include <optional>

#include "transport/connection.h"
#include "transport/transport_entity.h"
#include "util/logging.h"

namespace cmtos::transport {

RenegotiationEngine::RenegotiationEngine(TransportEntity& entity) : ent_(entity) {}

// ====================================================================
// QoS renegotiation (Table 3)
// ====================================================================

void RenegotiationEngine::t_renegotiate_request(VcId vc, const QosTolerance& proposed) {
  if (Connection* conn = ent_.source(vc)) {
    // Source-initiated: admission against path capacity *plus* what this
    // VC already holds.
    const std::int64_t current_bps = conn->agreed_qos().required_bps();
    DisconnectReason reason = DisconnectReason::kProtocolError;
    const auto cand = ent_.admit(proposed, conn->request().src.node, conn->request().dst.node,
                                 current_bps, reason);
    if (!cand) {
      ent_.deliver_disconnect(vc, conn->request().src.tsap,
                              DisconnectReason::kRenegotiationFailed);
      return;
    }
    PendingReneg pend;
    pend.proposed = proposed;
    pend.tentative_agreed = *cand;
    pend.old_bps = current_bps;
    pend.at_source = true;
    const std::int64_t new_bps = cand->required_bps();
    if (new_bps > current_bps) {
      // Raise the reservation up-front so the peer is never promised
      // bandwidth we do not hold; roll back if the peer rejects.
      if (!ent_.network_.adjust_reservation(conn->reservation(),
                                            new_bps + TransportEntity::kControlVcBps)) {
        ent_.deliver_disconnect(vc, conn->request().src.tsap,
                                DisconnectReason::kRenegotiationFailed);
        return;
      }
      pend.raised = true;
    }

    ControlTpdu t;
    t.type = TpduType::kRN;
    t.vc = vc;
    t.initiator = conn->request().initiator;
    t.src = conn->request().src;
    t.dst = conn->request().dst;
    t.qos = proposed;
    t.agreed = *cand;
    pend.rn_wire = t.encode();
    pend.peer = conn->peer_node();
    pending_reneg_[vc] = std::move(pend);
    ent_.send_tpdu(conn->peer_node(), net::Proto::kTransportControl, t.encode());
    arm_rn_timer(vc);
    return;
  }
  if (Connection* conn = ent_.sink(vc)) {
    // Sink-initiated: ask the source entity (which owns the reservation).
    PendingReneg pend;
    pend.proposed = proposed;
    pend.at_source = false;
    ControlTpdu t;
    t.type = TpduType::kRN;
    t.vc = vc;
    t.initiator = conn->request().initiator;
    t.src = conn->request().src;
    t.dst = conn->request().dst;
    t.qos = proposed;
    pend.rn_wire = t.encode();
    pend.peer = conn->peer_node();
    pending_reneg_[vc] = std::move(pend);
    ent_.send_tpdu(conn->peer_node(), net::Proto::kTransportControl, t.encode());
    arm_rn_timer(vc);
    return;
  }
  CMTOS_WARN("transport", "T-Renegotiate.request for unknown vc %llu",
             static_cast<unsigned long long>(vc));
}

void RenegotiationEngine::arm_rn_timer(VcId vc) {
  auto rec = pending_reneg_.find(vc);
  if (rec == pending_reneg_.end()) return;
  rec->second.retransmit.after_global(ent_.runtime(), ent_.handshake_delay(), [this, vc] {
    auto it = pending_reneg_.find(vc);
    if (it == pending_reneg_.end()) return;
    if (it->second.retries_left-- > 0) {
      ent_.send_tpdu(it->second.peer, net::Proto::kTransportControl, it->second.rn_wire);
      arm_rn_timer(vc);
      return;
    }
    // Retries exhausted: the renegotiation failed but the VC survives
    // under its old contract (§4.1.3); roll back any pre-raised
    // reservation first.
    PendingReneg pend = std::move(it->second);
    pending_reneg_.erase(it);
    if (pend.at_source) {
      Connection* conn = ent_.source(vc);
      if (conn == nullptr) return;
      if (pend.raised && conn->reservation() != net::kNoReservation)
        ent_.network_.adjust_reservation(conn->reservation(),
                                         pend.old_bps + TransportEntity::kControlVcBps);
      ent_.deliver_disconnect(vc, conn->request().src.tsap,
                              DisconnectReason::kRenegotiationFailed);
    } else if (Connection* conn = ent_.sink(vc)) {
      ent_.deliver_disconnect(vc, conn->request().dst.tsap,
                              DisconnectReason::kRenegotiationFailed);
    }
  });
}

void RenegotiationEngine::handle_rn(const ControlTpdu& t) {
  // Duplicate RN (retransmission) while the local user is still deciding:
  // stay quiet, one answer is coming.
  if (pending_reneg_peer_.contains(t.vc)) return;
  if (Connection* conn = ent_.sink(t.vc)) {
    // Retransmitted RN whose accepting RNC was lost: the tentative
    // contract is already in force here — resend the acceptance rather
    // than re-asking the user.
    const QosParams& cur = conn->agreed_qos();
    if (cur.osdu_rate == t.agreed.osdu_rate && cur.max_osdu_bytes == t.agreed.max_osdu_bytes &&
        cur.end_to_end_delay == t.agreed.end_to_end_delay) {
      ControlTpdu reply;
      reply.type = TpduType::kRNC;
      reply.vc = t.vc;
      reply.accepted = 1;
      reply.agreed = cur;
      ent_.send_tpdu(conn->peer_node(), net::Proto::kTransportControl, reply.encode());
      return;
    }
    // Source-initiated renegotiation reaching the sink: ask the sink user.
    PendingRenegPeer pend;
    pend.proposed = t.qos;
    pend.requester_node = conn->peer_node();
    pending_reneg_peer_[t.vc] = pend;
    peer_tentative_[t.vc] = t.agreed;
    if (TransportUser* u = ent_.user_at(conn->request().dst.tsap)) {
      u->t_renegotiate_indication(t.vc, t.qos);
    } else {
      renegotiate_response(t.vc, false);
    }
    return;
  }
  if (Connection* conn = ent_.source(t.vc)) {
    // Sink-initiated renegotiation reaching the source: ask the source user.
    PendingRenegPeer pend;
    pend.proposed = t.qos;
    pend.requester_node = conn->peer_node();
    pending_reneg_peer_[t.vc] = pend;
    if (TransportUser* u = ent_.user_at(conn->request().src.tsap)) {
      u->t_renegotiate_indication(t.vc, t.qos);
    } else {
      renegotiate_response(t.vc, false);
    }
    return;
  }
}

void RenegotiationEngine::renegotiate_response(VcId vc, bool accept) {
  auto it = pending_reneg_peer_.find(vc);
  if (it == pending_reneg_peer_.end()) {
    CMTOS_WARN("transport", "renegotiate_response for unknown vc %llu",
               static_cast<unsigned long long>(vc));
    return;
  }
  PendingRenegPeer pend = it->second;
  pending_reneg_peer_.erase(it);

  ControlTpdu reply;
  reply.type = TpduType::kRNC;
  reply.vc = vc;

  if (Connection* conn = ent_.sink(vc)) {
    // We are the sink peer of a source-initiated renegotiation.
    auto tent = peer_tentative_.find(vc);
    const QosParams agreed =
        tent != peer_tentative_.end() ? tent->second : conn->agreed_qos();
    if (tent != peer_tentative_.end()) peer_tentative_.erase(tent);
    if (accept) {
      conn->apply_new_qos(agreed);
      reply.accepted = 1;
      reply.agreed = agreed;
    } else {
      reply.accepted = 0;
      reply.reason = static_cast<std::uint8_t>(DisconnectReason::kRejectedByUser);
    }
    ent_.send_tpdu(pend.requester_node, net::Proto::kTransportControl, reply.encode());
    return;
  }
  if (Connection* conn = ent_.source(vc)) {
    // We are the source peer of a sink-initiated renegotiation: run
    // admission and adjust the reservation before accepting.
    if (!accept) {
      reply.accepted = 0;
      reply.reason = static_cast<std::uint8_t>(DisconnectReason::kRejectedByUser);
      ent_.send_tpdu(pend.requester_node, net::Proto::kTransportControl, reply.encode());
      return;
    }
    DisconnectReason reason = DisconnectReason::kProtocolError;
    auto cand = ent_.admit(pend.proposed, conn->request().src.node, conn->request().dst.node,
                           conn->agreed_qos().required_bps(), reason);
    if (cand && conn->reservation() != net::kNoReservation &&
        !ent_.network_.adjust_reservation(conn->reservation(),
                                          cand->required_bps() + TransportEntity::kControlVcBps)) {
      cand.reset();
    }
    if (!cand) {
      reply.accepted = 0;
      reply.reason = static_cast<std::uint8_t>(DisconnectReason::kNoResources);
      ent_.send_tpdu(pend.requester_node, net::Proto::kTransportControl, reply.encode());
      return;
    }
    conn->apply_new_qos(*cand);
    reply.accepted = 1;
    reply.agreed = *cand;
    ent_.send_tpdu(pend.requester_node, net::Proto::kTransportControl, reply.encode());
    return;
  }
}

void RenegotiationEngine::handle_rnc(const ControlTpdu& t) {
  auto it = pending_reneg_.find(t.vc);
  if (it == pending_reneg_.end()) return;  // duplicate RNC: already settled
  PendingReneg pend = std::move(it->second);
  pending_reneg_.erase(it);

  if (pend.at_source) {
    Connection* conn = ent_.source(t.vc);
    if (conn == nullptr) return;
    if (t.accepted) {
      const std::int64_t new_bps = pend.tentative_agreed.required_bps();
      if (!pend.raised && conn->reservation() != net::kNoReservation)
        ent_.network_.adjust_reservation(
            conn->reservation(),
            new_bps + TransportEntity::kControlVcBps);  // shrink: always fits
      conn->apply_new_qos(pend.tentative_agreed);
      if (TransportUser* u = ent_.user_at(conn->request().src.tsap))
        u->t_renegotiate_confirm(t.vc, true, pend.tentative_agreed);
    } else {
      if (pend.raised && conn->reservation() != net::kNoReservation)
        ent_.network_.adjust_reservation(
            conn->reservation(),
            pend.old_bps + TransportEntity::kControlVcBps);  // roll back
      // Per §4.1.3: rejection is notified with T-Disconnect.indication but
      // the existing VC is *not* torn down.
      ent_.deliver_disconnect(t.vc, conn->request().src.tsap,
                              DisconnectReason::kRenegotiationFailed);
    }
    return;
  }
  // Sink-initiated requester side.
  Connection* conn = ent_.sink(t.vc);
  if (conn == nullptr) return;
  if (t.accepted) {
    conn->apply_new_qos(t.agreed);
    if (TransportUser* u = ent_.user_at(conn->request().dst.tsap))
      u->t_renegotiate_confirm(t.vc, true, t.agreed);
  } else {
    ent_.deliver_disconnect(t.vc, conn->request().dst.tsap,
                            DisconnectReason::kRenegotiationFailed);
  }
}

// ====================================================================
// QoS degradation notification (Table 2)
// ====================================================================

void RenegotiationEngine::on_qos_violation(Connection& conn, const QosReport& report) {
  // Local (sink) user first.
  if (TransportUser* u = ent_.user_at(conn.request().dst.tsap))
    u->t_qos_indication(conn.id(), report);
  // An initiator co-located with the sink (a Stream managing from the
  // receiving workstation) is notified directly.
  const net::NetAddress& init = conn.request().initiator;
  if (init.node == ent_.node_ && init != conn.request().dst) {
    if (TransportUser* u = ent_.user_at(init.tsap)) u->t_qos_indication(conn.id(), report);
  }

  // Relay to the source user, and to a distinct initiator (§4.1.2 lists
  // the initiator address in the primitive).
  ControlTpdu t;
  t.type = TpduType::kQI;
  t.vc = conn.id();
  t.initiator = conn.request().initiator;
  t.src = conn.request().src;
  t.dst = conn.request().dst;
  t.report = report;
  ent_.send_tpdu(conn.request().src.node, net::Proto::kTransportControl, t.encode());
  if (t.initiator.node != t.src.node && t.initiator.node != t.dst.node)
    ent_.send_tpdu(t.initiator.node, net::Proto::kTransportControl, t.encode());
}

void RenegotiationEngine::handle_qi(const ControlTpdu& t) {
  if (t.src.node == ent_.node_) {
    if (TransportUser* u = ent_.user_at(t.src.tsap)) u->t_qos_indication(t.vc, t.report);
  }
  if (t.initiator.node == ent_.node_ && t.initiator != t.src) {
    if (TransportUser* u = ent_.user_at(t.initiator.tsap)) u->t_qos_indication(t.vc, t.report);
  }
}

void RenegotiationEngine::on_close(VcId vc) {
  pending_reneg_.erase(vc);
  pending_reneg_peer_.erase(vc);
  peer_tentative_.erase(vc);
}

}  // namespace cmtos::transport
