// cmtos/transport/connection_manager.h
//
// Connection establishment and release: the Table 1 half of the transport
// control plane, split out of TransportEntity.
//
// Owns the in-flight handshake state — remote connects awaiting RCC,
// CRs awaiting CC, user-consent stages at source and destination — and
// implements the CR/CC/RCR/RCC handshake of §4.1.1 / Fig 3, the DR/DC/RDR
// release machinery, liveness teardown (peer declared dead) and preemptive
// displacement.  Established endpoints (the sources_/sinks_ maps), TSAP
// bindings and wire I/O stay on the TransportEntity; this engine reaches
// them through the entity it serves.
//
// The two pending records that wait for an answer (RCR awaiting RCC, CR
// awaiting CC) each hold a Handshake, which the entity's one retransmit
// helper resends; erasing the record cancels its retransmission.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.h"
#include "transport/connection.h"
#include "transport/handshake.h"
#include "transport/service.h"
#include "transport/tpdu.h"
#include "util/quarantine.h"
#include "util/slot_table.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

class TransportEntity;

class CMTOS_SHARD_AFFINE ConnectionManager {
 public:
  explicit ConnectionManager(TransportEntity& entity);
  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  // --- Table 1 primitives (forwarded from the entity's public API) ---
  VcId t_connect_request(const ConnectRequest& req);
  void connect_response(VcId vc, bool accept, std::optional<QosParams> narrowed);
  void t_disconnect_request(VcId vc);
  void t_remote_disconnect_request(VcId vc, const net::NetAddress& endpoint);

  // --- control-TPDU handlers (rows of the entity's dispatch table) ---
  void handle_rcr(const ControlTpdu& t);
  void handle_cr(const ControlTpdu& t);
  void handle_cc(const ControlTpdu& t);
  void handle_rcc(const ControlTpdu& t);
  void handle_dr(const ControlTpdu& t);
  void handle_dc(const ControlTpdu& t);
  void handle_rdr(const ControlTpdu& t);

  /// Liveness teardown: the peer entity of `vc` went silent, restarted, or
  /// no longer holds the VC.
  void on_peer_dead(VcId vc);

  /// Appends the VCs whose CR to `peer` still awaits its CC: the peer may
  /// already hold them, so the heartbeat's id list must name them.
  void connects_pending_with(net::NodeId peer, std::vector<VcId>& out) const;

  // --- malformed-PDU quarantine (adversarial wire model) ---
  /// Records a structurally-invalid PDU (valid checksum, refused decode)
  /// from `peer`.  Crossing the warn threshold logs; crossing the
  /// escalation threshold tears down every VC with that peer
  /// (kPeerMisbehaving) and drops its traffic from then on.
  void note_malformed_pdu(net::NodeId peer);
  /// True once `peer` escalated; the entity drops its packets pre-decode.
  bool peer_quarantined(net::NodeId peer) const { return quarantine_.quarantined(peer); }

  /// Preemptive-admission teardown, invoked through the reservation's
  /// annotation callback.
  void preempt_vc(VcId vc);

  /// Reports a failed connect to the consenting source user and a distinct
  /// initiator (also used by the renegotiation-free failure paths).
  void fail_connect(VcId vc, const ConnectRequest& req, DisconnectReason reason);

  /// Drops all in-flight handshake state (node crash).  Returns the
  /// (vc, tsap) pairs of initiators that must hear kEntityFailure.
  std::vector<std::pair<VcId, net::Tsap>> crash();

 private:
  struct PendingInitiated {  // at the initiator: RCR sent, waiting for RCC
    ConnectRequest req;
    Handshake handshake;
  };
  struct PendingSourceAccept {  // at the source: user asked (remote connect)
    ConnectRequest req;
  };
  struct PendingCc {  // at the source: CR sent, waiting for CC
    ConnectRequest req;
    QosParams offered;
    VcReservations resv;  // handed to the source endpoint on CC
    Handshake handshake;
  };
  struct PendingDestAccept {  // at the destination: user asked
    ConnectRequest req;
    QosParams offered;
  };

  /// Source-side connect stage: admission + CR emission.
  void source_connect(VcId vc, const ConnectRequest& req);
  void notify_initiator(VcId vc, const ConnectRequest& req, bool accepted,
                        const QosParams& agreed, DisconnectReason reason);

  /// Aborts the pending connect `vc` (CR sent, no CC yet): returns both of
  /// its reservations, drops the record with its CR retransmission and
  /// hands back the request for the caller's failure report.
  ConnectRequest abort_connect(VcId vc);

  /// Sends a DR for `vc` to the peer entity.
  void send_dr(net::NodeId peer, VcId vc, DisconnectReason reason);

  /// Quarantine escalation: closes every local endpoint whose peer node is
  /// `peer` with kPeerMisbehaving (on_peer_dead-style teardown).
  void quarantine_peer(net::NodeId peer);

  TransportEntity& ent_;
  PeerQuarantine quarantine_;

  // Flat tables: handshake state is keyed by VC and churned on every
  // connect/release, so lookups stay O(1) and slots recycle without
  // allocator traffic.
  FlatMap<VcId, PendingInitiated> pending_initiated_;
  FlatMap<VcId, PendingSourceAccept> pending_source_accept_;
  FlatMap<VcId, PendingCc> pending_cc_;
  FlatMap<VcId, PendingDestAccept> pending_dest_accept_;
};

}  // namespace cmtos::transport
