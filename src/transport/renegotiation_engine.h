// cmtos/transport/renegotiation_engine.h
//
// QoS renegotiation (Table 3) and degradation notification (Table 2),
// split out of TransportEntity: the RN/RNC handshake for raising or
// lowering a live VC's contract, and the QI relay that tells source and
// initiator users about a sink-side QoS violation.
//
// One requester path and one responder path serve both directions.  The
// source entity owns the reservation, so whichever end asked, the source
// runs admission before its peer or its user is asked, pre-raises the
// reservation for a larger contract, and settles the change when the
// answer is known: a refusal rolls the pre-raise back, an acceptance
// shrinks the reservation of a smaller contract.  The requester's record
// holds the RN's Handshake (the entity's one retransmit helper); giving up
// fails the request but leaves the VC under its old contract.  Established
// endpoints, reservations and wire I/O stay on the TransportEntity.  All
// state of a VC is dropped when the VC closes (on_close), so a closed VC
// retransmits nothing.

#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "net/network.h"
#include "transport/handshake.h"
#include "transport/service.h"
#include "transport/tpdu.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

class Connection;
class TransportEntity;

class CMTOS_SHARD_AFFINE RenegotiationEngine {
 public:
  explicit RenegotiationEngine(TransportEntity& entity);
  RenegotiationEngine(const RenegotiationEngine&) = delete;
  RenegotiationEngine& operator=(const RenegotiationEngine&) = delete;

  // --- Table 3 primitives (forwarded from the entity's public API) ---
  void t_renegotiate_request(VcId vc, const QosTolerance& proposed);
  void renegotiate_response(VcId vc, bool accept);

  // --- control-TPDU handlers (rows of the entity's dispatch table) ---
  void handle_rn(const ControlTpdu& t);
  void handle_rnc(const ControlTpdu& t);
  void handle_qi(const ControlTpdu& t);

  /// Table 2: the sink-side monitor detected a contract violation on
  /// `conn`.  Notifies local users and relays QI to source/initiator.
  void on_qos_violation(Connection& conn, const QosReport& report);

  /// A local endpoint of `vc` closed: drops the VC's in-flight
  /// renegotiation on either side, cancelling its RN retransmissions.
  void on_close(VcId vc);

 private:
  /// A contract change at one endpoint: the contract it moves to and, at
  /// the source, the reservation before the change and whether it was
  /// pre-raised.  A sink endpoint holds no reservation.
  struct Change {
    QosParams agreed;
    std::int64_t old_bps = 0;
    bool raised = false;
  };
  struct Request {  // requester: RN sent, waiting for RNC
    Change change;  // admitted up front when the requester is the source
    Handshake handshake;
  };
  struct Asked {  // responder: local user asked
    QosTolerance proposed;
    Change change;
    net::NodeId requester = net::kInvalidNode;
  };
  struct Accepted {  // source responder: the last sink request it accepted
    QosTolerance proposed;
    QosParams agreed;
  };

  /// The source's admission of `proposed`, against the path's free capacity
  /// plus what the VC already holds, with the reservation raised up front
  /// for a larger contract so no peer is promised bandwidth not held.
  /// nullopt = refused, nothing changed.
  std::optional<Change> admit_change(Connection& source, const QosTolerance& proposed);
  /// Concludes `change` at `conn`: an acceptance shrinks a reservation that
  /// was not pre-raised and applies the contract, a refusal rolls a
  /// pre-raise back.
  void settle_change(Connection& conn, const Change& change, bool accepted);
  /// Concludes the local request on `vc` (its RNC arrived, or its retries
  /// ran out) and tells the requesting user.
  void conclude(VcId vc, bool accepted, const QosParams& agreed);
  /// The endpoint that answers an RN for `vc`: the sink when both are local.
  Connection* responder(VcId vc);
  /// Answers an RN: accepted with `agreed`, or refused (null) for `refusal`.
  void send_rnc(net::NodeId to, VcId vc, const QosParams* agreed,
                DisconnectReason refusal = DisconnectReason::kRejectedByUser);

  TransportEntity& ent_;

  // One entry per in-flight renegotiation handshake (rare, short-lived).
  std::map<VcId, Request> requests_;  // cmtos-analyze: allow(hot-path-map)
  std::map<VcId, Asked> asked_;       // cmtos-analyze: allow(hot-path-map)
  // A sink's RN carries no contract, so the source keeps what it accepted
  // to recognise the RN's retransmission when the RNC was lost.
  std::map<VcId, Accepted> accepted_;  // cmtos-analyze: allow(hot-path-map)
};

}  // namespace cmtos::transport
