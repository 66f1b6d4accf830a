// cmtos/orch/llo.h
//
// The Low Level Orchestrator (§6): one instance per node.
//
// An LLO plays two roles simultaneously, each implemented by a dedicated
// engine sharing this facade's wire I/O and node identity:
//
//  * SessionTable — the *orchestrating node* role: exposes the Table 4/5/6
//    primitives to the local HLO agent, fans the corresponding OPDUs out to
//    the LLO instances at every source and sink of the orchestrated VCs,
//    collects acknowledgements, and merges end-of-interval reports
//    (Orch.Regulate.indication = sink delivery report + source blocking
//    report).
//
//  * RegulationEngine — the *endpoint node* role (which may be the
//    orchestrating node itself; OPDUs loop back through the network layer
//    uniformly): per-VC local state and the mechanism — delivery gating for
//    prime/start/stop, micro-slot regulation toward the interval target,
//    buffer flushing, semaphore-statistics windows, and event-pattern
//    matching against the per-OSDU OPDU event field.
//
// The Llo itself keeps the wiring (packet handler, vc-closed observer), the
// OPDU dispatch switch routing each type to the owning engine, the clock-sync
// function (§7), and the crash/restart fault model.  Application threads
// receive Orch.*.indication callbacks through the OrchAppHandler each node
// registers (Fig 7's source/sink application threads).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "orch/clock_sync.h"
#include "orch/opdu.h"
#include "orch/orch_types.h"
#include "orch/regulation_engine.h"
#include "orch/session_table.h"
#include "transport/transport_entity.h"
#include "util/thread_annotations.h"

namespace cmtos::orch {

class CMTOS_SHARD_AFFINE Llo {
 public:
  using ResultFn = OrchResultFn;
  /// `start` confirm additionally reports, per VC, the sink's next
  /// deliverable OSDU seq at start time (the HLO agent's position base).
  using StartFn = OrchStartFn;

  Llo(net::Network& network, net::NodeId node, transport::TransportEntity& entity);

  net::NodeId node_id() const { return node_; }
  net::Network& network() { return network_; }
  transport::TransportEntity& entity() { return entity_; }

  /// Registers the application-thread callback sink for this node.
  void set_app_handler(OrchAppHandler* handler) { app_ = handler; }

  // ------------------------------------------------------------------
  // Orchestrating-node API (used by the HLO agent; Table 4/5/6).
  // ------------------------------------------------------------------

  /// Orch.request: establish an orchestration session over `vcs`.  By
  /// default every VC must have this node as one endpoint (the common-node
  /// restriction of §5); pass `allow_no_common_node = true` to lift it —
  /// the §7 extension, enabled by the clock-sync function below and by the
  /// relative-target regulation semantics (position control is local to
  /// each sink, so the orchestrating node needs no shared clock with it).
  void orch_request(OrchSessionId session, std::vector<OrchVcInfo> vcs, ResultFn done,
                    bool allow_no_common_node = false) {
    table_.orch_request(session, std::move(vcs), std::move(done), allow_no_common_node);
  }

  /// Estimates the offset of `peer`'s local clock relative to this node's
  /// (Cristian/NTP over kTimeReq/kTimeResp OPDUs; §5 footnote).  `probes`
  /// round trips; the min-RTT sample wins.
  void estimate_clock_offset(net::NodeId peer, int probes,
                             std::function<void(const ClockEstimate&)> done);

  /// Orch.Release.request.
  void orch_release(OrchSessionId session) { table_.orch_release(session); }

  /// Orch.Prime (Fig 7).  `flush` clears any stale buffered media first
  /// (the stop-seek-restart case of §6.2.1).
  void prime(OrchSessionId session, bool flush, ResultFn done) {
    table_.prime(session, flush, std::move(done));
  }

  /// Orch.Start: atomically release delivery at all sinks.
  void start(OrchSessionId session, StartFn done) { table_.start(session, std::move(done)); }

  /// Orch.Stop: atomically freeze all VCs (data stays buffered for a
  /// subsequent primed start).
  void stop(OrchSessionId session, ResultFn done) { table_.stop(session, std::move(done)); }

  /// Orch.Add / Orch.Remove: membership changes (VCs keep flowing when
  /// removed, §6.2.4).
  void add(OrchSessionId session, OrchVcInfo vc, ResultFn done) {
    table_.add(session, vc, std::move(done));
  }
  void remove(OrchSessionId session, transport::VcId vc, ResultFn done) {
    table_.remove(session, vc, std::move(done));
  }

  /// Orch.Regulate.request (§6.3.1.1): sets the flow-rate target for one
  /// VC for the forthcoming interval, as a delta of `target_seq` OSDUs from
  /// the sink's position at receipt (see Opdu::target_seq).  A non-zero
  /// `catch_up` also asks the source to drop that many OSDUs at once
  /// (within `max_drop`).  The matching indication arrives via the
  /// regulate callback.
  void regulate(OrchSessionId session, transport::VcId vc, std::int64_t target_seq,
                std::uint32_t max_drop, Duration interval, std::uint32_t interval_id,
                std::uint32_t catch_up = 0) {
    table_.regulate(session, vc, target_seq, max_drop, interval, interval_id, catch_up);
  }
  /// Per-session indication sink (one HLO agent per session).
  void set_regulate_callback(OrchSessionId session,
                             std::function<void(const RegulateIndication&)> fn) {
    table_.set_regulate_callback(session, std::move(fn));
  }

  /// Orch.Delayed (§6.3.3): tell the application thread at one end that it
  /// is too slow.
  void delayed(OrchSessionId session, transport::VcId vc, bool source_side,
               std::int64_t osdus_behind) {
    table_.delayed(session, vc, source_side, osdus_behind);
  }

  /// Orch.Event (§6.3.4): register interest in OSDUs whose event field
  /// matches (value & mask) == pattern at the sink of `vc`.
  void register_event(OrchSessionId session, transport::VcId vc, std::uint64_t pattern,
                      std::uint64_t mask = ~0ull) {
    table_.register_event(session, vc, pattern, mask);
  }
  void set_event_callback(OrchSessionId session,
                          std::function<void(const EventIndication&)> fn) {
    table_.set_event_callback(session, std::move(fn));
  }

  /// Fires (on the orchestrating node) when an endpoint reports one of the
  /// session's VCs dead via kVcDead: the VC has already been detached from
  /// the group.  `event_value` carries the transport DisconnectReason.
  void set_vc_dead_callback(OrchSessionId session,
                            std::function<void(const EventIndication&)> fn) {
    table_.set_vc_dead_callback(session, std::move(fn));
  }

  /// Releases every endpoint-side attachment of `session` at the endpoints
  /// of `vcs` without requiring an orchestrating-side Session entry.  Used
  /// after orchestrator failover: the new orchestrating node purges the
  /// stale session the dead node can no longer release.
  void release_remote(OrchSessionId session, const std::vector<OrchVcInfo>& vcs) {
    table_.release_remote(session, vcs);
  }

  // ------------------------------------------------------------------
  // Epoch fencing (split-brain protection across failover)
  // ------------------------------------------------------------------

  /// Sets the fencing token stamped on every OPDU this node sends for
  /// `session`.  Must be set before Orch.request (the HLO agent does this);
  /// unset sessions stamp the default epoch 1.
  void set_session_epoch(OrchSessionId session, std::uint32_t epoch) {
    table_.set_session_epoch(session, epoch);
  }
  std::uint32_t session_epoch(OrchSessionId session) const {
    return table_.session_epoch(session);
  }

  /// Fires once when this node's session is told (via kEpochNack) that a
  /// newer epoch has fenced it out: the owning HLO agent self-retires.
  void set_superseded_callback(OrchSessionId session, std::function<void()> fn) {
    table_.set_superseded_callback(session, std::move(fn));
  }

  /// Endpoint-side fence switch.  On by default; the partition-heal
  /// regression and the BENCH_failover baseline turn it off to reproduce
  /// the pre-epoch split brain (stale targets applied, dual regulators).
  void set_fencing_enabled(bool on) { reg_.set_fencing_enabled(on); }

  /// Orchestrating node of the last *applied* kRegulateSink for `vc` at
  /// this endpoint (kInvalidNode if never regulated), and the epoch fence
  /// currently in force.  The chaos oracles read these: at scenario end
  /// every surviving sink must name exactly the current orchestrating node
  /// at the current epoch.
  net::NodeId vc_regulator(transport::VcId vc) const { return reg_.vc_regulator(vc); }
  std::uint32_t vc_epoch(transport::VcId vc) const { return reg_.vc_epoch(vc); }

  /// Number of sessions this LLO can still accept (the paper's "table
  /// space"; rejection reason kNoTableSpace).
  void set_session_limit(std::size_t n) { reg_.set_session_limit(n); }

  /// Budget for collecting group-primitive acknowledgements before the op
  /// fails with kTimeout (previously a hardcoded 5 s; configurable so tests
  /// can tighten it and chaos runs can match their partition lengths).
  void set_op_timeout(Duration d) { table_.set_op_timeout(d); }
  Duration op_timeout() const { return table_.op_timeout(); }

  // ------------------------------------------------------------------
  // Fault model
  // ------------------------------------------------------------------

  /// Node crash: drops all orchestration state — orchestrated sessions,
  /// endpoint attachments, pending ops and their timers, callbacks, clock
  /// probes — and ignores OPDUs until restart().
  void crash();
  void restart();
  bool down() const { return down_; }

  // Introspection for tests/benches.
  bool has_session(OrchSessionId s) const { return table_.has_session(s); }
  std::size_t local_vc_count() const { return reg_.local_vc_count(); }
  /// Phase of a session this node orchestrates (kEstablishing when the
  /// session does not exist; check has_session to disambiguate).
  SessionPhase session_phase(OrchSessionId s) const { return table_.session_phase(s); }

 private:
  friend class SessionTable;
  friend class RegulationEngine;

  /// This node's shard runtime: every LLO timer and timestamp reads it.
  sim::NodeRuntime& rt() { return network_.node(node_).runtime(); }

  void send_opdu(net::NodeId dst, const Opdu& o);
  void on_opdu_packet(net::Packet&& pkt);
  void handle_time_req(const Opdu& o);
  void handle_time_resp(const Opdu& o);

  net::Network& network_;
  net::NodeId node_;
  transport::TransportEntity& entity_;
  OrchAppHandler* app_ = nullptr;
  bool down_ = false;

  SessionTable table_;   // orchestrating role
  RegulationEngine reg_; // endpoint role

  // Clock-sync probe state: probe id -> the estimation run it belongs to.
  std::uint32_t next_probe_id_ = 1;
  // One entry per in-flight estimation run (rare, short-lived).
  std::map<std::uint32_t, std::shared_ptr<ClockSyncSession>> clock_probes_;  // cmtos-analyze: allow(hot-path-map)
};

}  // namespace cmtos::orch
