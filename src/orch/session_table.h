// cmtos/orch/session_table.h
//
// The orchestrating-node half of the LLO (§6.1–§6.3): owns the session
// table, fans the Table 4/5/6 primitives out as OPDUs to every endpoint
// LLO, collects acknowledgements against a per-session pending operation,
// and merges the end-of-interval sink/source reports into the
// Orch.Regulate.indication handed to the HLO agent.
//
// The table shares the Llo's wire I/O and node identity through a back
// reference.  Each pending group operation owns its timeout and each
// regulate-merge window its close timer, so finishing the operation,
// closing the window, releasing the session or a node crash (which clears
// the table) cancels them with the record.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "orch/orch_types.h"
#include "sim/node_runtime.h"
#include "util/slot_table.h"
#include "util/quarantine.h"
#include "util/thread_annotations.h"

namespace cmtos::orch {

class Llo;

class CMTOS_SHARD_AFFINE SessionTable {
 public:
  explicit SessionTable(Llo& llo) : llo_(llo) {}
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  // --- Table 4/5/6 primitives.  The group ones (Orch.request, Prime,
  // Start, Stop, Add, Remove) all go through run_op. ---
  void orch_request(OrchSessionId session, std::vector<OrchVcInfo> vcs, OrchResultFn done,
                    bool allow_no_common_node);
  void orch_release(OrchSessionId session);
  void release_remote(OrchSessionId session, const std::vector<OrchVcInfo>& vcs);
  void prime(OrchSessionId session, bool flush, OrchResultFn done) {
    run_op(session, OpduType::kPrime, flush ? kOpduFlagFlush : std::uint8_t{0}, std::nullopt,
           std::move(done));
  }
  void start(OrchSessionId session, OrchStartFn done) {
    run_op(session, OpduType::kStart, 0, std::nullopt, nullptr, std::move(done));
  }
  void stop(OrchSessionId session, OrchResultFn done) {
    run_op(session, OpduType::kStop, 0, std::nullopt, std::move(done));
  }
  void add(OrchSessionId session, OrchVcInfo vc, OrchResultFn done) {
    run_op(session, OpduType::kAdd, 0, vc, std::move(done));
  }
  void remove(OrchSessionId session, transport::VcId vc, OrchResultFn done);
  void regulate(OrchSessionId session, transport::VcId vc, std::int64_t target_seq,
                std::uint32_t max_drop, Duration interval, std::uint32_t interval_id);
  void delayed(OrchSessionId session, transport::VcId vc, bool source_side,
               std::int64_t osdus_behind);
  void register_event(OrchSessionId session, transport::VcId vc, std::uint64_t pattern,
                      std::uint64_t mask);

  // --- indication sinks (one HLO agent per session) ---
  void set_regulate_callback(OrchSessionId session,
                             std::function<void(const RegulateIndication&)> fn) {
    on_regulate_[session] = std::move(fn);
  }
  void set_event_callback(OrchSessionId session,
                          std::function<void(const EventIndication&)> fn) {
    on_event_[session] = std::move(fn);
  }
  void set_vc_dead_callback(OrchSessionId session,
                            std::function<void(const EventIndication&)> fn) {
    on_vc_dead_[session] = std::move(fn);
  }
  void set_superseded_callback(OrchSessionId session, std::function<void()> fn) {
    on_superseded_[session] = std::move(fn);
  }

  /// Fencing token stamped on every OPDU sent for `session` (default 1;
  /// the HLO agent sets it before Orch.request, bumped per re-election).
  void set_session_epoch(OrchSessionId session, std::uint32_t epoch) {
    session_epochs_[session] = epoch;
  }
  std::uint32_t session_epoch(OrchSessionId session) const {
    auto it = session_epochs_.find(session);
    return it == session_epochs_.end() ? 1 : it->second;
  }

  void set_op_timeout(Duration d) { op_timeout_ = d; }
  Duration op_timeout() const { return op_timeout_; }

  // --- OPDU rows dispatched here by the Llo (orchestrating-node side) ---
  void op_ack(const Opdu& o);
  void handle_primed(const Opdu& o);
  void handle_reg_ind(const Opdu& o);
  void handle_src_stats(const Opdu& o);
  void handle_event_ind(const Opdu& o);
  void handle_vc_dead(const Opdu& o);
  void handle_epoch_nack(const Opdu& o);

  // --- malformed-OPDU quarantine (adversarial wire model) ---
  /// Records a structurally-invalid OPDU (valid checksum, refused decode)
  /// from `peer`.  Warn threshold logs; escalation quarantines the peer —
  /// its OPDUs are dropped pre-decode from then on.  Orchestration sessions
  /// themselves recover through the normal op-timeout / vc-dead machinery,
  /// so no teardown is forced here.
  void note_malformed_opdu(net::NodeId peer);
  bool peer_quarantined(net::NodeId peer) const { return quarantine_.quarantined(peer); }

  // --- introspection / fault model ---
  bool has_session(OrchSessionId s) const { return sessions_.contains(s); }
  SessionPhase session_phase(OrchSessionId s) const {
    auto it = sessions_.find(s);
    return it == sessions_.end() ? SessionPhase::kEstablishing : it->second.phase;
  }
  /// Drops every orchestrating-side structure, with its timers: sessions,
  /// pending ops, merge windows, registered callbacks.
  void crash();

 private:
  struct PendingOp {
    OpduType type = OpduType::kSessReq;
    // kAdd/kRemove: the VC joining or leaving; membership changes when the
    // op succeeds.
    std::optional<OrchVcInfo> change;
    int awaiting = 0;
    bool failed = false;
    OrchReason reason = OrchReason::kOk;
    OrchResultFn done;
    OrchStartFn start_done;
    std::set<transport::VcId> primed_wanted;  // sinks still to report kPrimed
    FlatMap<transport::VcId, std::int64_t> start_bases;
    // Phase the session commits to when the op succeeds / reverts to when
    // it fails or times out.
    SessionPhase commit_phase = SessionPhase::kIdle;
    SessionPhase revert_phase = SessionPhase::kEstablishing;
    // Tracing: open async span for this op (0 = none).
    std::uint64_t span_id = 0;
    const char* span_name = nullptr;
    sim::Timer timeout;
  };
  struct RegMerge {
    RegulateIndication ind;
    bool have_sink = false;
    bool have_src = false;
    sim::Timer timeout;
    std::uint64_t span_id = 0;  // open "Orch.Regulate" interval span
  };
  struct Session {
    std::vector<OrchVcInfo> vcs;
    std::unique_ptr<PendingOp> op;
    FlatMap<std::pair<transport::VcId, std::uint32_t>, RegMerge> reg_merge;
    SessionPhase phase = SessionPhase::kEstablishing;  // established once past it
    bool allow_no_common_node = false;  // the §7 extension, for every member
  };

  Session* session(OrchSessionId s);
  /// The member `vc` of `sess`, or null.
  static const OrchVcInfo* member(const Session& sess, transport::VcId vc);
  /// The only writer of Session::phase: no-op when already there, checks
  /// the legal-transition table otherwise (CMTOS_ASSERT "orch.transition").
  void set_phase(OrchSessionId s, Session& sess, SessionPhase next);
  /// The one path of every group primitive: looks the session up, admits
  /// the op, fans `type` out to both ends of each target VC (the group, or
  /// the one `change` being added or removed) and leaves the commit or the
  /// revert to finish_op.
  void run_op(OrchSessionId s, OpduType type, std::uint8_t flags,
              std::optional<OrchVcInfo> change, OrchResultFn done,
              OrchStartFn start_done = nullptr);
  /// Admission of a group primitive over `targets` whose collecting phase
  /// is `attempt`: session established, no other group op collecting acks,
  /// `attempt` legal from the current phase, a removed VC a member and an
  /// added one not, and the common-node rule (§5) for every joining VC
  /// unless the session lifted it (§7).
  OrchReason admit_group_op(const Session& sess, OpduType type, SessionPhase attempt,
                            const std::vector<OrchVcInfo>& targets) const;
  /// Sends `type` about `vc` to its sink and then its source, each with
  /// `flags` plus its role flag.
  void send_to_both_ends(OrchSessionId s, OpduType type, std::uint8_t flags,
                         const OrchVcInfo& vc);
  /// Commits (phase, membership) or reverts the pending op once every ack
  /// is in (and, for a prime that has not failed, every sink's kPrimed) or
  /// it timed out, and tells the caller.
  void finish_op(OrchSessionId s, Session& sess);
  void emit_regulate_ind(OrchSessionId s, std::pair<transport::VcId, std::uint32_t> key);

  Llo& llo_;
  Duration op_timeout_ = 5 * kSecond;
  PeerQuarantine quarantine_;

  // Flat tables: the orchestrating side is probed per OPDU and per
  // regulation report, so lookups are O(1) and session churn recycles slots.
  FlatMap<OrchSessionId, Session> sessions_;
  FlatMap<OrchSessionId, std::uint32_t> session_epochs_;
  FlatMap<OrchSessionId, std::function<void(const RegulateIndication&)>> on_regulate_;
  FlatMap<OrchSessionId, std::function<void(const EventIndication&)>> on_event_;
  FlatMap<OrchSessionId, std::function<void(const EventIndication&)>> on_vc_dead_;
  FlatMap<OrchSessionId, std::function<void()>> on_superseded_;
};

}  // namespace cmtos::orch
