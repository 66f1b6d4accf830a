#include "orch/session_table.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "orch/llo.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::orch {

using transport::VcId;

SessionTable::Session* SessionTable::session(OrchSessionId s) {
  auto it = sessions_.find(s);
  return it == sessions_.end() ? nullptr : &it->second;
}

void SessionTable::set_phase(OrchSessionId s, Session& sess, SessionPhase next) {
  if (sess.phase == next) return;  // failed op reverting to where it started
  CMTOS_ASSERT(orch_transition_legal(sess.phase, next), "orch.transition");
  CMTOS_TRACE("orch", "session=%llu %s -> %s", static_cast<unsigned long long>(s),
              to_string(sess.phase), to_string(next));
  sess.phase = next;
}

const OrchVcInfo* SessionTable::member(const Session& sess, VcId vc) {
  auto it = std::find_if(sess.vcs.begin(), sess.vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == vc; });
  return it == sess.vcs.end() ? nullptr : &*it;
}

OrchReason SessionTable::admit_group_op(const Session& sess, OpduType type,
                                        SessionPhase attempt,
                                        const std::vector<OrchVcInfo>& targets) const {
  if (type != OpduType::kSessReq && sess.phase == SessionPhase::kEstablishing)
    return OrchReason::kNotEstablished;
  // Group primitives are atomic over the whole group: a second op while one
  // is still collecting acks would interleave the two fan-outs and clobber
  // the pending-ack bookkeeping.
  if (sess.op != nullptr) return OrchReason::kOpInProgress;
  if (attempt != sess.phase && !orch_transition_legal(sess.phase, attempt))
    return OrchReason::kIllegalTransition;
  if (type == OpduType::kRemove && member(sess, targets.front().vc) == nullptr)
    return OrchReason::kNoSuchVc;
  if (type == OpduType::kAdd && member(sess, targets.front().vc) != nullptr)
    return OrchReason::kIllegalTransition;  // already a member
  // Common-node restriction (§5): this node must be an endpoint of every
  // orchestrated VC so its clock can serve as the synchronisation datum.
  // The §7 extension lifts it for the session (see Llo::orch_request's doc).
  if (!sess.allow_no_common_node && (type == OpduType::kSessReq || type == OpduType::kAdd)) {
    for (const auto& i : targets)
      if (i.src_node != llo_.node_ && i.sink_node != llo_.node_) return OrchReason::kNoCommonNode;
  }
  return OrchReason::kOk;
}

// ====================================================================
// Orchestrating-node primitives
// ====================================================================

void SessionTable::orch_request(OrchSessionId s, std::vector<OrchVcInfo> vcs, OrchResultFn done,
                                bool allow_no_common_node) {
  if (sessions_.contains(s)) {
    if (done) done(false, OrchReason::kNoTableSpace);
    return;
  }
  // OPDUs ride the internal control VC of each orchestrated transport
  // connection (§5 / [Shepherd,91]); the transport reserved that bandwidth
  // at connect time (TransportEntity::kControlVcBps, both directions), so
  // no additional reservation is made here.
  Session sess;
  sess.vcs = std::move(vcs);
  sess.allow_no_common_node = allow_no_common_node;
  sessions_.emplace(s, std::move(sess));
  run_op(s, OpduType::kSessReq, 0, std::nullopt, std::move(done));
}

void SessionTable::remove(OrchSessionId s, VcId vc, OrchResultFn done) {
  // The leaving VC's geometry comes from the group; admission refuses a
  // VC that is not a member.
  const Session* sess = session(s);
  const OrchVcInfo* m = sess != nullptr ? member(*sess, vc) : nullptr;
  run_op(s, OpduType::kRemove, 0, m != nullptr ? *m : OrchVcInfo{vc}, std::move(done));
}

void SessionTable::orch_release(OrchSessionId s) {
  Session* sess = session(s);
  if (sess == nullptr) return;
  release_remote(s, sess->vcs);
  sessions_.erase(s);
  session_epochs_.erase(s);
}

void SessionTable::release_remote(OrchSessionId s, const std::vector<OrchVcInfo>& vcs) {
  for (const auto& i : vcs) send_to_both_ends(s, OpduType::kSessRel, 0, i);
}

void SessionTable::send_to_both_ends(OrchSessionId s, OpduType type, std::uint8_t flags,
                                     const OrchVcInfo& vc) {
  for (std::uint8_t role : {std::uint8_t{0}, kOpduFlagSourceTarget}) {
    Opdu o = Opdu::command(type, s, vc.vc, llo_.node_, session_epoch(s));
    o.flags = static_cast<std::uint8_t>(flags | role);
    if (type != OpduType::kSessRel) o.vcs = {vc};  // a release needs no geometry
    llo_.send_opdu(role != 0 ? vc.src_node : vc.sink_node, o);
  }
}

void SessionTable::note_malformed_opdu(net::NodeId peer) {
  // Only CRC-valid structural refusals reach here (see util/quarantine.h):
  // checksum damage is line noise and never blamed on the peer.
  switch (quarantine_.note_malformed(peer)) {
    case PeerQuarantine::Action::kNone:
      break;
    case PeerQuarantine::Action::kWarn:
      CMTOS_WARN("llo", "node %u: peer node %u sent %lld malformed OPDUs", llo_.node_, peer,
                 static_cast<long long>(quarantine_.malformed(peer)));
      break;
    case PeerQuarantine::Action::kEscalate:
      obs::Registry::global()
          .counter("wire.peer_quarantined", {{"node", std::to_string(llo_.node_)}})
          .add();
      CMTOS_WARN("llo", "node %u: quarantining peer node %u (malformed-OPDU escalation)",
                 llo_.node_, peer);
      // No forced session teardown: a peer that stops answering (because we
      // drop its OPDUs from now on) is exactly what the op-timeout and
      // vc-dead machinery already recovers from.
      break;
  }
}

void SessionTable::crash() {
  sessions_.clear();
  session_epochs_.clear();
  on_regulate_.clear();
  on_event_.clear();
  on_vc_dead_.clear();
  on_superseded_.clear();
}

namespace {

/// A group op's trace/log name, its collecting phase and the phase it
/// commits to.  Membership changes keep the session's phase `now`.
struct OpShape {
  const char* name;
  SessionPhase attempt;
  SessionPhase commit;
};

OpShape op_shape(OpduType type, SessionPhase now) {
  using enum SessionPhase;
  switch (type) {
    case OpduType::kSessReq: return {"Orch.Session", kEstablishing, kIdle};
    case OpduType::kPrime: return {"Orch.Prime", kPriming, kPrimed};
    case OpduType::kStart: return {"Orch.Start", kStarting, kRunning};
    case OpduType::kStop: return {"Orch.Stop", kStopping, kStopped};
    case OpduType::kAdd: return {"Orch.Add", now, now};
    case OpduType::kRemove: return {"Orch.Remove", now, now};
    default:
      CMTOS_ASSERT(false, "orch.group_op");  // run_op runs only the six above
      return {"Orch.?", now, now};
  }
}

}  // namespace

void SessionTable::run_op(OrchSessionId s, OpduType type, std::uint8_t flags,
                          std::optional<OrchVcInfo> change, OrchResultFn done,
                          OrchStartFn start_done) {
  Session* sess = session(s);
  const OpShape shape = op_shape(type, sess != nullptr ? sess->phase : SessionPhase::kIdle);
  std::vector<OrchVcInfo> targets;
  if (sess != nullptr) targets = change ? std::vector{*change} : sess->vcs;
  const OrchReason r = sess != nullptr ? admit_group_op(*sess, type, shape.attempt, targets)
                                       : OrchReason::kNoSession;
  if (r != OrchReason::kOk) {
    if (sess != nullptr) {
      CMTOS_WARN("orch", "%s rejected in phase %s: %s", shape.name, to_string(sess->phase),
                 to_string(r));
      if (type == OpduType::kSessReq) sessions_.erase(s);  // never established
    }
    if (done) done(false, r);
    if (start_done) start_done(false, {});
    return;
  }

  auto op = std::make_unique<PendingOp>();
  op->type = type;
  op->change = change;
  op->done = std::move(done);
  op->start_done = std::move(start_done);
  op->commit_phase = shape.commit;
  op->revert_phase = sess->phase;
  op->awaiting = static_cast<int>(targets.size()) * 2;
  if (type == OpduType::kPrime) {
    for (const auto& i : targets) op->primed_wanted.insert(i.vc);
  }
  // Trace span: request fan-out -> last ack (async; several ops across VCs
  // may overlap on this node).
  op->span_name = shape.name;
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    op->span_id = tracer.next_async_id();
    tracer.async_begin(op->span_name, op->span_id, static_cast<int>(llo_.node_));
  }
  // The timeout path delivers failure to (possibly facade-side) callers,
  // so it runs as a global event.
  op->timeout.after_global(llo_.rt(), op_timeout_, [this, s] {
    Session* se = session(s);
    if (se == nullptr || se->op == nullptr) return;
    se->op->failed = true;
    se->op->reason = OrchReason::kTimeout;
    se->op->awaiting = 0;
    finish_op(s, *se);
  });
  sess->op = std::move(op);
  set_phase(s, *sess, shape.attempt);

  for (const auto& i : targets) send_to_both_ends(s, type, flags, i);
  // A group whose every member died (kVcDead) has no ack to wait for: the
  // op concludes now instead of at its timeout.
  if (targets.empty()) finish_op(s, *sess);
}

void SessionTable::regulate(OrchSessionId s, VcId vc, std::int64_t target_seq,
                            std::uint32_t max_drop, Duration interval,
                            std::uint32_t interval_id, std::uint32_t catch_up) {
  Session* sess = session(s);
  if (sess == nullptr || sess->phase == SessionPhase::kEstablishing) return;
  const OrchVcInfo* m = member(*sess, vc);
  if (m == nullptr) return;
  const OrchVcInfo info = *m;

  RegMerge merge;
  merge.ind.session = s;
  merge.ind.vc = vc;
  merge.ind.interval_id = interval_id;
  const auto key = std::pair{vc, interval_id};
  // One "Orch.Regulate" interval span per (vc, interval): request fan-out
  // to merged indication.
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    merge.span_id = tracer.next_async_id();
    tracer.async_begin("Orch.Regulate", merge.span_id, static_cast<int>(llo_.node_),
                       static_cast<int>(vc & 0xffffffffu));
  }
  // A fired merge window hands a (partial) indication to the HLO agent; it
  // is scheduled far beyond any round horizon and cancelled on the happy
  // path, so declaring it global costs no parallel rounds.
  merge.timeout.after_global(
      llo_.rt(), interval + interval / 2 + 100 * kMillisecond, [this, s, key] {
        Session* se = session(s);
        if (se == nullptr) return;
        auto mit = se->reg_merge.find(key);
        if (mit == se->reg_merge.end()) return;
        if (!mit->second.have_sink && !mit->second.have_src) {
          // Total silence is not a report: swallow the interval so the
          // agent's last_report_time goes stale — the heartbeat failover
          // detection reads.
          if (mit->second.span_id != 0)
            obs::Tracer::global().async_end("Orch.Regulate", mit->second.span_id,
                                            static_cast<int>(llo_.node_),
                                            static_cast<int>(key.first & 0xffffffffu));
          obs::Registry::global()
              .counter("orch.regulate_silent", {{"vc", std::to_string(key.first)}})
              .add();
          se->reg_merge.erase(mit);
          return;
        }
        mit->second.ind.partial = true;
        emit_regulate_ind(s, key);
      });
  sess->reg_merge.emplace(key, std::move(merge));

  for (const OpduType type : {OpduType::kRegulateSink, OpduType::kRegulateSrc}) {
    Opdu o = Opdu::command(type, s, vc, llo_.node_, session_epoch(s));
    o.max_drop = max_drop;
    o.interval = interval;
    o.interval_id = interval_id;
    if (type == OpduType::kRegulateSink) {
      o.target_seq = target_seq;
      o.src_node = info.src_node;
    }
    llo_.send_opdu(type == OpduType::kRegulateSink ? info.sink_node : info.src_node, o);
  }
  if (catch_up > 0) {
    // Behind the source's new drop budget on the same path, as a sink's
    // own kDrop would be.
    Opdu drop = Opdu::command(OpduType::kDrop, s, vc, llo_.node_, session_epoch(s));
    drop.drop_count = catch_up;
    llo_.send_opdu(info.src_node, drop);
  }
}

void SessionTable::delayed(OrchSessionId s, VcId vc, bool source_side,
                           std::int64_t osdus_behind) {
  Session* sess = session(s);
  const OrchVcInfo* m = sess != nullptr ? member(*sess, vc) : nullptr;
  if (m == nullptr) return;
  Opdu o = Opdu::command(OpduType::kDelayed, s, vc, llo_.node_, session_epoch(s));
  o.source_side = source_side ? 1 : 0;
  o.flags = source_side ? kOpduFlagSourceTarget : std::uint8_t{0};
  o.osdus_behind = osdus_behind;
  llo_.send_opdu(source_side ? m->src_node : m->sink_node, o);
}

void SessionTable::register_event(OrchSessionId s, VcId vc, std::uint64_t pattern,
                                  std::uint64_t mask) {
  Session* sess = session(s);
  const OrchVcInfo* m = sess != nullptr ? member(*sess, vc) : nullptr;
  if (m == nullptr) return;
  Opdu o = Opdu::command(OpduType::kEventReg, s, vc, llo_.node_, session_epoch(s));
  o.pattern = pattern;
  o.mask = mask;
  llo_.send_opdu(m->sink_node, o);
}

// ====================================================================
// Ack collection and report merging
// ====================================================================

void SessionTable::op_ack(const Opdu& o) {
  Session* sess = session(o.session);
  if (sess == nullptr || sess->op == nullptr) return;
  PendingOp& op = *sess->op;
  --op.awaiting;
  if (!o.ok) {
    op.failed = true;
    op.reason = o.reason;
  }
  if (o.type == OpduType::kStartAck && !(o.flags & kOpduFlagSourceTarget)) {
    op.start_bases[o.vc] = o.delivered_seq;
  }
  finish_op(o.session, *sess);
}

void SessionTable::finish_op(OrchSessionId s, Session& sess) {
  PendingOp& op = *sess.op;
  if (op.awaiting > 0) return;
  if (!op.failed && !op.primed_wanted.empty()) return;  // prime: wait for buffers to fill
  auto finished = std::move(sess.op);
  const bool ok = !finished->failed;
  set_phase(s, sess, ok ? finished->commit_phase : finished->revert_phase);
  if (finished->type == OpduType::kAdd) {
    // A refused joiner leaves no half-attached endpoint behind.
    if (ok) sess.vcs.push_back(*finished->change);
    else release_remote(s, {*finished->change});
  } else if (finished->type == OpduType::kRemove && ok) {
    std::erase_if(sess.vcs, [&](const OrchVcInfo& i) { return i.vc == finished->change->vc; });
  }
  if (finished->span_id != 0)
    obs::Tracer::global().async_end(finished->span_name, finished->span_id,
                                    static_cast<int>(llo_.node_));
  if (finished->done) finished->done(ok, finished->reason);
  if (finished->start_done) finished->start_done(ok, finished->start_bases);
}

void SessionTable::handle_primed(const Opdu& o) {
  Session* sess = session(o.session);
  if (sess == nullptr || sess->op == nullptr) return;
  sess->op->primed_wanted.erase(o.vc);
  finish_op(o.session, *sess);
}

void SessionTable::emit_regulate_ind(OrchSessionId s, std::pair<VcId, std::uint32_t> key) {
  Session* sess = session(s);
  if (sess == nullptr) return;
  auto it = sess->reg_merge.find(key);
  if (it == sess->reg_merge.end()) return;
  if (it->second.span_id != 0)
    obs::Tracer::global().async_end("Orch.Regulate", it->second.span_id,
                                    static_cast<int>(llo_.node_),
                                    static_cast<int>(key.first & 0xffffffffu));
  RegulateIndication ind = it->second.ind;
  sess->reg_merge.erase(it);
  obs::Registry::global()
      .counter("orch.regulate_intervals", {{"vc", std::to_string(ind.vc)}})
      .add();
  if (ind.partial)
    obs::Registry::global()
        .counter("orch.regulate_partial", {{"vc", std::to_string(ind.vc)}})
        .add();
  if (auto cb = on_regulate_.find(s); cb != on_regulate_.end() && cb->second) cb->second(ind);
}

void SessionTable::handle_reg_ind(const Opdu& o) {
  Session* sess = session(o.session);
  if (sess == nullptr) return;
  // Reports echo the epoch of the regulate that opened the interval; one
  // from an interval issued before our re-election must not pollute the
  // current merge state.
  if (o.epoch < session_epoch(o.session)) return;
  const auto key = std::pair{o.vc, o.interval_id};
  auto it = sess->reg_merge.find(key);
  if (it == sess->reg_merge.end()) return;
  it->second.have_sink = true;
  it->second.ind.delivered_seq = o.delivered_seq;
  it->second.ind.interval_start_seq = o.target_seq;
  it->second.ind.sink_proto_blocked = o.proto_blocked;
  it->second.ind.sink_app_blocked = o.app_blocked;
  if (it->second.have_src) emit_regulate_ind(o.session, key);
}

void SessionTable::handle_src_stats(const Opdu& o) {
  Session* sess = session(o.session);
  if (sess == nullptr) return;
  if (o.epoch < session_epoch(o.session)) return;  // stale-interval report
  const auto key = std::pair{o.vc, o.interval_id};
  auto it = sess->reg_merge.find(key);
  if (it == sess->reg_merge.end()) return;
  it->second.have_src = true;
  it->second.ind.dropped = o.dropped;
  it->second.ind.src_app_blocked = o.app_blocked;
  it->second.ind.src_proto_blocked = o.proto_blocked;
  if (it->second.have_sink) emit_regulate_ind(o.session, key);
}

void SessionTable::handle_event_ind(const Opdu& o) {
  if (auto cb = on_event_.find(o.session); cb != on_event_.end() && cb->second) {
    EventIndication ind;
    ind.session = o.session;
    ind.vc = o.vc;
    ind.osdu_seq = o.osdu_seq;
    ind.event_value = o.event_value;
    ind.matched_at = o.timestamp;
    cb->second(ind);
  }
}

void SessionTable::handle_epoch_nack(const Opdu& o) {
  // An endpoint fenced one of our OPDUs: a re-elected orchestrator with a
  // higher epoch (carried in o.epoch) owns the session now.  Ignore unless
  // the fence really is ahead of us — a reordered nack from an earlier
  // incarnation must not kill the current one.
  Session* sess = session(o.session);
  if (sess == nullptr) return;
  if (o.epoch <= session_epoch(o.session)) return;
  CMTOS_WARN("orch", "node %u: session %llu superseded (our epoch %u, fence %u)",
             llo_.node_, static_cast<unsigned long long>(o.session),
             session_epoch(o.session), o.epoch);
  if (auto cb = on_superseded_.find(o.session); cb != on_superseded_.end() && cb->second) {
    auto fn = cb->second;  // the callback typically releases the session,
    fn();                  // erasing the map entry mid-call
  }
}

void SessionTable::handle_vc_dead(const Opdu& o) {
  Session* sess = session(o.session);
  if (sess == nullptr) return;
  if (std::erase_if(sess->vcs, [&](const OrchVcInfo& i) { return i.vc == o.vc; }) == 0)
    return;  // duplicate report (both endpoints died)
  // Orphan any in-flight regulation merges for the dead VC.
  for (auto mit = sess->reg_merge.begin(); mit != sess->reg_merge.end();) {
    if (mit->first.first == o.vc) {
      if (mit->second.span_id != 0)
        obs::Tracer::global().async_end("Orch.Regulate", mit->second.span_id,
                                        static_cast<int>(llo_.node_),
                                        static_cast<int>(o.vc & 0xffffffffu));
      mit = sess->reg_merge.erase(mit);
    } else {
      ++mit;
    }
  }
  obs::Registry::global()
      .counter("orch.vc_dead", {{"session", std::to_string(o.session)}})
      .add();
  obs::Tracer::global().instant("Orch.VcDead", static_cast<int>(llo_.node_),
                                static_cast<int>(o.vc & 0xffffffffu));
  if (auto cb = on_vc_dead_.find(o.session); cb != on_vc_dead_.end() && cb->second) {
    EventIndication ind;
    ind.session = o.session;
    ind.vc = o.vc;
    ind.event_value = o.event_value;
    ind.matched_at = llo_.rt().now();
    cb->second(ind);
  }
}

}  // namespace cmtos::orch
