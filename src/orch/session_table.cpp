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

OrchReason SessionTable::admit_group_op(const Session& sess, SessionPhase attempt) const {
  if (!sess.established) return OrchReason::kNotEstablished;
  // Group primitives are atomic over the whole group: a second op while one
  // is still collecting acks would interleave the two fan-outs and clobber
  // the pending-ack bookkeeping.
  if (sess.op != nullptr) return OrchReason::kOpInProgress;
  if (attempt != sess.phase && !orch_transition_legal(sess.phase, attempt))
    return OrchReason::kIllegalTransition;
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
  // Common-node restriction (§5): this node must be an endpoint of every
  // orchestrated VC so its clock can serve as the synchronisation datum.
  // The §7 extension lifts it on request (see Llo::orch_request's doc).
  if (!allow_no_common_node) {
    for (const auto& i : vcs) {
      if (i.src_node != llo_.node_ && i.sink_node != llo_.node_) {
        if (done) done(false, OrchReason::kNoCommonNode);
        return;
      }
    }
  }
  Session sess;
  sess.vcs = vcs;
  // OPDUs ride the internal control VC of each orchestrated transport
  // connection (§5 / [Shepherd,91]); the transport reserved that bandwidth
  // at connect time (TransportEntity::kControlVcBps, both directions), so
  // no additional reservation is made here.
  auto [it, _] = sessions_.emplace(s, std::move(sess));
  fan_out(s, it->second, OpduType::kSessReq, 0, std::move(done), nullptr);
  // Mark established once the fan-out completes successfully; finish_op
  // handles that via the `established` flag check below.
  it->second.op->commit_phase = SessionPhase::kIdle;
  it->second.op->revert_phase = SessionPhase::kEstablishing;
}

void SessionTable::orch_release(OrchSessionId s) {
  Session* sess = session(s);
  if (sess == nullptr) return;
  release_remote(s, sess->vcs);
  sessions_.erase(s);
  session_epochs_.erase(s);
}

void SessionTable::release_remote(OrchSessionId s, const std::vector<OrchVcInfo>& vcs) {
  for (const auto& i : vcs) {
    for (std::uint8_t flag : {std::uint8_t{0}, kOpduFlagSourceTarget}) {
      Opdu o;
      o.type = OpduType::kSessRel;
      o.session = s;
      o.vc = i.vc;
      o.orch_node = llo_.node_;
      o.epoch = session_epoch(s);
      o.flags = flag;
      llo_.send_opdu(flag & kOpduFlagSourceTarget ? i.src_node : i.sink_node, o);
    }
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

void SessionTable::fan_out(OrchSessionId sid, Session& sess, OpduType type, std::uint8_t flags,
                           OrchResultFn done, OrchStartFn start_done) {
  auto op = std::make_unique<PendingOp>();
  op->done = std::move(done);
  op->start_done = std::move(start_done);
  op->awaiting = static_cast<int>(sess.vcs.size()) * 2;
  if (type == OpduType::kPrime) {
    for (const auto& i : sess.vcs) op->primed_wanted.insert(i.vc);
  }
  // Trace span: request fan-out -> last ack (async; several ops across VCs
  // may overlap on this node).
  switch (type) {
    case OpduType::kSessReq: op->span_name = "Orch.Session"; break;
    case OpduType::kPrime: op->span_name = "Orch.Prime"; break;
    case OpduType::kStart: op->span_name = "Orch.Start"; break;
    case OpduType::kStop: op->span_name = "Orch.Stop"; break;
    default: break;
  }
  auto& tracer = obs::Tracer::global();
  if (op->span_name != nullptr && tracer.enabled()) {
    op->span_id = tracer.next_async_id();
    tracer.async_begin(op->span_name, op->span_id, static_cast<int>(llo_.node_));
  }
  // The timeout path delivers failure to (possibly facade-side) callers,
  // so it runs as a global event.
  op->timeout.after_global(llo_.rt(), op_timeout_, [this, sid] {
    Session* se = session(sid);
    if (se == nullptr || se->op == nullptr) return;
    auto timed_out = std::move(se->op);
    set_phase(sid, *se, timed_out->revert_phase);
    if (timed_out->span_id != 0)
      obs::Tracer::global().async_end(timed_out->span_name, timed_out->span_id,
                                      static_cast<int>(llo_.node_));
    if (timed_out->done) timed_out->done(false, OrchReason::kTimeout);
    if (timed_out->start_done) timed_out->start_done(false, {});
  });
  sess.op = std::move(op);

  for (const auto& i : sess.vcs) {
    for (std::uint8_t roleflag : {std::uint8_t{0}, kOpduFlagSourceTarget}) {
      Opdu o;
      o.type = type;
      o.session = sid;
      o.vc = i.vc;
      o.orch_node = llo_.node_;
      o.epoch = session_epoch(sid);
      o.flags = static_cast<std::uint8_t>(flags | roleflag);
      o.vcs = {i};
      llo_.send_opdu(roleflag & kOpduFlagSourceTarget ? i.src_node : i.sink_node, o);
    }
  }
}

void SessionTable::prime(OrchSessionId s, bool flush, OrchResultFn done) {
  Session* sess = session(s);
  if (sess == nullptr) {
    if (done) done(false, OrchReason::kNoSession);
    return;
  }
  if (const OrchReason r = admit_group_op(*sess, SessionPhase::kPriming); r != OrchReason::kOk) {
    CMTOS_WARN("orch", "Orch.Prime rejected in phase %s: %s", to_string(sess->phase),
               to_string(r));
    if (done) done(false, r);
    return;
  }
  const SessionPhase from = sess->phase;
  set_phase(s, *sess, SessionPhase::kPriming);
  fan_out(s, *sess, OpduType::kPrime, flush ? kOpduFlagFlush : std::uint8_t{0}, std::move(done),
          nullptr);
  sess->op->commit_phase = SessionPhase::kPrimed;
  sess->op->revert_phase = from;
}

void SessionTable::start(OrchSessionId s, OrchStartFn done) {
  Session* sess = session(s);
  if (sess == nullptr) {
    if (done) done(false, {});
    return;
  }
  if (const OrchReason r = admit_group_op(*sess, SessionPhase::kStarting); r != OrchReason::kOk) {
    CMTOS_WARN("orch", "Orch.Start rejected in phase %s: %s", to_string(sess->phase),
               to_string(r));
    if (done) done(false, {});
    return;
  }
  const SessionPhase from = sess->phase;
  set_phase(s, *sess, SessionPhase::kStarting);
  fan_out(s, *sess, OpduType::kStart, 0, nullptr, std::move(done));
  sess->op->commit_phase = SessionPhase::kRunning;
  sess->op->revert_phase = from;
}

void SessionTable::stop(OrchSessionId s, OrchResultFn done) {
  Session* sess = session(s);
  if (sess == nullptr) {
    if (done) done(false, OrchReason::kNoSession);
    return;
  }
  if (const OrchReason r = admit_group_op(*sess, SessionPhase::kStopping); r != OrchReason::kOk) {
    CMTOS_WARN("orch", "Orch.Stop rejected in phase %s: %s", to_string(sess->phase),
               to_string(r));
    if (done) done(false, r);
    return;
  }
  const SessionPhase from = sess->phase;
  set_phase(s, *sess, SessionPhase::kStopping);
  fan_out(s, *sess, OpduType::kStop, 0, std::move(done), nullptr);
  sess->op->commit_phase = SessionPhase::kStopped;
  sess->op->revert_phase = from;
}

void SessionTable::add(OrchSessionId s, OrchVcInfo vc, OrchResultFn done) {
  Session* sess = session(s);
  if (sess == nullptr) {
    if (done) done(false, OrchReason::kNoSession);
    return;
  }
  if (vc.src_node != llo_.node_ && vc.sink_node != llo_.node_) {
    if (done) done(false, OrchReason::kNoCommonNode);
    return;
  }
  // Membership changes keep the session's phase but still need exclusive
  // use of the pending-op slot.
  if (const OrchReason r = admit_group_op(*sess, sess->phase); r != OrchReason::kOk) {
    if (done) done(false, r);
    return;
  }
  sess->vcs.push_back(vc);
  auto op = std::make_unique<PendingOp>();
  op->done = std::move(done);
  op->awaiting = 2;
  op->commit_phase = sess->phase;
  op->revert_phase = sess->phase;
  sess->op = std::move(op);
  for (std::uint8_t roleflag : {std::uint8_t{0}, kOpduFlagSourceTarget}) {
    Opdu o;
    o.type = OpduType::kAdd;
    o.session = s;
    o.vc = vc.vc;
    o.orch_node = llo_.node_;
    o.epoch = session_epoch(s);
    o.flags = roleflag;
    o.vcs = {vc};
    llo_.send_opdu(roleflag & kOpduFlagSourceTarget ? vc.src_node : vc.sink_node, o);
  }
}

void SessionTable::remove(OrchSessionId s, VcId vc, OrchResultFn done) {
  Session* sess = session(s);
  if (sess == nullptr) {
    if (done) done(false, OrchReason::kNoSession);
    return;
  }
  auto it = std::find_if(sess->vcs.begin(), sess->vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == vc; });
  if (it == sess->vcs.end()) {
    if (done) done(false, OrchReason::kNoSuchVc);
    return;
  }
  if (const OrchReason r = admit_group_op(*sess, sess->phase); r != OrchReason::kOk) {
    if (done) done(false, r);
    return;
  }
  const OrchVcInfo info = *it;
  sess->vcs.erase(it);
  auto op = std::make_unique<PendingOp>();
  op->done = std::move(done);
  op->awaiting = 2;
  op->commit_phase = sess->phase;
  op->revert_phase = sess->phase;
  sess->op = std::move(op);
  for (std::uint8_t roleflag : {std::uint8_t{0}, kOpduFlagSourceTarget}) {
    Opdu o;
    o.type = OpduType::kRemove;
    o.session = s;
    o.vc = vc;
    o.orch_node = llo_.node_;
    o.epoch = session_epoch(s);
    o.flags = roleflag;
    llo_.send_opdu(roleflag & kOpduFlagSourceTarget ? info.src_node : info.sink_node, o);
  }
}

void SessionTable::regulate(OrchSessionId s, VcId vc, std::int64_t target_seq,
                            std::uint32_t max_drop, Duration interval,
                            std::uint32_t interval_id, bool relative) {
  Session* sess = session(s);
  if (sess == nullptr || !sess->established) return;
  auto it = std::find_if(sess->vcs.begin(), sess->vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == vc; });
  if (it == sess->vcs.end()) return;

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

  Opdu to_sink;
  to_sink.type = OpduType::kRegulateSink;
  to_sink.session = s;
  to_sink.vc = vc;
  to_sink.orch_node = llo_.node_;
  to_sink.epoch = session_epoch(s);
  to_sink.flags = relative ? kOpduFlagRelativeTarget : std::uint8_t{0};
  to_sink.target_seq = target_seq;
  to_sink.max_drop = max_drop;
  to_sink.interval = interval;
  to_sink.interval_id = interval_id;
  to_sink.src_node = it->src_node;
  llo_.send_opdu(it->sink_node, to_sink);

  Opdu to_src;
  to_src.type = OpduType::kRegulateSrc;
  to_src.session = s;
  to_src.vc = vc;
  to_src.orch_node = llo_.node_;
  to_src.epoch = session_epoch(s);
  to_src.max_drop = max_drop;
  to_src.interval = interval;
  to_src.interval_id = interval_id;
  llo_.send_opdu(it->src_node, to_src);
}

void SessionTable::delayed(OrchSessionId s, VcId vc, bool source_side,
                           std::int64_t osdus_behind) {
  Session* sess = session(s);
  if (sess == nullptr) return;
  auto it = std::find_if(sess->vcs.begin(), sess->vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == vc; });
  if (it == sess->vcs.end()) return;
  Opdu o;
  o.type = OpduType::kDelayed;
  o.session = s;
  o.vc = vc;
  o.orch_node = llo_.node_;
  o.epoch = session_epoch(s);
  o.source_side = source_side ? 1 : 0;
  o.flags = source_side ? kOpduFlagSourceTarget : std::uint8_t{0};
  o.osdus_behind = osdus_behind;
  llo_.send_opdu(source_side ? it->src_node : it->sink_node, o);
}

void SessionTable::register_event(OrchSessionId s, VcId vc, std::uint64_t pattern,
                                  std::uint64_t mask) {
  Session* sess = session(s);
  if (sess == nullptr) return;
  auto it = std::find_if(sess->vcs.begin(), sess->vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == vc; });
  if (it == sess->vcs.end()) return;
  Opdu o;
  o.type = OpduType::kEventReg;
  o.session = s;
  o.vc = vc;
  o.orch_node = llo_.node_;
  o.epoch = session_epoch(s);
  o.pattern = pattern;
  o.mask = mask;
  llo_.send_opdu(it->sink_node, o);
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
  if (o.type == OpduType::kSessAck && o.ok) sess->established = true;
  finish_op(o.session, *sess);
}

void SessionTable::finish_op(OrchSessionId s, Session& sess) {
  PendingOp& op = *sess.op;
  if (op.awaiting > 0) return;
  if (!op.failed && !op.primed_wanted.empty()) return;  // prime: wait for buffers to fill
  auto finished = std::move(sess.op);
  set_phase(s, sess, finished->failed ? finished->revert_phase : finished->commit_phase);
  if (finished->span_id != 0)
    obs::Tracer::global().async_end(finished->span_name, finished->span_id,
                                    static_cast<int>(llo_.node_));
  if (finished->done) finished->done(!finished->failed, finished->reason);
  if (finished->start_done) finished->start_done(!finished->failed, finished->start_bases);
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
  auto it = std::find_if(sess->vcs.begin(), sess->vcs.end(),
                         [&](const OrchVcInfo& i) { return i.vc == o.vc; });
  if (it == sess->vcs.end()) return;  // duplicate report (both endpoints died)
  sess->vcs.erase(it);
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
