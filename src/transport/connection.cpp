#include "transport/connection.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "obs/wire_stats.h"
#include "transport/transport_entity.h"
#include "util/contract.h"
#include "util/logging.h"

namespace cmtos::transport {

bool vc_transition_legal(VcState from, VcState to) {
  switch (from) {
    case VcState::kConnecting:
      return to == VcState::kOpen || to == VcState::kClosed;
    case VcState::kOpen:
      return to == VcState::kClosing || to == VcState::kClosed;
    case VcState::kClosing:
      return to == VcState::kClosed;
    case VcState::kClosed:
      return false;  // terminal
  }
  return false;
}

const char* to_string(VcState s) {
  switch (s) {
    case VcState::kConnecting: return "connecting";
    case VcState::kOpen: return "open";
    case VcState::kClosing: return "closing";
    case VcState::kClosed: return "closed";
  }
  return "?";
}

namespace {
/// Data TPDU payload limit (transport MTU); OSDUs larger than this are
/// segmented and reassembled with boundaries preserved (§3.7).
constexpr std::size_t kMaxTpduPayload = 1400;
/// NAK retry interval and cap (error-correction class).
constexpr Duration kNakRetryAfter = 60 * kMillisecond;
constexpr int kNakMaxTries = 3;
/// Up-front reservation cap for a paced burst's packet vector; a larger
/// pacing_burst grows the vector as it fills.
constexpr std::uint32_t kBurstReserveMax = 64;
}  // namespace

Connection::Connection(TransportEntity& entity, VcId id, VcRole role,
                       const ConnectRequest& request, const QosParams& agreed,
                       const VcReservations& reservations)
    : entity_(entity),
      sched_(entity.runtime()),
      id_(id),
      role_(role),
      request_(request),
      agreed_(agreed),
      reservations_(reservations),
      buffer_(std::max<std::uint32_t>(2, request.buffer_osdus)) {
  trace_pid_ = static_cast<int>(local_node());
  trace_tid_ = static_cast<int>(id_ & 0xffffffffu);
  buffer_.set_trace_identity(trace_pid_, trace_tid_);
  if (role_ == VcRole::kSink) {
    if (request_.shed_watermark_pct > 0) {
      shed_watermark_slots_ = std::max<std::size_t>(
          1, buffer_.capacity() * request_.shed_watermark_pct / 100);
    }
    monitor_ = std::make_unique<QosMonitor>(id_, agreed_, request_.sample_period);
    monitor_->set_warmup_periods(1);  // pipeline fill distorts the first period
    // T-QoS.indication is generated only when the selected class of
    // service includes the indication facility (§3.4 / §4.1.2).
    if (wants_indication(request_.service_class.error_control)) {
      // The violation fires inside the (shard-local) monitor sweep but its
      // handler relays QI TPDUs and reaches facade-side users, so escalate
      // it to a global event.  Capture entity + vc, not `this`: the
      // endpoint can be torn down at the same timestamp before the
      // deferred event runs.
      monitor_->set_on_violation([this](const QosReport& rep) {
        TransportEntity& ent = entity_;
        const VcId vc = id_;
        sched_.defer_global([&ent, vc, rep] {
          if (Connection* c = ent.endpoint(vc)) ent.on_qos_violation(*c, rep);
        });
      });
    }
  }
}

Connection::~Connection() {
  entity_.retire_metrics(*this);
  if (state_ == VcState::kOpen) entity_.endpoint_closed(*this);
}

net::NodeId Connection::local_node() const {
  return role_ == VcRole::kSource ? request_.src.node : request_.dst.node;
}

net::NodeId Connection::peer_node() const {
  return role_ == VcRole::kSource ? request_.dst.node : request_.src.node;
}

net::Tsap Connection::local_tsap() const {
  return role_ == VcRole::kSource ? request_.src.tsap : request_.dst.tsap;
}

// ====================================================================
// Lifecycle
// ====================================================================

void Connection::set_state(VcState next) {
  CMTOS_ASSERT(vc_transition_legal(state_, next), "vc.transition");
  CMTOS_TRACE("transport", "vc=%llu %s -> %s", static_cast<unsigned long long>(id_),
              to_string(state_), to_string(next));
  state_ = next;
}

void Connection::open() {
  if (state_ == VcState::kOpen) return;
  set_state(VcState::kOpen);
  // Lifecycle span: one async interval per endpoint, keyed by the VC id so
  // source and sink halves pair up in the viewer.
  obs::Tracer::global().async_begin(role_ == VcRole::kSource ? "VC.source" : "VC.sink",
                                    id_, trace_pid_, trace_tid_);
  if (role_ == VcRole::kSource) {
    // The protocol thread wakes whenever the application deposits data.
    buffer_.set_data_available([this] {
      if (request_.service_class.profile == ProtocolProfile::kWindowBased) {
        refill_txq();
        window_try_send();
      } else if (!pacer_armed_) {
        pacer_tick();
      }
    });
    // Take the first (failing) pop now so the protocol thread is recorded
    // as blocked on the empty ring and the producer's first push wakes it.
    if (request_.service_class.profile == ProtocolProfile::kWindowBased) {
      window_try_send();
    } else {
      pacer_tick();
    }
  } else {
    // Sink: when the application frees ring space, move completed OSDUs in
    // and tell the source about the new credit.
    buffer_.set_space_available([this] {
      push_delivery_queue();
      if (request_.service_class.profile == ProtocolProfile::kRateBasedCm) {
        send_feedback();
        watch_feedback();  // repeated on heartbeats until the source acks it
      }
    });
    monitor_->begin(entity_.local_now());
    monitor_boundary_ = sched_.now() + request_.sample_period;
  }
  entity_.heartbeat().attach(*this);
  watch_feedback();  // the first report
}

void Connection::close() {
  if (state_ == VcState::kClosed) return;
  if (state_ == VcState::kOpen) {
    obs::Tracer::global().async_end(role_ == VcRole::kSource ? "VC.source" : "VC.sink",
                                    id_, trace_pid_, trace_tid_);
    set_state(VcState::kClosing);
    entity_.endpoint_closed(*this);
  }
  set_state(VcState::kClosed);
}

void Connection::apply_new_qos(const QosParams& agreed) {
  agreed_ = agreed;
  if (monitor_) monitor_->set_agreed(agreed);
}

// ====================================================================
// Application interface
// ====================================================================

bool Connection::submit(std::vector<std::uint8_t> data, std::uint64_t event) {
  // Compat path: wrap the caller's heap buffer in place (one frame-header
  // allocation, no byte copy) and take the zero-copy path.
  return submit(PayloadView::adopt(std::move(data)), event);
}

bool Connection::submit(PayloadView data, std::uint64_t event) {
  CMTOS_DCHECK(role_ == VcRole::kSource);
  // Submitting on a circuit being torn down is a user error; refusing it
  // looks exactly like a full ring to the application (retry on the
  // space-available callback that will never come).
  if (state_ != VcState::kOpen) return false;
  Osdu osdu;
  osdu.event = event;
  osdu.src_timestamp = entity_.local_now();
  osdu.true_submit = sched_.now();
  osdu.data = std::move(data);
  // The sequence number is stamped only if the push succeeds, so a refused
  // submission does not burn a number.
  osdu.seq = next_osdu_seq_;
  if (!buffer_.try_push(std::move(osdu), sched_.now())) return false;
  ++next_osdu_seq_;
  ++stats_.osdus_submitted;
  return true;
}

std::optional<Osdu> Connection::receive() {
  CMTOS_DCHECK(role_ == VcRole::kSink);
  auto osdu = buffer_.try_pop(sched_.now());
  if (osdu) {
    last_delivered_seq_ = osdu->seq;
    ++stats_.osdus_delivered;
    watch_feedback();
    if (on_osdu_delivered_) on_osdu_delivered_(*osdu, entity_.local_now());
  }
  return osdu;
}

// ====================================================================
// Orchestrator interface
// ====================================================================

void Connection::pause_source(bool paused) {
  CMTOS_DCHECK(role_ == VcRole::kSource);
  if (source_paused_ == paused) return;
  source_paused_ = paused;
  if (!paused) {
    if (request_.service_class.profile == ProtocolProfile::kWindowBased) {
      window_try_send();
    } else if (!pacer_armed_) {
      pacer_tick();
    }
  }
}

std::uint32_t Connection::drop_at_source(std::uint32_t n) {
  CMTOS_DCHECK(role_ == VcRole::kSource);
  std::uint32_t dropped = 0;
  while (dropped < n) {
    auto victim = buffer_.drop_newest(sched_.now());
    if (!victim) break;
    ++dropped;
    ++stats_.osdus_dropped_at_source;
  }
  return dropped;
}

void Connection::set_delivery_enabled(bool enabled) {
  CMTOS_DCHECK(role_ == VcRole::kSink);
  buffer_.set_delivery_enabled(enabled, sched_.now());
  watch_feedback();  // the shedding trickle rule depends on the gate
}

void Connection::flush() {
  const Time now = sched_.now();
  if (role_ == VcRole::kSource) {
    buffer_.flush(now);
    txq_.clear();
    retain_.clear();
  } else {
    buffer_.flush(now);
    window_.clear();
    delivery_queue_.clear();
    nak_tries_.clear();
    // After a seek the source's sequence counters keep running; resync to
    // whatever arrives next instead of treating the jump as loss.
    next_deliver_seq_ = -1;
    tpdu_resync_ = true;
    last_hole_progress_ = now;
    if (request_.service_class.profile == ProtocolProfile::kRateBasedCm) {
      send_feedback();
      watch_feedback();
    }
  }
}

// ====================================================================
// Source side: segmentation and pacing
// ====================================================================

Duration Connection::tpdu_interval(std::uint16_t frag_count) const {
  // Rate-based flow control in *logical units* (§3.7: "at each time period
  // there will always be something to transmit (i.e. one logical unit)"):
  // one OSDU period per OSDU, divided evenly over its fragments, modulated
  // by receiver feedback.  Pacing by OSDUs rather than bytes keeps the
  // stream rate exactly on contract regardless of VBR frame sizes.
  const double rate = agreed_.osdu_rate * rate_factor_;
  if (rate <= 0) return kFeedbackPeriod;
  return static_cast<Duration>(1e9 / (rate * std::max<std::uint16_t>(1, frag_count)));
}

void Connection::refill_txq() {
  // Keep at most one OSDU's worth of fragments staged; the rest stays in
  // the shared ring where the orchestrator can still drop it.
  if (!txq_.empty()) return;
  auto osdu = buffer_.try_pop(sched_.now());
  if (!osdu) return;  // protocol thread blocks on the empty ring
  const std::size_t total = osdu->data.size();
  const std::uint16_t frag_count =
      static_cast<std::uint16_t>(total == 0 ? 1 : (total + kMaxTpduPayload - 1) / kMaxTpduPayload);
  for (std::uint16_t f = 0; f < frag_count; ++f) {
    DataTpdu dt;
    dt.vc = id_;
    dt.tpdu_seq = next_tpdu_seq_++;
    dt.osdu_seq = osdu->seq;
    dt.event = osdu->event;
    dt.frag_index = f;
    dt.frag_count = frag_count;
    dt.src_timestamp = osdu->src_timestamp;
    dt.true_submit = osdu->true_submit;
    // For any fragment f < frag_count, off < total (and for the empty
    // OSDU, off == total == 0), so the subtraction cannot underflow.
    const std::size_t off = static_cast<std::size_t>(f) * kMaxTpduPayload;
    const std::size_t len = std::min(kMaxTpduPayload, total - off);
    dt.payload = osdu->data.subview(off, len);  // index arithmetic, no copy
    txq_.push_back(std::move(dt));
  }
}

void Connection::send_data_tpdu(DataTpdu&& dt, bool retransmission,
                                std::vector<net::Packet>* burst) {
  if (retransmission) {
    dt.flags |= kDtRetransmission;
    ++stats_.tpdus_retransmitted;
  } else {
    ++stats_.tpdus_sent;
  }
  obs::Tracer::global().instant(retransmission ? "TPDU.retx" : "TPDU.tx", trace_pid_,
                                trace_tid_);
  // Retain for NAK-driven recovery (bounded).  The payload is a refcounted
  // view, so retention pins the frame but copies nothing.
  if (wants_correction(request_.service_class.error_control) ||
      request_.service_class.profile == ProtocolProfile::kWindowBased) {
    retain_[dt.tpdu_seq] = dt;
    if (request_.service_class.profile == ProtocolProfile::kWindowBased) {
      // Go-back-N recovery depends on every un-acked TPDU staying in the
      // map: evict only entries already acknowledged (seq < send_base_).
      // window_try_send() clamps the send window to retain_limit_, so the
      // un-acked span alone can never exceed the bound.
      while (retain_.size() > retain_limit_ && retain_.begin()->first < send_base_)
        retain_.erase(retain_.begin());
    } else {
      while (retain_.size() > retain_limit_) retain_.erase(retain_.begin());
    }
  }
  if (burst != nullptr) {
    burst->push_back(entity_.make_dt_packet(peer_node(), dt));
  } else {
    entity_.send_dt(peer_node(), dt);
  }
}

void Connection::schedule_pacer(Duration delay) {
  pacer_armed_ = true;
  // The pacing interval is timed by the source node's hardware clock, so
  // its drift skews the actual transmission rate (§3.6).
  pacer_event_.after(sched_, entity_.to_true(delay), [this] { pacer_tick(); });
}

void Connection::pacer_tick() {
  pacer_armed_ = false;
  if (state_ != VcState::kOpen || source_paused_) return;
  if (receiver_full_ || rate_factor_ <= 0) return;  // resumed by feedback
  // pacing_burst > 1 coarsens the pacing grain: up to that many fragments
  // go out back to back (staged into one network injection event) and the
  // pacer then sleeps the sum of their per-TPDU intervals, so the average
  // rate is exactly the burst-1 schedule's.
  const std::uint32_t burst_max = std::max<std::uint16_t>(1, request_.pacing_burst);
  // The staged burst becomes the network's injection event; its vector is
  // sized once, from the network's spare-vector cache.
  std::vector<net::Packet> burst;
  auto* staging = burst_max > 1 ? &burst : nullptr;
  if (staging != nullptr) burst = net::take_packet_vector(std::min(burst_max, kBurstReserveMax));
  Duration sleep = 0;
  std::uint32_t sent = 0;
  while (sent < burst_max) {
    if (txq_.empty()) refill_txq();
    if (txq_.empty()) break;
    DataTpdu dt = std::move(txq_.front());
    txq_.pop_front();
    const bool retrans = (dt.flags & kDtRetransmission) != 0;
    sleep += tpdu_interval(dt.frag_count);
    send_data_tpdu(std::move(dt), retrans, staging);
    ++sent;
  }
  if (!burst.empty()) {
    entity_.send_dt_burst(std::move(burst));
  } else if (staging != nullptr) {
    net::give_packet_vector(std::move(burst));
  }
  if (sent == 0) return;  // woken by data_available
  schedule_pacer(sleep);
}

void Connection::window_try_send() {
  if (state_ != VcState::kOpen || source_paused_) return;
  for (;;) {
    if (txq_.empty()) refill_txq();
    if (txq_.empty()) return;
    const std::uint32_t in_flight = txq_.front().tpdu_seq - send_base_;
    // The effective window never exceeds the retain bound: a window larger
    // than retention would force eviction of un-acked TPDUs, and a single
    // loss would then stall the circuit forever (no copy left to resend).
    const std::uint32_t window = std::min<std::uint32_t>(
        window_credit_, static_cast<std::uint32_t>(retain_limit_));
    if (in_flight >= window) return;  // window closed; wait for AK
    DataTpdu dt = std::move(txq_.front());
    txq_.pop_front();
    send_data_tpdu(std::move(dt), false);
    arm_retransmit_timer();
  }
}

void Connection::arm_retransmit_timer() {
  if (rto_event_.pending()) return;
  rto_event_.after(sched_, rto_, [this] { on_retransmit_timeout(); });
}

void Connection::on_retransmit_timeout() {
  if (state_ != VcState::kOpen) return;
  if (retain_.empty() || retain_.rbegin()->first < send_base_) return;  // all acked
  // Go-back-N: burst-retransmit everything unacked that we still hold.
  std::uint32_t resent = 0;
  for (auto& [seq, dt] : retain_) {
    if (seq < send_base_) continue;
    if (resent >= window_credit_) break;
    DataTpdu copy = dt;
    send_data_tpdu(std::move(copy), true);
    ++resent;
  }
  rto_ = std::min<Duration>(rto_ * 2, kSecond);
  if (resent > 0) rto_event_.after(sched_, rto_, [this] { on_retransmit_timeout(); });
}

void Connection::on_ack(const AckTpdu& ack) {
  if (role_ != VcRole::kSource || state_ != VcState::kOpen) return;
  if (ack.cumulative_ack > send_base_) {
    send_base_ = ack.cumulative_ack;
    retain_.erase(retain_.begin(), retain_.lower_bound(send_base_));
    rto_ = 200 * kMillisecond;
    rto_event_.cancel();
  }
  window_credit_ = std::max<std::uint32_t>(1, ack.window);
  window_try_send();
  if (!retain_.empty() && retain_.rbegin()->first >= send_base_) arm_retransmit_timer();
}

void Connection::on_nak(const NakTpdu& nak) {
  if (role_ != VcRole::kSource || state_ != VcState::kOpen) return;
  for (std::uint32_t seq : nak.missing) {
    auto it = retain_.find(seq);
    if (it == retain_.end()) continue;  // aged out; receiver will give up
    DataTpdu copy = it->second;
    copy.flags |= kDtRetransmission;
    txq_.push_front(std::move(copy));
  }
  if (!pacer_armed_) pacer_tick();
}

void Connection::on_feedback(const FeedbackTpdu& fb) {
  if (role_ != VcRole::kSource || state_ != VcState::kOpen) return;
  const bool was_stalled = receiver_full_ || rate_factor_ <= 0;
  receiver_full_ = fb.paused != 0 || fb.free_slots == 0;
  if (receiver_full_) {
    rate_factor_ = 0;
  } else {
    const double free_frac =
        fb.capacity ? static_cast<double>(fb.free_slots) / static_cast<double>(fb.capacity) : 1.0;
    if (free_frac < 0.125) {
      rate_factor_ = 0.25;
    } else if (free_frac < 0.25) {
      rate_factor_ = 0.5;
    } else if (free_frac < 0.5) {
      rate_factor_ = 0.9;
    } else {
      rate_factor_ = 1.0;
    }
  }
  if (was_stalled && !receiver_full_ && rate_factor_ > 0 && !pacer_armed_) pacer_tick();
}

// ====================================================================
// Sink side: reassembly, ordering, delivery, feedback
// ====================================================================

bool Connection::on_data(const net::Packet& pkt) {
  CMTOS_DCHECK(role_ == VcRole::kSink);
  // Both endpoints reach kOpen before any data TPDU can be emitted (the
  // sink opens on CR receipt, the source on CC receipt), so anything else
  // here is a late packet racing teardown: discard.
  if (role_ != VcRole::kSink || state_ != VcState::kOpen) return false;
  feed_monitor();
  WireFault fault = WireFault::kNone;
  auto dt = DataTpdu::decode_packet(pkt, &fault);
  if (!dt) {
    ++stats_.tpdus_corrupt;
    // The corrupt TPDU's bytes still crossed the wire; they belong in the
    // BER denominator.
    monitor_->on_tpdu_corrupt(static_cast<std::int64_t>(pkt.wire_size()));
    // On the packet path, kBadLength means the attached frame was cut or
    // padded in flight — line damage, same as a checksum failure.  Only a
    // CRC-valid header with structural nonsense (kBadType) is the peer's
    // doing, so only that routes through the quarantine-counting helper.
    if (fault == WireFault::kBadType) {
      entity_.note_wire_refusal(peer_node(), "dt", fault);
    } else {
      obs::wire_decode_failed("dt", fault);
    }
    obs::Tracer::global().instant("TPDU.corrupt", trace_pid_, trace_tid_);
    // The sequence number is unreadable; recovery (if any) rides on the
    // gap-detection path when the next good TPDU arrives.
    return false;
  }
  ++stats_.tpdus_received;
  obs::Tracer::global().instant("TPDU.rx", trace_pid_, trace_tid_);
  monitor_->on_tpdu_received(static_cast<std::int64_t>(pkt.wire_size()));
  monitor_->on_osdu_seen(dt->osdu_seq);

  const bool window = request_.service_class.profile == ProtocolProfile::kWindowBased;
  if (window) {
    // Go-back-N: only the expected TPDU is accepted.
    if (dt->tpdu_seq != expected_tpdu_seq_) {
      // Serial arithmetic: a seq below the cursor is a duplicate (the
      // network copied it, or a retransmission raced the cumulative ACK).
      // Count it — a duplication storm must stay visible — then re-ACK
      // either way so the source's window keeps moving.
      if (static_cast<std::int32_t>(dt->tpdu_seq - expected_tpdu_seq_) < 0)
        drop_duplicate_tpdu();
      AckTpdu ack;
      ack.vc = id_;
      ack.cumulative_ack = expected_tpdu_seq_;
      ack.window = recv_window_granted_;
      entity_.send_tpdu(peer_node(), net::Proto::kTransportData, ack.encode());
      return true;
    }
    ++expected_tpdu_seq_;
  } else {
    if (tpdu_resync_) {
      // First TPDU after open or flush: adopt the source's counter.
      tpdu_resync_ = false;
      expected_tpdu_seq_ = dt->tpdu_seq + 1;
    } else if (dt->tpdu_seq >= expected_tpdu_seq_) {
      if (dt->tpdu_seq > expected_tpdu_seq_) note_gap(expected_tpdu_seq_, dt->tpdu_seq);
      expected_tpdu_seq_ = dt->tpdu_seq + 1;
    } else {
      // A retransmission plugged a hole (or a duplicate re-arrived; the
      // reassembly guards below tell those apart).
      nak_tries_.erase(dt->tpdu_seq);
    }
  }

  handle_data_tpdu(std::move(*dt));

  if (window) {
    const std::uint16_t frags_per_osdu = static_cast<std::uint16_t>(std::max<std::int64_t>(
        1, (agreed_.max_osdu_bytes + static_cast<std::int64_t>(kMaxTpduPayload) - 1) /
               static_cast<std::int64_t>(kMaxTpduPayload)));
    const std::size_t backlog = delivery_queue_.size();
    const std::size_t free_for_net =
        buffer_.free_slots() > backlog ? buffer_.free_slots() - backlog : 0;
    recv_window_granted_ = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, free_for_net) * frags_per_osdu);
    AckTpdu ack;
    ack.vc = id_;
    ack.cumulative_ack = expected_tpdu_seq_;
    ack.window = recv_window_granted_;
    entity_.send_tpdu(peer_node(), net::Proto::kTransportData, ack.encode());
  } else {
    watch_feedback();
  }
  return true;
}

void Connection::note_gap(std::uint32_t from_seq, std::uint32_t to_seq) {
  const std::int64_t n = static_cast<std::int64_t>(to_seq) - from_seq;
  if (n <= 0) return;
  if (wants_correction(request_.service_class.error_control)) {
    NakTpdu nak;
    nak.vc = id_;
    for (std::uint32_t s = from_seq; s != to_seq; ++s) {
      if (nak_tries_.emplace(s, 1).second) nak.missing.push_back(s);
    }
    if (!nak.missing.empty())
      entity_.send_tpdu(peer_node(), net::Proto::kTransportData, nak.encode());
  } else {
    stats_.tpdus_lost += n;
    if (monitor_) monitor_->on_tpdu_lost(n);
    obs::Tracer::global().instant("TPDU.loss", trace_pid_, trace_tid_);
  }
}

std::int64_t Connection::unwrap_osdu_seq(std::uint32_t seq) const {
  // Serial-number arithmetic (the QosMonitor idiom): interpret `seq` as
  // the projection nearest the delivery cursor, so the timeline keeps
  // advancing monotonically across 32-bit wraparound.  Before resync the
  // raw value itself anchors the timeline.
  if (next_deliver_seq_ < 0) return static_cast<std::int64_t>(seq);
  const auto delta = static_cast<std::int32_t>(
      seq - static_cast<std::uint32_t>(next_deliver_seq_));
  return next_deliver_seq_ + delta;
}

void Connection::drop_duplicate_tpdu() {
  ++stats_.tpdus_dup_dropped;
  obs::Tracer::global().instant("TPDU.dup", trace_pid_, trace_tid_);
}

void Connection::handle_data_tpdu(DataTpdu&& dt) {
  const std::int64_t useq = unwrap_osdu_seq(dt.osdu_seq);
  if (next_deliver_seq_ >= 0 && useq < next_deliver_seq_) {
    // Stale: late retransmission or network duplicate of an OSDU already
    // delivered or skipped past.
    drop_duplicate_tpdu();
    return;
  }
  Slot& s = window_[useq];
  if (s.ready) {
    // Duplicate of a reassembled-but-undelivered OSDU: it must not
    // re-complete, double-count the OSDU or re-fire the arrival hook.
    drop_duplicate_tpdu();
    return;
  }
  if (s.frags.empty()) {
    // First fragment in: size the slot from its header.
    s.frags = std::move(spare_frags_);  // the last reassembled OSDU's slots
    s.frags.resize(dt.frag_count);
    s.osdu.seq = dt.osdu_seq;
    s.osdu.event = dt.event;
    s.osdu.src_timestamp = dt.src_timestamp;
    s.osdu.true_submit = dt.true_submit;
  }
  if (dt.frag_index >= s.frags.size()) return;  // malformed
  if (!s.frags[dt.frag_index].empty()) {
    drop_duplicate_tpdu();
    return;
  }
  s.frags[dt.frag_index] = std::move(dt.payload);
  if (++s.frags_received == s.frags.size()) complete_osdu(useq, s);
}

void Connection::complete_osdu(std::int64_t osdu_seq, Slot& s) {
  std::size_t total = 0;
  for (const auto& f : s.frags) total += f.size();
  // Fragments of one OSDU are consecutive slices of the frame the source
  // wrote, so reassembly is normally pure index arithmetic: verify
  // contiguity and re-join by extending the first fragment's view.
  bool contiguous = total > 0;
  if (contiguous) {
    const auto* frame = s.frags.front().frame();
    std::size_t expect_off = s.frags.front().offset();
    for (const auto& f : s.frags) {
      if (f.frame() != frame || f.offset() != expect_off) {
        contiguous = false;
        break;
      }
      expect_off += f.size();
    }
  }
  if (contiguous) {
    s.osdu.data = s.frags.front().extend(total);
  } else if (total > 0) {
    // Gather fallback (fragments from distinct frames, e.g. decoded via
    // the flat wire image): one pool-backed copy, counted in pool stats.
    auto& pool = FramePool::global();
    FrameLease lease = pool.lease(total);
    std::size_t off = 0;
    for (const auto& f : s.frags) {
      std::memcpy(lease.data() + off, f.data(), f.size());
      off += f.size();
    }
    pool.count_copy(total);
    s.osdu.data = std::move(lease).freeze(total);
  }
  s.frags.clear();
  spare_frags_ = std::move(s.frags);

  ++stats_.osdus_completed;
  highest_completed_seq_ = std::max<std::int64_t>(highest_completed_seq_, osdu_seq);
  if (monitor_) monitor_->on_osdu_completed(entity_.local_now() - s.osdu.src_timestamp);
  if (on_osdu_arrival_) on_osdu_arrival_(s.osdu);

  // Delivery stalls behind a hole only once an OSDU waits past it: the
  // hole timeout and the NAK retry clock run from then, not from the last
  // in-order delivery, so a repair that is already on its way (NAK sent
  // when the gap showed, retransmission a pacer tick later) is not skipped.
  if (first_ready() < 0) last_hole_progress_ = sched_.now();
  s.ready = true;
  deliver_ready();
}

std::int64_t Connection::first_ready() const {
  for (const auto& [seq, slot] : window_) {
    if (slot.ready) return seq;
  }
  return -1;
}

void Connection::skip_to(std::int64_t seq) {
  // Both sides of the subtraction live on the unwrapped 64-bit timeline,
  // so the count stays exact across 32-bit seq wrap.
  if (next_deliver_seq_ >= 0) stats_.osdus_skipped += seq - next_deliver_seq_;
  // Nothing can complete a fragment below the cursor, and its frames must
  // not stay pinned until close.
  window_.erase(window_.begin(), window_.lower_bound(seq));
  next_deliver_seq_ = seq;
}

void Connection::deliver_ready() {
  if (next_deliver_seq_ < 0) {
    // Resync after flush: adopt the first reassembled OSDU as the base,
    // releasing fragments that arrived pre-resync below it (e.g. with a
    // sibling checksum-dropped).
    const std::int64_t first = first_ready();
    if (first >= 0) skip_to(first);
  }
  while (!window_.empty()) {
    auto it = window_.begin();
    // An incomplete OSDU at the front waits for its fragments (or for the
    // hole timeout in give_up_on_holes).
    if (!it->second.ready) break;
    if (it->first != next_deliver_seq_) {
      // Nothing is reassembling below the first ready OSDU.  Unless an
      // outstanding transport-level recovery explains the hole, the source
      // dropped those OSDUs deliberately (Orch.Regulate max-drop#): skip
      // ahead at once.
      if (!nak_tries_.empty()) break;
      skip_to(it->first);
    }
    delivery_queue_.push_back(std::move(it->second.osdu));
    window_.erase(it);
    ++next_deliver_seq_;
    last_hole_progress_ = sched_.now();
  }
  push_delivery_queue();
}

void Connection::push_delivery_queue() {
  while (!delivery_queue_.empty()) {
    if (buffer_.try_push(delivery_queue_.front(), sched_.now())) {
      delivery_queue_.pop_front();
      continue;
    }
    // Ring full.  With load shedding armed and the delivery gate open (a
    // held buffer is *supposed* to fill during priming), stale OSDUs at the
    // front lose their value as continuous media: shed down past the
    // watermark so fresh data keeps flowing.
    if (shed_watermark_slots_ == 0 || !buffer_.delivery_enabled()) break;
    bool shed_any = false;
    while (buffer_.size() >= shed_watermark_slots_) {
      if (!buffer_.shed_oldest(sched_.now())) break;
      ++stats_.osdus_shed;
      shed_any = true;
    }
    if (!shed_any) break;
  }
}

bool Connection::has_holes() const {
  return !nak_tries_.empty() || (next_deliver_seq_ >= 0 && first_ready() > next_deliver_seq_);
}

void Connection::give_up_on_holes() {
  if (state_ != VcState::kOpen) return;
  const Time now = sched_.now();
  // Retry or abandon outstanding NAKs.
  if (!nak_tries_.empty() && now - last_hole_progress_ > kNakRetryAfter) {
    NakTpdu nak;
    nak.vc = id_;
    std::int64_t abandoned = 0;
    for (auto it = nak_tries_.begin(); it != nak_tries_.end();) {
      if (it->second >= kNakMaxTries) {
        ++abandoned;
        it = nak_tries_.erase(it);
      } else {
        ++it->second;
        nak.missing.push_back(it->first);
        ++it;
      }
    }
    if (!nak.missing.empty())
      entity_.send_tpdu(peer_node(), net::Proto::kTransportData, nak.encode());
    if (abandoned > 0) {
      stats_.tpdus_lost += abandoned;
      feed_monitor();
      monitor_->on_tpdu_lost(abandoned);
      obs::Tracer::global().instant("TPDU.loss", trace_pid_, trace_tid_);
    }
  }
  // Skip over OSDU holes that have stalled delivery beyond the jitter
  // budget: continuous media must keep moving.
  const Duration hole_timeout =
      std::max<Duration>(50 * kMillisecond, 2 * agreed_.delay_jitter);
  if (next_deliver_seq_ < 0 || now - last_hole_progress_ <= hole_timeout) return;
  const std::int64_t ready = first_ready();
  if (ready > next_deliver_seq_) {
    skip_to(ready);
    last_hole_progress_ = now;
    deliver_ready();
  }
}

FeedbackTpdu Connection::feedback_value() const {
  FeedbackTpdu fb;
  fb.vc = id_;
  const std::size_t backlog = delivery_queue_.size();
  const std::size_t free = buffer_.free_slots();
  fb.free_slots = static_cast<std::uint32_t>(free > backlog ? free - backlog : 0);
  // With load shedding armed and the gate open the sink never truly stalls
  // (it sheds instead), so keep the source trickling at its minimum rate
  // rather than pausing it outright.
  if (shed_watermark_slots_ > 0 && buffer_.delivery_enabled() && fb.free_slots == 0)
    fb.free_slots = 1;
  fb.capacity = static_cast<std::uint32_t>(buffer_.capacity());
  fb.highest_osdu = static_cast<std::uint32_t>(std::max<std::int64_t>(0, highest_completed_seq_));
  fb.paused = 0;
  return fb;
}

void Connection::send_feedback() {
  if (state_ != VcState::kOpen) return;
  entity_.send_tpdu(peer_node(), net::Proto::kTransportData, feedback_value().encode());
}

void Connection::watch_feedback() {
  if (role_ != VcRole::kSink || state_ != VcState::kOpen || fb_report_.watched ||
      request_.service_class.profile != ProtocolProfile::kRateBasedCm)
    return;
  entity_.heartbeat().watch(*this);
}

void Connection::feed_monitor() {
  close_monitor_periods();
  if (!monitor_event_.pending()) arm_monitor();
}

void Connection::close_monitor_periods() {
  // A feed at exactly a boundary instant lands in the next period: the
  // boundary closes first, as a timer armed a period earlier would fire
  // first.
  const Time now = sched_.now();
  if (now < monitor_boundary_) return;
  const Duration period = request_.sample_period;
  const std::int64_t n = (now - monitor_boundary_) / period + 1;
  monitor_boundary_ += n * period;
  const Time last = monitor_boundary_ - period;
  // Only the period ending at the first elapsed boundary can have been
  // fed (its timer is still pending at this same instant); once more than
  // one has elapsed, all of them are empty.
  if (n == 1) {
    monitor_->end_period(entity_.local_time(last));
  } else {
    monitor_->end_idle_periods(n, entity_.local_time(last - period), entity_.local_time(last));
  }
}

void Connection::arm_monitor() {
  monitor_event_.at(sched_, monitor_boundary_, [this] {
    const bool fed = !monitor_->idle();
    close_monitor_periods();
    if (fed) arm_monitor();
  });
}

}  // namespace cmtos::transport
