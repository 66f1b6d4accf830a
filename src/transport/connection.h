// cmtos/transport/connection.h
//
// One endpoint of a simplex virtual circuit (§3.1): the data plane.
//
// A Connection exists at the source node (role kSource: consumes OSDUs from
// the shared send ring, segments them into data TPDUs, paces them with
// rate-based flow control or the window-based baseline, retains recent
// TPDUs for NAK-driven retransmission) and at the sink node (role kSink:
// verifies CRCs, detects gaps, reassembles OSDUs preserving boundaries,
// delivers them in sequence order into the shared receive ring, runs the
// QoS monitor, and generates rate feedback).
//
// A Connection arms no periodic timer of its own.  Rate feedback, NAK retry
// / hole skipping and peer liveness run from the entity's per-peer
// heartbeat (transport/heartbeat.h): a sink asks for attention with
// watch_feedback() whenever its feedback may have changed.  The sink's QoS
// monitor closes its sample periods lazily, arming a boundary timer only
// while data arrives, so an idle, acknowledged VC costs no events and no
// packets.
//
// The low-level orchestrator attaches here: delivery hold (prime / stop),
// drop-at-source, pause, flush, position queries and per-OSDU hooks are all
// Connection operations.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/address.h"
#include "net/network.h"
#include "sim/node_runtime.h"
#include "transport/heartbeat.h"
#include "transport/monitor.h"
#include "transport/osdu.h"
#include "transport/service.h"
#include "transport/stream_buffer.h"
#include "transport/tpdu.h"
#include "util/ring_deque.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {

class TransportEntity;

enum class VcRole : std::uint8_t { kSource, kSink };

/// VC endpoint lifecycle.  Legal transitions (enforced through the contract
/// layer by Connection::set_state; see vc_transition_legal):
///
///   kConnecting -> kOpen     three-way establishment completed
///   kConnecting -> kClosed   establishment failed / rejected / timed out
///   kOpen       -> kClosing  local release issued, teardown in progress
///   kOpen       -> kClosed   peer release / entity teardown
///   kClosing    -> kClosed   teardown complete
///
/// kClosed is terminal and self-transitions are illegal everywhere: the
/// data-plane handlers treat any non-kOpen state as "discard quietly", so a
/// state that could oscillate would mask protocol bugs.
enum class VcState : std::uint8_t { kConnecting, kOpen, kClosing, kClosed };

/// The legal-transition table for the VC lifecycle above.
bool vc_transition_legal(VcState from, VcState to);
const char* to_string(VcState s);

/// The endpoint's counters and their only store: the entity publishes them
/// as the VC's `transport.*` series while the endpoint lives and folds them
/// into per-node totals when it goes (see TransportEntity::retire_metrics).
struct VcStats {
  // Source side.
  std::int64_t osdus_submitted = 0;
  std::int64_t osdus_dropped_at_source = 0;
  std::int64_t tpdus_sent = 0;
  std::int64_t tpdus_retransmitted = 0;
  // Sink side.
  std::int64_t tpdus_received = 0;
  std::int64_t tpdus_corrupt = 0;
  std::int64_t tpdus_dup_dropped = 0;     // duplicate DT TPDUs discarded
  std::int64_t tpdus_lost = 0;            // detected via gaps, never recovered
  std::int64_t osdus_completed = 0;       // fully reassembled
  std::int64_t osdus_skipped = 0;         // holes given up on (incl. source drops)
  std::int64_t osdus_delivered = 0;       // popped by the application
  std::int64_t osdus_shed = 0;            // stale OSDUs dropped by load shedding
};

/// The substrate reservations of one source VC: the forward path (data
/// rate plus the control-VC allowance) and the reverse control trickle
/// (feedback TPDUs, orchestrator replies).  A pending connect holds them
/// until its CC arrives, then hands them to the source endpoint; a sink
/// holds none.  TransportEntity::release_reservations returns both.
struct VcReservations {
  net::ReservationId forward = net::kNoReservation;
  net::ReservationId reverse = net::kNoReservation;
};

class CMTOS_SHARD_AFFINE Connection {
 public:
  Connection(TransportEntity& entity, VcId id, VcRole role, const ConnectRequest& request,
             const QosParams& agreed, const VcReservations& reservations);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  VcId id() const { return id_; }
  VcRole role() const { return role_; }
  VcState state() const { return state_; }
  const ConnectRequest& request() const { return request_; }
  const QosParams& agreed_qos() const { return agreed_; }
  /// The forward reservation, which renegotiation resizes.
  net::ReservationId reservation() const { return reservations_.forward; }
  const VcReservations& reservations() const { return reservations_; }
  const VcStats& stats() const { return stats_; }
  QosMonitor* monitor() { return monitor_.get(); }
  const QosMonitor* monitor() const { return monitor_.get(); }

  /// The peer endpoint's node (sink node for a source connection and vice
  /// versa).
  net::NodeId peer_node() const;
  net::NodeId local_node() const;
  /// The TSAP of this endpoint's user (source or destination address).
  net::Tsap local_tsap() const;

  // ------------------------------------------------------------------
  // Application (user-thread) interface — the shared circular buffer.
  // ------------------------------------------------------------------

  /// Source: submits one OSDU.  The transport stamps the sequence number
  /// and the source-local timestamp.  Returns false when the send ring is
  /// full (the producer block episode starts; retry on space-available).
  /// The view form is the zero-copy path (the frame was written once by
  /// the media source); the vector form adopts the heap buffer in place.
  bool submit(PayloadView data, std::uint64_t event = 0);
  bool submit(std::vector<std::uint8_t> data, std::uint64_t event = 0);

  /// Sink: takes the next in-order OSDU, or nullopt when none is available
  /// or delivery is held by the orchestrator.
  std::optional<Osdu> receive();

  /// Direct access to the shared ring (for callbacks and stats).
  StreamBuffer& buffer() { return buffer_; }
  const StreamBuffer& buffer() const { return buffer_; }

  // ------------------------------------------------------------------
  // Orchestrator (LLO) interface.
  // ------------------------------------------------------------------

  /// Source: freeze/unfreeze TPDU emission (Orch.Stop / Orch.Start act on
  /// the source through the protocol's flow-control machinery).
  void pause_source(bool paused);
  bool source_paused() const { return source_paused_; }

  /// Source: discards up to `n` not-yet-transmitted OSDUs from the send
  /// ring ("performed at the source by incrementing the source shared
  /// buffer pointer", §6.3.1.1).  Returns the number actually discarded.
  std::uint32_t drop_at_source(std::uint32_t n);

  /// Sink: gate between the receive ring and the application (prime/stop).
  void set_delivery_enabled(bool enabled);

  /// Flushes buffered data at this endpoint: send ring (source) or receive
  /// ring + reassembly state (sink).  Used when re-priming after a seek so
  /// no stale media plays (§6.2.1).
  void flush();

  /// Sink: sequence number of the last OSDU handed to the application, or
  /// -1 if none yet.  This is the position the Orch.Regulate target refers
  /// to.
  std::int64_t last_delivered_seq() const { return last_delivered_seq_; }

  /// Sink: highest OSDU sequence number fully reassembled so far (-1 none).
  std::int64_t highest_completed_seq() const { return highest_completed_seq_; }

  /// Sink hook: fires when an OSDU completes reassembly (before delivery);
  /// the LLO's Orch.Event matcher attaches here (§6.3.4: matched against
  /// "incoming OSDUs", so matching must not wait for the app to read).
  void set_on_osdu_arrival(std::function<void(const Osdu&)> fn) {
    on_osdu_arrival_ = std::move(fn);
  }

  /// Sink hook: fires when the application pops an OSDU.
  void set_on_osdu_delivered(std::function<void(const Osdu&, Time local_now)> fn) {
    on_osdu_delivered_ = std::move(fn);
  }

  // ------------------------------------------------------------------
  // Entity-internal interface.
  // ------------------------------------------------------------------

  /// Transitions kConnecting -> kOpen, joins the entity's per-peer
  /// heartbeat record and starts the pacer (source) or the monitor's first
  /// sample period (sink; a rate-based sink also queues its first feedback
  /// report).
  void open();

  /// Leaves the open state: drops the heartbeat record and any in-flight
  /// renegotiation.  The entity destroys the connection in the same event,
  /// which cancels its timers.
  void close();

  /// Applies a renegotiated contract (keeps buffers, seq numbers, state).
  void apply_new_qos(const QosParams& agreed);

  /// Incoming data-plane TPDUs, dispatched by the entity.  on_data returns
  /// whether the TPDU passed its checksums (liveness counts only those).
  bool on_data(const net::Packet& pkt);
  void on_ack(const AckTpdu& ack);
  void on_nak(const NakTpdu& nak);
  void on_feedback(const FeedbackTpdu& fb);

  // --- per-peer heartbeat hooks (rate-based sink) ---
  /// The receive-buffer report the source should act on now.
  FeedbackTpdu feedback_value() const;
  /// What the heartbeat last reported for this VC and whether it was acked.
  FeedbackReport& feedback_report() { return fb_report_; }
  /// Outstanding NAKs, or completed OSDUs waiting behind a hole.
  bool has_holes() const;
  /// Retries or abandons outstanding NAKs and skips holes that stalled
  /// delivery past the jitter budget (run from the heartbeat tick).
  void give_up_on_holes();

  /// Source: bounds the retransmission-retain map (tests shrink it to
  /// exercise the window/retention interaction).  In window mode the
  /// effective send window is clamped to this bound so go-back-N recovery
  /// can never lose an un-acked TPDU to eviction.
  void set_retain_limit(std::size_t n) { retain_limit_ = std::max<std::size_t>(1, n); }
  std::size_t retain_limit() const { return retain_limit_; }

  /// Source: test hook starting the OSDU sequence at an arbitrary value
  /// (the seq-wrap regression starts just below 2^32).
  void set_next_osdu_seq(std::uint32_t seq) { next_osdu_seq_ = seq; }

 private:
  /// One OSDU in the reassembly window: collects fragments until all are
  /// in, then holds the reassembled OSDU in place until delivery.
  struct Slot {
    std::size_t frags_received = 0;
    bool ready = false;              // reassembled: `osdu.data` is set
    Osdu osdu;                       // header fields from the first fragment
    std::vector<PayloadView> frags;  // one per fragment: refcounted slices, no copies
  };

  /// The only writer of state_: checks the move against the legal-transition
  /// table (CMTOS_ASSERT "vc.transition") before committing it.
  void set_state(VcState next);

  // --- source side ---
  void pacer_tick();
  void schedule_pacer(Duration delay);
  void refill_txq();
  Duration tpdu_interval(std::uint16_t frag_count) const;
  /// Emits one data TPDU (stats, retention, transmission).  When `burst`
  /// is non-null the encoded packet is staged there instead of being
  /// injected — the pacer flushes the whole burst with one network event.
  void send_data_tpdu(DataTpdu&& dt, bool retransmission,
                      std::vector<net::Packet>* burst = nullptr);
  void window_try_send();
  void arm_retransmit_timer();
  void on_retransmit_timeout();

  // --- sink side ---
  void handle_data_tpdu(DataTpdu&& dt);
  /// Discards a duplicate data TPDU (GBN stale seq, repeated fragment,
  /// re-delivery of a completed or already-consumed OSDU): counts it so a
  /// duplication storm is visible, and nothing else — a dup must never
  /// re-fire hooks or re-enter reassembly.
  void drop_duplicate_tpdu();
  void note_gap(std::uint32_t from_seq, std::uint32_t to_seq);
  void complete_osdu(std::int64_t osdu_seq, Slot& slot);
  /// Maps the 32-bit on-wire OSDU seq onto the unwrapped 64-bit delivery
  /// timeline via serial-number arithmetic (nearest projection to the
  /// delivery cursor), so reassembly state survives seq wraparound.
  std::int64_t unwrap_osdu_seq(std::uint32_t seq) const;
  /// Seq of the first reassembled OSDU in the window, or -1 if none.
  std::int64_t first_ready() const;
  /// Moves the delivery cursor to `seq` and drops every window entry below
  /// it (resync after flush, a deliberate source drop, a timed-out hole);
  /// OSDUs jumped over count as skipped unless resyncing.
  void skip_to(std::int64_t seq);
  void deliver_ready();
  void push_delivery_queue();
  /// Immediate FeedbackTpdu (space-available / flush): the low-latency
  /// path that unstalls a source without waiting for the next heartbeat.
  void send_feedback();
  /// Rate-based sink: asks the peer's heartbeat tick to look at this VC.
  void watch_feedback();
  /// QoS monitor sample periods.  Boundaries stay on the grid open + k *
  /// sample_period, but only a period that is fed costs an event:
  /// feed_monitor() runs before every monitor feed, closes the boundaries
  /// that have elapsed (in O(1), however many) and arms the boundary timer
  /// if none is pending.  The timer re-arms only after closing a fed
  /// period, so the first empty period still closes on time and the next
  /// ones close at the next feed.
  void feed_monitor();
  void close_monitor_periods();
  void arm_monitor();

  TransportEntity& entity_;
  /// The owning node's shard runtime: every data-plane timer of this
  /// endpoint is shard-local.  The escalation point that must touch shared
  /// state (QoS-violation reporting) goes through defer_global.
  sim::NodeRuntime& sched_;
  VcId id_;
  VcRole role_;
  VcState state_ = VcState::kConnecting;
  ConnectRequest request_;
  QosParams agreed_;
  VcReservations reservations_;
  VcStats stats_;

  StreamBuffer buffer_;

  // === source state ===
  bool source_paused_ = false;
  bool pacer_armed_ = false;
  std::uint32_t next_osdu_seq_ = 0;     // stamped on submit()
  std::uint32_t next_tpdu_seq_ = 0;
  RingDeque<DataTpdu> txq_;             // fragments awaiting (re)transmission
  // Pruned in seq order by cumulative acks (lower_bound walks); ordered.
  std::map<std::uint32_t, DataTpdu> retain_;  // sent TPDUs kept for NAK service  // cmtos-analyze: allow(hot-path-map)
  std::size_t retain_limit_ = 512;
  double rate_factor_ = 1.0;            // receiver-feedback modulation (rate profile)
  bool receiver_full_ = false;
  sim::Timer pacer_event_;
  // window profile:
  std::uint32_t send_base_ = 0;         // oldest unacked TPDU seq
  std::uint32_t window_credit_ = 8;     // receiver-granted window (TPDUs)
  sim::Timer rto_event_;
  Duration rto_ = 200 * kMillisecond;

  // === sink state ===
  std::uint32_t expected_tpdu_seq_ = 0;
  bool tpdu_resync_ = true;  // adopt the next TPDU's seq (fresh open / after flush)
  // The reassembly window, keyed by the *unwrapped* OSDU seq (see
  // unwrap_osdu_seq) so ordering stays correct across 32-bit wraparound.
  // Every key is at or above next_deliver_seq_ (once resynced): delivery
  // drains it smallest-seq-first and skip_to range-erases below the
  // cursor; ordered by design.
  std::map<std::int64_t, Slot> window_;  // cmtos-analyze: allow(hot-path-map)
  std::vector<PayloadView> spare_frags_;  // a reassembled Slot's frags, kept for its capacity
  RingDeque<Osdu> delivery_queue_;                  // ready, waiting for ring space
  std::int64_t next_deliver_seq_ = 0;               // next expected OSDU seq (-1: resync)
  std::int64_t last_delivered_seq_ = -1;
  std::int64_t highest_completed_seq_ = -1;
  // Holes are retried oldest-first and pruned by seq range; ordered.
  std::map<std::uint32_t, int> nak_tries_;     // tpdu seq -> attempts  // cmtos-analyze: allow(hot-path-map)
  Time last_hole_progress_ = 0;
  std::uint32_t recv_window_granted_ = 8;
  FeedbackReport fb_report_;
  sim::Timer monitor_event_;
  Time monitor_boundary_ = 0;  // true time of the next unclosed period boundary
  std::unique_ptr<QosMonitor> monitor_;
  // Load shedding: when the receive ring holds at least this many OSDUs and
  // a new one cannot be pushed, the oldest are shed (0 = shedding disabled;
  // derived from ConnectRequest::shed_watermark_pct at construction).
  std::size_t shed_watermark_slots_ = 0;
  std::function<void(const Osdu&)> on_osdu_arrival_;
  std::function<void(const Osdu&, Time)> on_osdu_delivered_;

  // === observability ===
  int trace_pid_ = 0;  // node id
  int trace_tid_ = 0;  // VC (low 32 bits)
};

}  // namespace cmtos::transport
