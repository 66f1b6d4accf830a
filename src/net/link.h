// cmtos/net/link.h
//
// A unidirectional link: priority output queues (strict priority across the
// Packet::Priority bands, FIFO within a band) -> serialisation at the link
// bandwidth -> propagation (+ random jitter) -> loss / bit-error injection
// -> delivery callback.  A full-duplex physical link is modelled as two
// independent Links.  Under overflow an arriving higher-priority packet
// evicts the newest lower-priority one, so control traffic survives
// congestion caused by bulk media.
//
// Links support mid-run reconfiguration (bandwidth, loss, jitter) so the
// benches can inject QoS degradations (T2 experiment) while traffic flows.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/node_runtime.h"
#include "util/ring_deque.h"
#include "util/rng.h"
#include "util/time.h"

namespace cmtos::net {

struct LinkConfig {
  std::int64_t bandwidth_bps = 10'000'000;
  Duration propagation_delay = 1 * kMillisecond;
  /// Maximum extra uniform random delay added per packet.
  Duration jitter = 0;
  /// Independent (Bernoulli) packet loss probability.
  double loss_rate = 0.0;
  /// Per-bit error probability; a packet suffers real bit flips with
  /// probability 1 - (1 - ber)^bits (drawn per packet in wire order, then
  /// 1–4 seeded flip positions across the wire image).
  double bit_error_rate = 0.0;
  /// Probability a delivered packet is duplicated: the copy arrives one
  /// extra propagation-jitter draw later (always after the original).
  double dup_rate = 0.0;
  /// Probability a packet's wire bytes are cut to a random prefix in
  /// flight (payload and/or attached frame; wire_size shrinks).
  double truncate_rate = 0.0;
  /// Probability a packet is held back by an extra uniform(0, reorder_window]
  /// propagation delay, letting later packets overtake it.  The window
  /// bounds the displacement: a held packet can only be passed by packets
  /// serialised within that window behind it.
  double reorder_rate = 0.0;
  Duration reorder_window = 0;
  /// Output queue bound; packets arriving to a full queue are dropped.
  std::size_t queue_limit_packets = 128;
  /// Optional Gilbert–Elliott burst-loss model.  When enabled it replaces
  /// the Bernoulli model above.
  bool burst_loss = false;
  double ge_p_good_to_bad = 0.0;   // per-packet transition probability
  double ge_p_bad_to_good = 0.0;
  double ge_loss_in_bad = 0.5;     // loss probability while in the bad state
  /// Media serialisation batching: up to this many queued kMedia packets
  /// are committed to the wire as one serialisation episode (one timer
  /// event for their summed transmission time, one delivery event for the
  /// survivors).  Loss and bit-error draws stay per-packet, in queue
  /// order; jitter is drawn once per episode, so intra-batch spacing
  /// collapses — acceptable for bulk media, which is why the control band
  /// is never batched.  1 = one event per packet (the legacy wire
  /// timeline, exactly).
  std::uint16_t media_batch_max = 1;
};

struct LinkStats {
  std::int64_t packets_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t dropped_queue_overflow = 0;
  std::int64_t dropped_loss = 0;
  std::int64_t corrupted = 0;    // packets whose wire bytes were bit-flipped
  std::int64_t dropped_down = 0;
  std::int64_t duplicated = 0;   // extra copies injected by dup_rate
  std::int64_t truncated = 0;    // packets cut to a prefix in flight
  std::int64_t reordered = 0;    // packets held back by reorder_rate
};

class Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  /// A link's transmit side (queues, serialisation timer, loss model) is
  /// owned by the from-node's shard; delivery events are scheduled onto the
  /// to-node's shard — the only way state crosses nodes.
  Link(sim::NodeRuntime& from_rt, sim::NodeRuntime& to_rt, Rng rng, LinkConfig cfg, NodeId from,
       NodeId to);

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  const LinkConfig& config() const { return cfg_; }
  const LinkStats& stats() const { return stats_; }

  /// Installed by the Network; invoked at the receiving node when a packet
  /// survives the link.
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Offers a packet to the link.  Returns false (and drops) on queue
  /// overflow.
  bool transmit(Packet&& p);

  /// Queue occupancy in packets (including any being serialised).
  std::size_t queue_depth() const {
    std::size_t n = static_cast<std::size_t>(serialising_count_);
    for (const auto& q : queues_) n += q.size();
    return n;
  }

  // --- reservation accounting (used by ReservationManager) ---
  std::int64_t reserved_bps() const { return reserved_bps_; }
  /// Share of the link's bandwidth the reservation manager may hand out.
  static constexpr double kReservableFraction = 0.9;
  std::int64_t reservable_bps() const {
    return static_cast<std::int64_t>(static_cast<double>(cfg_.bandwidth_bps) *
                                     kReservableFraction);
  }
  void add_reservation(std::int64_t bps) { reserved_bps_ += bps; }
  void release_reservation(std::int64_t bps) { reserved_bps_ -= bps; }

  // --- mid-run degradation injection ---
  void set_bandwidth(std::int64_t bps) { cfg_.bandwidth_bps = bps; }
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  /// Enables (or retunes) the Gilbert–Elliott burst-loss model mid-run, so
  /// tests can establish cleanly and then subject live traffic to bursts.
  void set_burst_loss(double p_good_to_bad, double p_bad_to_good, double loss_in_bad) {
    cfg_.burst_loss = true;
    cfg_.ge_p_good_to_bad = p_good_to_bad;
    cfg_.ge_p_bad_to_good = p_bad_to_good;
    cfg_.ge_loss_in_bad = loss_in_bad;
  }
  void set_bit_error_rate(double p) { cfg_.bit_error_rate = p; }
  void set_jitter(Duration j) { cfg_.jitter = j; }
  /// Direct access for the chaos engine's storms, which set and restore
  /// impairment fields generically.  Latency-relevant fields go through
  /// set_propagation_delay, which refreshes the executor lookahead.
  LinkConfig& mutable_config() { return cfg_; }
  void set_propagation_delay(Duration d) {
    cfg_.propagation_delay = d;
    if (retune_) retune_();  // the network refreshes the executor lookahead
  }

  /// Installed by the Network: invoked when a latency-relevant parameter
  /// changes mid-run so the conservative lookahead can be recomputed.
  void set_retune_hook(std::function<void()> fn) { retune_ = std::move(fn); }

  // --- fault injection (partition primitive) ---
  /// A down link drops every offered packet and every frame completing
  /// serialisation; packets already propagating still arrive (they left
  /// the wire before the cut).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

 private:
  void start_serialising();
  void finish_serialising();
  /// Applies the byzantine impairments to a committed packet in wire
  /// order: bit flips (bit_error_rate), then truncation (truncate_rate).
  void impair(Packet& p);
  /// Delivers one surviving packet (a one-element vector) with its own
  /// jitter, reorder and duplication draws.
  void propagate(std::vector<Packet>&& one);
  /// Delivers a whole surviving media batch with one event (propagation +
  /// one jitter draw); every member is handed to deliver_ in wire order.
  void propagate_batch(std::vector<Packet>&& batch);
  /// Schedules the delivery event that hands `pkts` to deliver_ in order
  /// at the receiving node.
  void deliver_at(Time at, bool global, std::vector<Packet>&& pkts);

  /// Highest-priority nonempty band, or -1.
  int first_nonempty_band() const;

  sim::NodeRuntime& from_rt_;
  sim::NodeRuntime& to_rt_;
  Rng rng_;
  LinkConfig cfg_;
  NodeId from_, to_;
  DeliverFn deliver_;
  std::function<void()> retune_;
  // One FIFO per band.  They keep their capacity, so a link in steady state
  // queues without allocating.
  std::array<RingDeque<Packet>, kPriorityBands> queues_;
  bool serialising_ = false;
  int serialising_band_ = -1;   // band of the frame(s) currently on the wire
  int serialising_count_ = 0;   // committed packets in this episode (>1 only
                                // for a media batch)
  bool ge_in_bad_state_ = false;
  bool up_ = true;
  std::int64_t reserved_bps_ = 0;
  LinkStats stats_;
};

}  // namespace cmtos::net
