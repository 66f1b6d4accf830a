// cmtos/transport/heartbeat.h
//
// Per-peer-node control heartbeat: rate feedback, feedback acknowledgement
// and peer liveness for every VC between two transport entities, carried by
// one HeartbeatTpdu per node pair instead of per-VC timers and TPDUs.
//
// The entity keeps one Peer record per remote entity it holds open VCs
// with, in a flat table keyed by node.  Each record arms at most one tick on
// the node's shard runtime:
//
//   - every kFeedbackPeriod while a rate-based sink on that pair needs
//     attention: its feedback differs from what the source acknowledged, or
//     it has reassembly holes to retry or skip (give_up_on_holes);
//   - every keepalive_interval when liveness is on (peer_dead_after > 0).
//
// A sink's feedback rides a heartbeat until the peer's `ack` covers the
// heartbeat that first carried its current value, so a lost resume cannot
// stall a source.  The ack echoes only heartbeats that carried feedback
// (each repeats every unacked entry), never entry-less ones.  An idle,
// acknowledged VC schedules nothing and sends nothing.  A receiver acks a
// heartbeat that carried feedback at once, with a heartbeat that carries
// none (so acks never ping-pong).
//
// Liveness (peer_dead_after > 0) is per peer: any checksum-valid packet from
// the peer entity proves it alive; silence past peer_dead_after tears every
// VC with the peer down with kPeerDead.  A changed incarnation (the peer
// restarted) or a vc_count/digest mismatch lasting peer_dead_after (a lost
// DR left a half-open VC) triggers an exchange of explicit VC id lists, and
// each side tears down the VCs the other no longer holds.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/address.h"
#include "sim/node_runtime.h"
#include "transport/service.h"
#include "transport/tpdu.h"
#include "util/slot_table.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace cmtos::transport {

class Connection;
class TransportEntity;

/// Receiver feedback cadence for the rate profile: how often a peer's tick
/// runs while any of its sink VCs has unacknowledged feedback or holes.
inline constexpr Duration kFeedbackPeriod = 20 * kMillisecond;

/// A rate-based sink's heartbeat bookkeeping, embedded in its Connection.
struct FeedbackReport {
  FeedbackTpdu last;         // value last placed on a heartbeat
  std::uint32_t seq = 0;     // first heartbeat that carried `last` (0: none yet)
  bool acked = false;        // the peer's ack covers `seq`
  bool watched = false;      // on its peer record's watch list
};

class CMTOS_SHARD_AFFINE HeartbeatEngine {
 public:
  explicit HeartbeatEngine(TransportEntity& entity) : ent_(entity) {}
  HeartbeatEngine(const HeartbeatEngine&) = delete;
  HeartbeatEngine& operator=(const HeartbeatEngine&) = delete;

  /// An endpoint opened / closed: updates the count and digest of the VCs
  /// held with its peer, creating the peer record on first use and dropping
  /// it with the last VC.
  void attach(const Connection& c);
  void detach(const Connection& c);

  /// A rate-based sink whose feedback may have changed (or that has holes):
  /// the next tick of its peer record examines it.
  void watch(Connection& sink);

  /// A checksum-valid packet from `peer` arrived (liveness).
  void heard_from(net::NodeId peer);

  /// A heartbeat's wire bytes arrived from `src`: decodes them into a
  /// reused record and handles it; false (with `fault` set) on refusal.
  bool receive(net::NodeId src, std::span<const std::uint8_t> wire, WireFault* fault);

  /// Restart: later heartbeats carry a new incarnation.
  void restart() { ++incarnation_; }

  /// Peer records currently held (one per remote entity with open VCs).
  std::size_t peer_count() const { return peers_.size(); }

 private:
  struct Peer {
    std::uint32_t vc_count = 0;      // VC endpoints held with the peer
    std::uint64_t digest = 0;        // XOR of vc_digest over them
    std::vector<VcId> watch;         // rate-based sinks to examine next tick
    std::uint32_t recv_seq = 0;      // highest feedback-carrying seq received (our ack)
    std::uint32_t acked = 0;         // highest of our seqs the peer acked
    std::uint32_t incarnation = 0;   // the peer's (0: not heard yet)
    Time last_heard = 0;
    Time mismatch_since = -1;        // first mismatching digest (-1: none)
    Time next_keepalive = 0;
    Time tick_at = 0;
    sim::Timer tick;
  };

  Peer* find(net::NodeId node);
  /// Arms the record's tick at `at` unless it already fires no later.
  void arm(net::NodeId node, Peer& p, Time at);
  void on_tick(net::NodeId node);
  void on_heartbeat(net::NodeId src, const HeartbeatTpdu& hb);
  /// Examines the watch list: hole sweep, then fills feedback_ with the
  /// entries to send (stamped with the seq of the heartbeat about to carry
  /// them).
  void collect_feedback(net::NodeId node);
  /// Sends one heartbeat to `node`.  `p` is its record, or null when we
  /// hold no VC with it (then `ack` is the seq being answered).
  void emit(net::NodeId node, const Peer* p, std::span<const FeedbackTpdu> feedback,
            std::uint8_t flags = 0, std::uint32_t ack = 0);
  /// VC ids held with `node`: open endpoints plus connects awaiting its CC.
  std::vector<VcId> held_with(net::NodeId node) const;
  /// Open endpoints with `node` (the teardown candidates).
  std::vector<VcId> open_with(net::NodeId node) const;
  /// Tears `victims` down with kPeerDead in a global event.
  void declare_dead(std::vector<VcId> victims);
  bool liveness() const;

  TransportEntity& ent_;
  std::uint32_t incarnation_ = 1;
  /// Entity-wide, so a peer's ack stays meaningful when a record is dropped
  /// and re-created.
  std::uint32_t next_seq_ = 0;
  FlatMap<net::NodeId, Peer> peers_;
  // Scratch kept across ticks, so a steady-state exchange allocates nothing.
  std::vector<VcId> sweep_;              // the watch list being examined
  std::vector<FeedbackTpdu> feedback_;   // collect_feedback's entries
  HeartbeatTpdu tx_;                     // emit's heartbeat
  std::vector<std::uint8_t> wire_;       // emit's encoding
  HeartbeatTpdu rx_;                     // receive's decoded heartbeat
};

}  // namespace cmtos::transport
