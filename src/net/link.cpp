#include "net/link.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace cmtos::net {

Link::Link(sim::NodeRuntime& from_rt, sim::NodeRuntime& to_rt, Rng rng, LinkConfig cfg,
           NodeId from, NodeId to)
    : from_rt_(from_rt), to_rt_(to_rt), rng_(rng), cfg_(cfg), from_(from), to_(to) {}

int Link::first_nonempty_band() const {
  for (int b = 0; b < kPriorityBands; ++b) {
    if (!queues_[static_cast<std::size_t>(b)].empty()) return b;
  }
  return -1;
}

bool Link::transmit(Packet&& p) {
  if (!up_) {
    ++stats_.dropped_down;
    CMTOS_TRACE("link", "down %u->%u pkt=%llu dropped", from_, to_,
                static_cast<unsigned long long>(p.id));
    return false;
  }
  const auto band = static_cast<std::size_t>(p.priority);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  if (total >= cfg_.queue_limit_packets) {
    // Strict priority under overflow: evict the newest packet of the
    // lowest band below the arriving packet's class; otherwise drop it.
    // The frame committed to the wire (the front of serialising_band_) is
    // untouchable — finish_serialising() still owns it.
    int victim = -1;
    for (int b = kPriorityBands - 1; b > static_cast<int>(band); --b) {
      const auto& q = queues_[static_cast<std::size_t>(b)];
      const std::size_t committed =
          (b == serialising_band_) ? static_cast<std::size_t>(serialising_count_) : 0u;
      if (q.size() > committed) {
        victim = b;
        break;
      }
    }
    if (victim < 0) {
      ++stats_.dropped_queue_overflow;
      CMTOS_TRACE("link", "queue overflow %u->%u pkt=%llu", from_, to_,
                  static_cast<unsigned long long>(p.id));
      return false;
    }
    queues_[static_cast<std::size_t>(victim)].pop_back();
    ++stats_.dropped_queue_overflow;
  }
  queues_[band].push_back(std::move(p));
  if (!serialising_) start_serialising();
  return true;
}

void Link::start_serialising() {
  const int band = first_nonempty_band();
  if (band < 0) return;
  serialising_ = true;
  serialising_band_ = band;  // these frames are committed; no preemption
  const auto& q = queues_[static_cast<std::size_t>(band)];
  // Media batching: commit several queued media frames as one episode (one
  // timer event for their summed transmission time).  A packet whose
  // terminal delivery must run globally cannot ride in a (shard-local)
  // batch delivery, so it ends the batch; media traffic never sets the
  // flag, and the control band is never batched.
  const auto eligible = [this](const Packet& p) {
    return p.priority == Priority::kMedia && !(p.global_delivery && p.dst == to_);
  };
  std::size_t n = 1;
  if (cfg_.media_batch_max > 1 && eligible(q.front())) {
    while (n < cfg_.media_batch_max && n < q.size() && eligible(q[n])) ++n;
  }
  serialising_count_ = static_cast<int>(n);
  Duration tx = 0;
  for (std::size_t i = 0; i < n; ++i)
    tx += transmission_time(static_cast<std::int64_t>(q[i].wire_size()), cfg_.bandwidth_bps);
  from_rt_.after(tx, [this] { finish_serialising(); });
}

void Link::finish_serialising() {
  // The frames committed to the wire at start time are the first `count`
  // of their band (a higher-priority arrival during serialisation must not
  // be mistaken for them — it merely wins the *next* serialisation slot).
  auto& q = queues_[static_cast<std::size_t>(serialising_band_)];
  const auto count = static_cast<std::size_t>(serialising_count_);
  serialising_ = false;
  serialising_band_ = -1;
  serialising_count_ = 0;

  // Frames finishing serialisation on a link that went down mid-transfer
  // are cut off: they never reach the far end.
  if (!up_) {
    stats_.dropped_down += static_cast<std::int64_t>(count);
    for (std::size_t i = 0; i < count; ++i) q.pop_front();
    if (first_nonempty_band() >= 0) start_serialising();
    return;
  }

  // Loss and bit-error draws are per packet, in wire order, whether or not
  // the episode was batched.  Survivors leave the band queue for the
  // vector their delivery event will carry.
  std::vector<Packet> survivors = take_packet_vector(count);
  for (std::size_t i = 0; i < count; ++i) {
    Packet& p = q.front();
    ++stats_.packets_sent;
    stats_.bytes_sent += static_cast<std::int64_t>(p.wire_size());

    // Loss decision (Bernoulli or Gilbert–Elliott burst model).
    bool lost = false;
    if (cfg_.burst_loss) {
      if (ge_in_bad_state_) {
        lost = rng_.bernoulli(cfg_.ge_loss_in_bad);
        if (rng_.bernoulli(cfg_.ge_p_bad_to_good)) ge_in_bad_state_ = false;
      } else {
        if (rng_.bernoulli(cfg_.ge_p_good_to_bad)) ge_in_bad_state_ = true;
      }
    } else {
      lost = rng_.bernoulli(cfg_.loss_rate);
    }

    if (lost) {
      ++stats_.dropped_loss;
    } else {
      impair(p);
      survivors.push_back(std::move(p));
    }
    q.pop_front();
  }

  if (survivors.empty()) {
    give_packet_vector(std::move(survivors));
  } else if (count == 1) {
    // Legacy path: per-packet jitter draw, per-packet delivery event.
    propagate(std::move(survivors));
  } else {
    propagate_batch(std::move(survivors));
  }

  if (first_nonempty_band() >= 0) start_serialising();
}

void Link::impair(Packet& p) {
  // Bit-error injection: real byte-level corruption of the wire image.
  if (cfg_.bit_error_rate > 0) {
    const double bits = static_cast<double>(p.wire_size()) * 8.0;
    const double p_corrupt = 1.0 - std::pow(1.0 - cfg_.bit_error_rate, bits);
    const std::size_t payload_bytes = p.payload.size();
    const std::size_t total = payload_bytes + p.frame.size();
    if (total > 0 && rng_.bernoulli(p_corrupt)) {
      // 1–4 seeded flip positions across payload + frame.  A flip landing
      // in the attached frame materialises a private corrupted copy first:
      // the original frame bytes are shared (refcounted) with the sender's
      // retransmission retain map and must stay pristine.
      const std::int64_t flips = rng_.uniform(1, 4);
      std::vector<std::uint8_t> frame_copy;
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto pos =
            static_cast<std::size_t>(rng_.uniform(0, static_cast<std::int64_t>(total) - 1));
        const auto bit = static_cast<std::uint8_t>(1u << rng_.uniform(0, 7));
        if (pos < payload_bytes) {
          p.payload[pos] ^= bit;
        } else {
          if (frame_copy.empty()) {
            frame_copy.resize(p.frame.size());
            std::memcpy(frame_copy.data(), p.frame.data(), p.frame.size());
          }
          frame_copy[pos - payload_bytes] ^= bit;
        }
      }
      if (!frame_copy.empty()) p.frame = PayloadView::adopt(std::move(frame_copy));
      ++stats_.corrupted;
    }
  }
  // Truncation: cut the wire image to a random proper prefix.
  if (cfg_.truncate_rate > 0 && rng_.bernoulli(cfg_.truncate_rate)) {
    const std::size_t total = p.payload.size() + p.frame.size();
    if (total > 0) {
      const auto keep =
          static_cast<std::size_t>(rng_.uniform(0, static_cast<std::int64_t>(total) - 1));
      if (keep <= p.payload.size()) {
        p.payload.resize(keep);
        p.frame.reset();
      } else {
        p.frame = p.frame.subview(0, keep - p.payload.size());
      }
      ++stats_.truncated;
    }
  }
}

void Link::propagate(std::vector<Packet>&& one) {
  Duration delay = cfg_.propagation_delay;
  if (cfg_.jitter > 0) delay += rng_.uniform(0, cfg_.jitter);
  // Reordering: hold this packet back by an extra bounded delay so packets
  // serialised behind it within the window overtake it.  Both jitter and
  // the reorder hold are additive, so delay >= propagation_delay >= the
  // executor's lookahead — the delivery always lands at or beyond the
  // round horizon.
  if (cfg_.reorder_rate > 0 && cfg_.reorder_window > 0 && rng_.bernoulli(cfg_.reorder_rate)) {
    delay += rng_.uniform(1, cfg_.reorder_window);
    ++stats_.reordered;
  }
  // Duplication: deliver an extra copy of the whole packet (payload bytes
  // copied, frame refcount bumped).  The copy is scheduled after the
  // original — at the same instant or one extra jitter draw later — so the
  // receiver always sees original first, duplicate second.
  std::optional<Duration> dup_delay;
  if (cfg_.dup_rate > 0 && rng_.bernoulli(cfg_.dup_rate)) {
    dup_delay = delay + (cfg_.jitter > 0 ? rng_.uniform(0, cfg_.jitter) : 0);
    ++stats_.duplicated;
  }
  // The delivery event runs on the *receiving* node's shard; it is global
  // only when this hop terminates the packet and its handler touches
  // shared state (Packet::global_delivery).  Transit hops merely enqueue
  // on the next link, which is local to the receiving shard.
  const Packet& p = one.front();
  const bool global = p.global_delivery && p.dst == to_;
  const Time when = from_rt_.now() + delay;
  if (dup_delay) {
    std::vector<Packet> copy = take_packet_vector(1);
    copy.push_back(p);
    deliver_at(when, global, std::move(one));
    deliver_at(from_rt_.now() + *dup_delay, global, std::move(copy));
  } else {
    deliver_at(when, global, std::move(one));
  }
}

void Link::propagate_batch(std::vector<Packet>&& batch) {
  Duration delay = cfg_.propagation_delay;
  if (cfg_.jitter > 0) delay += rng_.uniform(0, cfg_.jitter);
  // Duplication inside a batch: the copy rides the same delivery event,
  // immediately after its original.  Reordering does not apply within a
  // batch — a batch is one serialisation episode, so its members share one
  // wire interval by construction.
  if (cfg_.dup_rate > 0) {
    std::vector<Packet> with_dups = take_packet_vector(batch.size() * 2);
    for (auto& p : batch) {
      const bool dup = rng_.bernoulli(cfg_.dup_rate);
      with_dups.push_back(std::move(p));
      if (dup) {
        ++stats_.duplicated;
        with_dups.push_back(with_dups.back());
      }
    }
    give_packet_vector(std::exchange(batch, std::move(with_dups)));
  }
  // One delivery event hands the whole surviving batch to the receiving
  // shard in wire order.  Every member was checked batch-eligible at
  // commit time (media priority, shard-local terminal delivery), so the
  // event never needs a serial round.
  deliver_at(from_rt_.now() + delay, false, std::move(batch));
}

void Link::deliver_at(Time at, bool global, std::vector<Packet>&& pkts) {
  // The vector itself is the event's capture (no box around it), and goes
  // back to the spare-vector cache once its packets are handed on.
  auto fn = [this, pkts = std::move(pkts)]() mutable {
    for (auto& p : pkts) {
      ++p.hops;
      if (deliver_) deliver_(std::move(p));
    }
    give_packet_vector(std::move(pkts));
  };
  if (global) {
    (void)to_rt_.at_global(at, std::move(fn));
  } else {
    (void)to_rt_.at(at, std::move(fn));
  }
}

}  // namespace cmtos::net
