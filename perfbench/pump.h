// perfbench/pump.h
//
// The 64 KiB pump shared by bulk_64k and resident_10k: one rate-based VC
// carrying 64 KiB OSDUs at a 250/s contract with media_batch_max =
// pacing_burst = 32 (the bench_multiplex shape).  Every slice the source
// refills its 64-OSDU ring and the sink application drains everything
// deliverable, checking order, length and content of each OSDU.

#pragma once

#include <array>
#include <cstring>
#include <optional>
#include <vector>

#include "harness.h"
#include "media/content.h"
#include "util/rng.h"

namespace perf {

inline constexpr std::size_t kPumpOsduBytes = 64 * 1024;
inline constexpr double kPumpRate = 250.0;
inline constexpr std::size_t kPumpTemplates = 8;
/// Slice length: the drain granularity, well below the ~260 ms delays.
inline constexpr Duration kPumpSlice = 2 * cmtos::kMillisecond;

/// Link config of a pump pair.  The seed sets the propagation delay within
/// 50 us and drives up to 20 us of per-batch jitter (below the ~360 us
/// between media batches, so nothing reorders), so delays and skew differ
/// slightly between seeds.
inline cmtos::net::LinkConfig pump_link(cmtos::Rng& rng) {
  cmtos::net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * cmtos::kMillisecond + rng.uniform(0, 50) * cmtos::kMicrosecond;
  link.jitter = 20 * cmtos::kMicrosecond;
  link.media_batch_max = 32;
  return link;
}

/// Transport user that accepts every connect and records the confirm.
class CountingUser : public cmtos::transport::TransportUser {
 public:
  explicit CountingUser(cmtos::transport::TransportEntity& entity) : entity_(&entity) {}
  void t_connect_indication(cmtos::transport::VcId vc,
                            const cmtos::transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(cmtos::transport::VcId, const cmtos::transport::QosParams&) override {
    ++confirmed;
    confirm_time = entity_->scheduler().now();
  }
  void t_disconnect_indication(cmtos::transport::VcId,
                               cmtos::transport::DisconnectReason) override {}

  std::int64_t confirmed = 0;
  Time confirm_time = 0;

 private:
  cmtos::transport::TransportEntity* entity_;
};

class Pump {
 public:
  Pump(cmtos::platform::Host& src, cmtos::platform::Host& dst, std::uint64_t seed)
      : src_(src), dst_(dst), src_user_(src.entity), dst_user_(dst.entity) {
    src.entity.bind(1, &src_user_);
    dst.entity.bind(2, &dst_user_);
    // Content is seeded: the sink compares every OSDU against its template.
    for (std::size_t k = 0; k < kPumpTemplates; ++k)
      frames_.push_back(cmtos::media::make_frame_view(
          static_cast<std::uint32_t>(1 + seed % 1000),
          static_cast<std::uint32_t>(seed % 100'000 * kPumpTemplates + k), kPumpOsduBytes));
  }

  /// Issues the connect and runs until it is confirmed (or 2 s pass).
  void connect(Sim& sim) {
    cmtos::transport::ConnectRequest req;
    req.initiator = req.src = {src_.id, 1};
    req.dst = {dst_.id, 2};
    auto& pref = req.qos.preferred;
    pref.osdu_rate = kPumpRate;
    pref.max_osdu_bytes = static_cast<std::int64_t>(kPumpOsduBytes);
    // The ring holds 64 OSDUs (256 ms at 250/s) ahead of the wire, so the
    // delay bound covers ring residence plus transit.
    pref.end_to_end_delay = 500 * cmtos::kMillisecond;
    pref.delay_jitter = 50 * cmtos::kMillisecond;
    pref.packet_error_rate = 0.02;
    pref.bit_error_rate = 1e-5;
    req.qos.worst = pref;
    req.qos.worst.osdu_rate = kPumpRate / 4;
    req.qos.worst.end_to_end_delay = cmtos::kSecond;
    req.qos.worst.delay_jitter = 200 * cmtos::kMillisecond;
    req.qos.worst.packet_error_rate = 0.1;
    req.qos.worst.bit_error_rate = 1e-3;
    req.service_class.profile = cmtos::transport::ProtocolProfile::kRateBasedCm;
    req.service_class.error_control = cmtos::transport::ErrorControl::kIndicate;
    req.buffer_osdus = 64;
    req.pacing_burst = 32;
    const Time t0 = sim.now();
    {
      Span span("t_connect_request");
      vc_ = src_.entity.t_connect_request(req);
    }
    const Time give_up = t0 + 2 * cmtos::kSecond;
    while (src_user_.confirmed == 0 && sim.now() < give_up) sim.run_for(kPumpSlice);
    if (src_user_.confirmed == 0) return;
    connect_ms_ = cmtos::to_seconds(src_user_.confirm_time - t0) * 1e3;
    source_ = src_.entity.source(vc_);
    sink_ = dst_.entity.sink(vc_);
    if (source_ != nullptr) deadline_ = source_->agreed_qos().end_to_end_delay;
    // Delays are timed to the instant an OSDU is complete in the receive
    // ring, so they do not depend on the drain cadence.
    if (sink_ != nullptr)
      sink_->set_on_osdu_arrival([this](const cmtos::transport::Osdu& o) {
        arrivals_[o.seq % arrivals_.size()] = {o.seq, dst_.entity.scheduler().now()};
      });
  }

  bool connected() const { return source_ != nullptr && sink_ != nullptr; }

  /// Refill before the slice's run_until.
  void refill(Time now) {
    if (!connected()) return;
    if (epoch_open_ && now >= epoch_end_ && epoch_last_seq_ < 0) epoch_last_seq_ = submitted_;
    for (;;) {
      bool ok = false;
      {
        Span span("submit");
        ok = source_->submit(frames_[static_cast<std::size_t>(submitted_) % kPumpTemplates]);
      }
      if (!ok) break;
      ++submitted_;
    }
  }

  /// Drain after the slice's run_until.
  void drain(Time now) {
    if (!connected()) return;
    const bool in_epoch = epoch_open_ && now >= epoch_start_ && now < epoch_end_;
    bool got = false;
    for (;;) {
      std::optional<cmtos::transport::Osdu> o;
      {
        Span span("receive");
        o = sink_->receive();
      }
      if (!o) break;
      got = true;
      verify(*o);
      ++delivered_;
      delivered_bytes_ += static_cast<std::int64_t>(o->data.size());
      account(*o, now);
    }
    if (in_epoch) {
      ++ticks_;
      if (!got) ++empty_ticks_;
    }
  }

  void step(Sim& sim) {
    refill(sim.now());
    sim.run_for(kPumpSlice);
    drain(sim.now());
  }

  void open_epoch(Time start, Time end, Time grace_end) {
    epoch_open_ = true;
    epoch_start_ = start;
    epoch_end_ = end;
    grace_end_ = grace_end;
    epoch_first_seq_ = submitted_;
  }

  /// Adds the pump's epoch outcomes to `m`.
  void close_epoch(SimMetrics& m) const {
    const std::int64_t last = epoch_last_seq_ < 0 ? submitted_ : epoch_last_seq_;
    m.accepted += last - epoch_first_seq_;
    m.delivered += epoch_delivered_;
    m.late += late_;
    m.delay_ms.insert(m.delay_ms.end(), delay_ms_.begin(), delay_ms_.end());
    m.ticks += ticks_;
    m.empty_ticks += empty_ticks_;
    if (have_offset_) m.skew_max_ms = std::max(m.skew_max_ms, (max_off_ - min_off_) * 1e3);
  }

  void check(Checks& c) const {
    c.expect(connected(), "pump VC connected");
    c.expect(order_failures_ == 0, "pump OSDUs delivered in order without gaps");
    c.expect(length_failures_ == 0, "pump OSDUs have the submitted length");
    c.expect(content_failures_ == 0, "pump OSDUs have the submitted content");
    c.expect(delivered_ > 0, "pump delivered OSDUs");
  }

  double connect_ms() const { return connect_ms_; }
  std::int64_t delivered() const { return delivered_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  const cmtos::transport::VcStats* source_stats() const {
    return source_ != nullptr ? &source_->stats() : nullptr;
  }

 private:
  void verify(const cmtos::transport::Osdu& o) {
    if (static_cast<std::int64_t>(o.seq) != next_seq_) ++order_failures_;
    next_seq_ = static_cast<std::int64_t>(o.seq) + 1;
    const auto& want = frames_[o.seq % kPumpTemplates];
    if (o.data.size() != want.size()) {
      ++length_failures_;
    } else if (std::memcmp(o.data.data(), want.data(), want.size()) != 0) {
      ++content_failures_;
    }
  }

  void account(const cmtos::transport::Osdu& o, Time now) {
    if (!epoch_open_ || now > grace_end_) return;
    const auto seq = static_cast<std::int64_t>(o.seq);
    if (seq < epoch_first_seq_ || (epoch_last_seq_ >= 0 && seq >= epoch_last_seq_)) return;
    if (o.true_submit >= epoch_end_) return;
    ++epoch_delivered_;
    const Arrival& arr = arrivals_[o.seq % arrivals_.size()];
    const Time at = arr.seq == o.seq ? arr.time : now;
    const Duration delay = at - o.true_submit;
    if (delay > deadline_) ++late_;
    delay_ms_.push_back(cmtos::to_seconds(delay) * 1e3);
    // Offset from the nominal play-out clock: the stream's skew against a
    // perfect 250/s reference.
    const double off = cmtos::to_seconds(at) - static_cast<double>(seq) / kPumpRate;
    if (!have_offset_) {
      min_off_ = max_off_ = off;
      have_offset_ = true;
    }
    min_off_ = std::min(min_off_, off);
    max_off_ = std::max(max_off_, off);
  }

  cmtos::platform::Host& src_;
  cmtos::platform::Host& dst_;
  CountingUser src_user_, dst_user_;
  std::vector<cmtos::PayloadView> frames_;
  cmtos::transport::VcId vc_ = cmtos::transport::kInvalidVc;
  cmtos::transport::Connection* source_ = nullptr;
  cmtos::transport::Connection* sink_ = nullptr;
  Duration deadline_ = 0;
  double connect_ms_ = 0;
  struct Arrival {
    std::uint32_t seq = 0;
    Time time = 0;
  };
  std::array<Arrival, 256> arrivals_{};  // by seq; the receive ring holds 64

  std::int64_t submitted_ = 0;
  std::int64_t next_seq_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t delivered_bytes_ = 0;
  std::int64_t order_failures_ = 0;
  std::int64_t length_failures_ = 0;
  std::int64_t content_failures_ = 0;

  bool epoch_open_ = false;
  Time epoch_start_ = 0;
  Time epoch_end_ = 0;
  Time grace_end_ = 0;
  std::int64_t epoch_first_seq_ = 0;
  std::int64_t epoch_last_seq_ = -1;
  std::int64_t epoch_delivered_ = 0;
  std::int64_t late_ = 0;
  std::vector<double> delay_ms_;
  std::int64_t ticks_ = 0;
  std::int64_t empty_ticks_ = 0;
  bool have_offset_ = false;
  double min_off_ = 0;
  double max_off_ = 0;
};

}  // namespace perf
