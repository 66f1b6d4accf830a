// Per-peer heartbeat (transport/heartbeat.h): a lost resume cannot stall a
// rate-based source, and an idle, acknowledged VC costs no events and no
// packets.  The counts here are exact and deterministic, so a per-VC
// periodic timer creeping back in fails them.

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "fixtures.h"
#include "transport/heartbeat.h"
#include "transport/tpdu.h"

namespace cmtos::test {
namespace {

using transport::ConnectRequest;
using transport::Connection;
using transport::ErrorControl;
using transport::FeedbackTpdu;
using transport::HeartbeatTpdu;
using transport::kFeedbackPeriod;
using transport::TpduType;
using transport::TransportConfig;
using transport::VcId;

/// Interposes `drop` in front of node `n`'s handler for `proto`: packets it
/// returns true for never reach the transport entity.
void drop_at(platform::Platform& p, net::NodeId n, net::Proto proto,
             std::function<bool(const net::Packet&)> drop) {
  auto& node = p.network().node(n);
  net::Node::Handler inner = node.handler(proto);
  node.set_handler(proto, [inner, drop = std::move(drop)](net::Packet&& pkt) {
    if (!drop(pkt)) inner(std::move(pkt));
  });
}

std::int64_t link_packets(platform::Platform& p, net::NodeId from, net::NodeId to) {
  return p.network().link(from, to)->stats().packets_sent;
}

// ====================================================================
// Feedback loss: the resume is repeated until the source acks it
// ====================================================================

struct StalledPair {
  StalledPair() : src(w.a->entity), dst(w.b->entity) {
    w.a->entity.bind(10, &src);
    w.b->entity.bind(20, &dst);
    auto req = basic_request({w.a->id, 10}, {w.b->id, 20}, 50.0, 200);
    req.buffer_osdus = 4;
    vc = w.a->entity.t_connect_request(req);
    w.platform.run_until(100 * kMillisecond);
    source = w.a->entity.source(vc);
    sink = w.b->entity.sink(vc);
  }

  /// Opens a rate-based VC b→a whose data keeps flowing (one OSDU offered
  /// and everything read each millisecond), so a's sink keeps sending b
  /// feedback and b keeps answering with entry-less heartbeats.
  void add_reverse_stream() {
    w.b->entity.bind(30, &rev_src);
    w.a->entity.bind(40, &rev_dst);
    const VcId rev = w.b->entity.t_connect_request(
        basic_request({w.b->id, 30}, {w.a->id, 40}, 100.0, 200));
    w.platform.run_until(w.platform.scheduler().now() + 100 * kMillisecond);
    Connection* out = w.b->entity.source(rev);
    Connection* in = w.a->entity.sink(rev);
    ASSERT_NE(out, nullptr);
    ASSERT_NE(in, nullptr);
    pump = [out, in] {
      out->submit(std::vector<std::uint8_t>(200, 3));
      while (in->receive()) {
      }
    };
  }

  /// Keeps the send ring full while the sink application reads nothing,
  /// until the source has been silent for 200 ms.  Returns false if the
  /// source never stalls.
  bool stall() {
    std::int64_t last_sent = -1;
    Time quiet_since = 0;
    for (Time t = w.platform.scheduler().now(); t < 3 * kSecond; t += kMillisecond) {
      while (source->submit(std::vector<std::uint8_t>(200, 7))) {
      }
      if (pump) pump();
      w.platform.run_until(t);
      const std::int64_t sent = source->stats().tpdus_sent;
      if (sent != last_sent) {
        last_sent = sent;
        quiet_since = t;
      } else if (t - quiet_since >= 200 * kMillisecond) {
        return true;
      }
    }
    return false;
  }

  /// Frees the sink ring with `resume` and returns how long the source took
  /// to send its next data TPDU.
  std::optional<Duration> time_resume(const std::function<void()>& resume) {
    const std::int64_t sent = source->stats().tpdus_sent;
    const Time at = w.platform.scheduler().now();
    resume();
    for (Time t = at; t < at + kSecond; t += kMillisecond) {
      if (pump) pump();
      w.platform.run_until(t);
      if (source->stats().tpdus_sent != sent) return t - at;
    }
    return std::nullopt;
  }

  PairPlatform w;
  ScriptedUser src, dst;
  ScriptedUser rev_src{w.b->entity}, rev_dst{w.a->entity};
  std::function<void()> pump;  // the reverse stream, once added
  VcId vc = transport::kInvalidVc;
  Connection* source = nullptr;
  Connection* sink = nullptr;
};

/// True for a resume report: free ring slots again after the stall.
bool resumes(const FeedbackTpdu& fb) { return fb.free_slots > 0; }

TEST(HeartbeatFeedback, LostResumeFeedbackTpduIsRepairedByTheHeartbeat) {
  StalledPair s;
  ASSERT_NE(s.source, nullptr);
  ASSERT_NE(s.sink, nullptr);
  ASSERT_TRUE(s.stall()) << "a full sink must stall the rate-based source";

  // A sink flush empties the ring and sends the resume as an immediate
  // FeedbackTpdu; lose exactly that one.
  int dropped = 0;
  drop_at(s.w.platform, s.w.a->id, net::Proto::kTransportData, [&](const net::Packet& p) {
    if (transport::peek_type(p.payload) != TpduType::kFB) return false;
    const auto fb = FeedbackTpdu::decode(p.payload);
    if (!fb || !resumes(*fb) || dropped > 0) return false;
    ++dropped;
    return true;
  });
  const auto resume = s.time_resume([&] { s.sink->flush(); });
  EXPECT_EQ(dropped, 1);
  ASSERT_TRUE(resume.has_value()) << "the source never resumed";
  EXPECT_LE(*resume, 3 * kFeedbackPeriod);
}

TEST(HeartbeatFeedback, LostResumeHeartbeatIsRepeatedUntilAcked) {
  StalledPair s;
  ASSERT_NE(s.source, nullptr);
  ASSERT_TRUE(s.stall());

  // The application drains the ring.  The space-available FeedbackTpdu
  // fires on the first read (the backlog refills the ring, so it still says
  // full) and is lost anyway; the first heartbeat that carries the resume
  // is lost too.  The next heartbeat must still carry it.
  int dropped_fb = 0, dropped_hb = 0;
  drop_at(s.w.platform, s.w.a->id, net::Proto::kTransportData, [&](const net::Packet& p) {
    const auto type = transport::peek_type(p.payload);
    if (type == TpduType::kFB) return ++dropped_fb, true;
    if (type == TpduType::kHB && dropped_hb == 0) {
      const auto hb = HeartbeatTpdu::decode(p.payload);
      if (hb && !hb->feedback.empty() && resumes(hb->feedback.front()))
        return ++dropped_hb, true;
    }
    return false;
  });
  const auto resume = s.time_resume([&] {
    while (s.sink->receive()) {
    }
  });
  EXPECT_EQ(dropped_fb, 1);
  EXPECT_EQ(dropped_hb, 1);
  ASSERT_TRUE(resume.has_value()) << "a lost resume stalled the source";
  EXPECT_GT(*resume, kFeedbackPeriod);
  EXPECT_LE(*resume, 3 * kFeedbackPeriod);
}

TEST(HeartbeatFeedback, LostResumeIsNotAckedByTheSinkSidesOwnHeartbeats) {
  // a also sinks a VC from b, so b acks a's feedback with entry-less
  // heartbeats that draw fresh seqs.  a echoing one of those must not count
  // as an ack of a resume it never received.
  StalledPair s;
  ASSERT_NE(s.source, nullptr);
  s.add_reverse_stream();
  ASSERT_TRUE(s.stall());

  // Lose the space-available FeedbackTpdu and the first two heartbeats that
  // carry the resume; meanwhile b's entry-less acks reach a.
  int dropped_fb = 0, dropped_hb = 0;
  drop_at(s.w.platform, s.w.a->id, net::Proto::kTransportData, [&](const net::Packet& p) {
    const auto type = transport::peek_type(p.payload);
    if (type == TpduType::kFB) {
      const auto fb = FeedbackTpdu::decode(p.payload);
      if (fb && fb->vc == s.vc) return ++dropped_fb, true;
    }
    if (type == TpduType::kHB && dropped_hb < 2) {
      const auto hb = HeartbeatTpdu::decode(p.payload);
      if (!hb) return false;
      for (const FeedbackTpdu& fb : hb->feedback)
        if (fb.vc == s.vc && resumes(fb)) return ++dropped_hb, true;
    }
    return false;
  });
  const auto resume = s.time_resume([&] {
    while (s.sink->receive()) {
    }
  });
  EXPECT_GE(dropped_fb, 1);
  EXPECT_EQ(dropped_hb, 2);
  ASSERT_TRUE(resume.has_value()) << "an ack of an entry-less heartbeat stalled the source";
  EXPECT_GT(*resume, 2 * kFeedbackPeriod);
  EXPECT_LE(*resume, 4 * kFeedbackPeriod);
}

// ====================================================================
// Idle cost: nothing per VC
// ====================================================================

/// One pair with `vcs` idle rate-based VCs (1 OSDU/s contract, nothing
/// submitted), opened one per millisecond, then settled until every VC's
/// first feedback report is acknowledged.
struct IdlePair {
  IdlePair(std::size_t vcs, const TransportConfig& tc) : w(fat_link()), src(w.a->entity),
                                                          dst(w.b->entity) {
    w.a->entity.set_config(tc);
    w.b->entity.set_config(tc);
    w.a->entity.bind(10, &src);
    w.b->entity.bind(20, &dst);
    auto req = basic_request({w.a->id, 10}, {w.b->id, 20}, 1.0, 256);
    req.qos.worst.osdu_rate = 0.25;
    // No indication facility: an idle VC's monitor must not emit QI reports.
    req.service_class.error_control = ErrorControl::kNone;
    for (std::size_t i = 0; i < vcs; ++i) {
      w.a->entity.t_connect_request(req);
      w.platform.run_until(w.platform.scheduler().now() + kMillisecond);
    }
    w.platform.run_until(w.platform.scheduler().now() + 2 * kSecond);
  }

  static net::LinkConfig fat_link() {
    net::LinkConfig link = lan_link();
    link.bandwidth_bps = 100'000'000;
    return link;
  }

  /// Packets crossing the link in each direction over the next second.
  std::pair<std::int64_t, std::int64_t> packets_over_one_second() {
    auto& p = w.platform;
    const std::int64_t ab = link_packets(p, w.a->id, w.b->id);
    const std::int64_t ba = link_packets(p, w.b->id, w.a->id);
    p.run_until(p.scheduler().now() + kSecond);
    return {link_packets(p, w.a->id, w.b->id) - ab, link_packets(p, w.b->id, w.a->id) - ba};
  }

  PairPlatform w;
  ScriptedUser src, dst;
};

TEST(HeartbeatIdleCost, IdleVcsSendNothingWithLivenessOff) {
  constexpr std::size_t kVcs = 1000;
  IdlePair idle(kVcs, TransportConfig{});
  ASSERT_EQ(idle.src.confirms.size(), kVcs);
  EXPECT_EQ(idle.w.a->entity.heartbeat().peer_count(), 1u);
  EXPECT_EQ(idle.w.b->entity.heartbeat().peer_count(), 1u);

  const auto [ab, ba] = idle.packets_over_one_second();
  EXPECT_EQ(ab, 0);
  EXPECT_EQ(ba, 0);
  // Nothing per VC, and with liveness off nothing per peer either.
  EXPECT_EQ(idle.w.platform.scheduler().pending(), 0u);
}

TEST(HeartbeatIdleCost, LivenessHeartbeatsDoNotScaleWithVcCount) {
  TransportConfig tc;
  tc.keepalive_interval = 100 * kMillisecond;
  tc.peer_dead_after = 400 * kMillisecond;
  IdlePair one(1, tc);
  IdlePair many(1000, tc);
  ASSERT_EQ(one.src.confirms.size(), 1u);
  ASSERT_EQ(many.src.confirms.size(), 1000u);

  const auto [one_ab, one_ba] = one.packets_over_one_second();
  const auto [many_ab, many_ba] = many.packets_over_one_second();
  // One heartbeat per keepalive interval per direction, however many VCs.
  EXPECT_EQ(one_ab, 10);
  EXPECT_EQ(one_ba, 10);
  EXPECT_EQ(many_ab, one_ab);
  EXPECT_EQ(many_ba, one_ba);
  EXPECT_TRUE(many.src.disconnects.empty());
  EXPECT_TRUE(many.dst.disconnects.empty());
  // One heartbeat timer per peer direction, whatever the VC count.
  EXPECT_LE(many.w.platform.scheduler().pending(), 2u);
}

}  // namespace
}  // namespace cmtos::test
