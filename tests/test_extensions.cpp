// Tests for the §7 future-work extensions: clock synchronisation within
// the orchestrator protocol, orchestration without a common node, and
// link-level priority queueing.

#include <gtest/gtest.h>

#include "fixtures.h"

namespace cmtos::test {
namespace {

using media::RenderConfig;
using media::RenderingSink;
using media::StoredMediaServer;
using media::TrackConfig;
using orch::ClockEstimate;
using orch::OrchPolicy;

// --------------------------------------------------------------------
// Clock synchronisation (§5 footnote)
// --------------------------------------------------------------------

TEST(ClockSync, EstimatesStaticOffset) {
  PairPlatform w(lan_link(), 5, sim::LocalClock{}, sim::LocalClock(250 * kMillisecond, 0));
  ClockEstimate est;
  bool done = false;
  w.a->llo.estimate_clock_offset(w.b->id, 8, [&](const ClockEstimate& e) {
    est = e;
    done = true;
  });
  w.platform.run_until(kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(est.probes_answered, 8);
  // True offset 250 ms; symmetric path, so the estimate is near-exact.
  EXPECT_NEAR(to_millis(est.offset), 250.0, 1.0);
  // Error bound = rtt/2 ~ (2 * (1 ms + serialisation)) / 2.
  EXPECT_LT(est.error_bound, 5 * kMillisecond);
  EXPECT_GE(est.error_bound, 1 * kMillisecond);
}

TEST(ClockSync, NegativeOffsetAndJitterTolerance) {
  net::LinkConfig link = lan_link();
  link.jitter = 5 * kMillisecond;  // asymmetric per-probe noise
  PairPlatform w(link, 5, sim::LocalClock{}, sim::LocalClock(-40 * kMillisecond, 0));
  ClockEstimate est;
  w.a->llo.estimate_clock_offset(w.b->id, 16, [&](const ClockEstimate& e) { est = e; });
  w.platform.run_until(2 * kSecond);
  EXPECT_EQ(est.probes_answered, 16);
  // min-RTT filtering keeps the error within the bound despite jitter.
  EXPECT_NEAR(to_millis(est.offset), -40.0, to_millis(est.error_bound) + 0.5);
}

TEST(ClockSync, UnreachablePeerTimesOutWithZeroProbes) {
  platform::Platform p;
  auto& a = p.add_host("a");
  auto& island = p.add_host("island");
  p.network().finalize_routes();
  ClockEstimate est;
  bool done = false;
  a.llo.estimate_clock_offset(island.id, 4, [&](const ClockEstimate& e) {
    est = e;
    done = true;
  });
  p.run_until(5 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(est.probes_answered, 0);
}

TEST(ClockSync, DriftingPeerOffsetGrows) {
  // +10000 ppm peer: after ~2 s its clock leads by ~20 ms.
  PairPlatform w(lan_link(), 5, sim::LocalClock{}, sim::LocalClock(0, 10000));
  w.platform.run_until(2 * kSecond);
  ClockEstimate est;
  w.a->llo.estimate_clock_offset(w.b->id, 4, [&](const ClockEstimate& e) { est = e; });
  w.platform.run_until(3 * kSecond);
  EXPECT_NEAR(to_millis(est.offset), 20.0, 2.0);
}

// --------------------------------------------------------------------
// Orchestration without a common node (§7)
// --------------------------------------------------------------------

TEST(NoCommonNode, RejectedByDefaultAllowedByPolicy) {
  // video: serverA -> wsA, audio: serverB -> wsB — no shared endpoint.
  platform::Platform p(404);
  auto& server_a = p.add_host("serverA", sim::LocalClock(0, 3000));
  auto& server_b = p.add_host("serverB", sim::LocalClock(0, -3000));
  auto& ws_a = p.add_host("wsA");
  auto& ws_b = p.add_host("wsB");
  auto& hub = p.add_host("hub");
  for (auto* h : {&server_a, &server_b, &ws_a, &ws_b})
    p.network().add_link(hub.id, h->id, lan_link());
  p.network().finalize_routes();

  platform::VideoQos vq;
  vq.frames_per_second = 25;
  platform::AudioQos aq;
  aq.blocks_per_second = 50;

  StoredMediaServer sa(p, server_a, "a");
  TrackConfig video;
  video.track_id = 1;
  video.auto_start = false;
  video.vbr.base_bytes = vq.frame_bytes();
  video.vbr.gop = 0;
  video.vbr.wobble = 0;
  const auto vsrc = sa.add_track(100, video);
  StoredMediaServer sb(p, server_b, "b");
  TrackConfig audio;
  audio.track_id = 2;
  audio.auto_start = false;
  audio.vbr.base_bytes = aq.block_bytes();
  audio.vbr.gop = 0;
  audio.vbr.wobble = 0;
  const auto asrc = sb.add_track(100, audio);

  RenderConfig vr;
  vr.expect_track = 1;
  RenderingSink vsink(p, ws_a, 200, vr);
  RenderConfig ar;
  ar.expect_track = 2;
  RenderingSink asink(p, ws_b, 200, ar);

  platform::Stream vstream(p, ws_a, "v"), astream(p, ws_b, "a");
  vstream.set_buffer_osdus(6);
  astream.set_buffer_osdus(6);
  vstream.connect(vsrc, {ws_a.id, 200}, vq, {}, nullptr);
  astream.connect(asrc, {ws_b.id, 200}, aq, {}, nullptr);
  p.run_until(500 * kMillisecond);
  ASSERT_TRUE(vstream.connected() && astream.connected());

  // Default policy: the initial-implementation restriction applies.
  auto rejected = p.orchestrator().orchestrate({vstream.orch_spec(2), astream.orch_spec(2)},
                                               OrchPolicy{}, nullptr);
  EXPECT_EQ(rejected, nullptr);

  // §7 extension: lift the restriction.
  OrchPolicy policy;
  policy.allow_no_common_node = true;
  policy.interval = 100 * kMillisecond;
  bool established = false;
  auto session = p.orchestrator().orchestrate({vstream.orch_spec(2), astream.orch_spec(2)},
                                              policy, [&](bool ok, auto) { established = ok; });
  ASSERT_NE(session, nullptr);
  p.run_until(kSecond);
  ASSERT_TRUE(established);

  // The whole machinery still works across four nodes: prime, atomic
  // start, continuous regulation against +/-3000 ppm differential drift.
  bool primed = false, started = false;
  session->prime(false, [&](bool ok, auto) { primed = ok; });
  p.run_until(3 * kSecond);
  ASSERT_TRUE(primed);
  session->start([&](bool ok, auto) { started = ok; });
  p.run_until(3500 * kMillisecond);
  ASSERT_TRUE(started);

  media::SyncMeter meter(p.scheduler());
  meter.add_stream("video", &vsink);
  meter.add_stream("audio", &asink);
  meter.begin(100 * kMillisecond);
  p.run_until(60 * kSecond);

  EXPECT_GT(vsink.stats().frames_rendered, 1000);
  EXPECT_GT(asink.stats().frames_rendered, 2000);
  // Free-running, 6000 ppm differential would reach ~340 ms over 56 s;
  // regulation keeps it bounded (start skew across distinct sinks adds a
  // little slack vs the common-node case).
  EXPECT_LT(meter.max_abs_skew_seconds(), 0.12);
}

// --------------------------------------------------------------------
// Link priority bands
// --------------------------------------------------------------------

TEST(Priority, ControlOvertakesBulkUnderCongestion) {
  sim::Scheduler sched;
  net::Network net(sched, Rng(1));
  net::LinkConfig slow;
  slow.bandwidth_bps = 800'000;  // 10 ms per 1000-byte packet
  slow.propagation_delay = 0;
  slow.queue_limit_packets = 64;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net.add_link(a, b, slow);
  net.finalize_routes();

  std::vector<std::pair<net::Priority, Time>> arrivals;
  net.node(b).set_handler(net::Proto::kTransportData, [&](net::Packet&& p) {
    arrivals.emplace_back(p.priority, sched.now());
  });

  // 20 bulk media packets first, then one control packet.
  for (int i = 0; i < 20; ++i) {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.proto = net::Proto::kTransportData;
    p.priority = net::Priority::kMedia;
    p.payload.assign(968, 0);
    net.send(std::move(p));
  }
  net::Packet ctl;
  ctl.src = a;
  ctl.dst = b;
  ctl.proto = net::Proto::kTransportData;
  ctl.priority = net::Priority::kControl;
  ctl.payload.assign(68, 0);
  net.send(std::move(ctl));
  sched.run();

  ASSERT_EQ(arrivals.size(), 21u);
  // The control packet jumped the 19 queued media packets (it waits only
  // for the frame already on the wire).
  std::size_t ctl_pos = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    if (arrivals[i].first == net::Priority::kControl) ctl_pos = i;
  EXPECT_LE(ctl_pos, 2u);
}

TEST(Priority, OverflowEvictsLowerBandFirst) {
  sim::Scheduler sched;
  net::Network net(sched, Rng(1));
  net::LinkConfig tiny;
  tiny.bandwidth_bps = 80'000;
  tiny.propagation_delay = 0;
  tiny.queue_limit_packets = 4;
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net.add_link(a, b, tiny);
  net.finalize_routes();

  int media = 0, controls = 0;
  net.node(b).set_handler(net::Proto::kTransportData, [&](net::Packet&& p) {
    if (p.priority == net::Priority::kMedia) ++media;
    if (p.priority == net::Priority::kControl) ++controls;
  });

  auto send = [&](net::Priority prio) {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.proto = net::Proto::kTransportData;
    p.priority = prio;
    p.payload.assign(100, 0);
    net.send(std::move(p));
  };
  // Fill the queue with media, then offer control packets: control packets
  // evict queued media (the frame already committed to the wire is
  // untouchable, so it holds one slot).
  for (int i = 0; i < 6; ++i) send(net::Priority::kMedia);
  for (int i = 0; i < 4; ++i) send(net::Priority::kControl);
  sched.run();
  EXPECT_GE(controls, 3);  // all but the slot pinned by the in-flight frame
  EXPECT_LE(media, 2);     // the committed one (and at most one survivor)
}

}  // namespace
}  // namespace cmtos::test
