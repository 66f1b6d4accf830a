// Tests for preemptive admission: importance classes, kPreempted delivery,
// reservation accounting after displacement, and the pending-connect
// cleanup that keeps a preempted Stream from hearing stale indications.

#include <gtest/gtest.h>

#include "fixtures.h"

namespace cmtos::test {
namespace {

using transport::DisconnectReason;
using transport::VcId;

TEST(Preempt, HigherImportanceDisplacesLower) {
  ContendedWorld w;
  const VcId va =
      w.s1->entity.t_connect_request(w.rigid_request({w.s1->id, 10}, {w.ws->id, 20}, 1));
  w.platform.run_until(300 * kMillisecond);
  ASSERT_EQ(w.u1->confirms.size(), 1u);
  const auto reserved_single = w.reserved_to_ws();

  const auto preempts_before =
      obs::Registry::global()
          .counter("admission.preempt", {{"node", std::to_string(w.s1->id)}})
          .value();
  const VcId vb =
      w.s2->entity.t_connect_request(w.rigid_request({w.s2->id, 11}, {w.ws->id, 21}, 5));
  w.platform.run_until(w.platform.scheduler().now() + 500 * kMillisecond);

  // The important connect was admitted at full preferred QoS...
  ASSERT_EQ(w.u2->confirms.size(), 1u);
  EXPECT_NEAR(w.u2->confirms[0].second.osdu_rate, 25.0, 1e-9);
  ASSERT_NE(w.s2->entity.source(vb), nullptr);
  // ...the background VC was displaced with the dedicated reason, at both
  // endpoints...
  ASSERT_EQ(w.u1->disconnects.size(), 1u);
  EXPECT_EQ(w.u1->disconnects[0].second, DisconnectReason::kPreempted);
  EXPECT_EQ(w.s1->entity.source(va), nullptr);
  EXPECT_EQ(w.ws->entity.sink(va), nullptr);
  // ...its reservation was returned in full (the survivor's identical QoS
  // reserves the same bandwidth), and the event was counted.
  EXPECT_EQ(w.reserved_to_ws(), reserved_single);
  EXPECT_GE(obs::Registry::global()
                .counter("admission.preempt", {{"node", std::to_string(w.s1->id)}})
                .value(),
            preempts_before + 1);
}

TEST(Preempt, EqualImportanceNeverPreempts) {
  ContendedWorld w;
  const VcId va =
      w.s1->entity.t_connect_request(w.rigid_request({w.s1->id, 10}, {w.ws->id, 20}, 3));
  w.platform.run_until(300 * kMillisecond);
  ASSERT_EQ(w.u1->confirms.size(), 1u);

  w.s2->entity.t_connect_request(w.rigid_request({w.s2->id, 11}, {w.ws->id, 21}, 3));
  w.platform.run_until(w.platform.scheduler().now() + 500 * kMillisecond);

  // The newcomer is refused outright; the incumbent is untouched.
  EXPECT_TRUE(w.u2->confirms.empty());
  ASSERT_EQ(w.u2->disconnects.size(), 1u);
  EXPECT_EQ(w.u2->disconnects[0].second, DisconnectReason::kNoResources);
  EXPECT_NE(w.s1->entity.source(va), nullptr);
  EXPECT_TRUE(w.u1->disconnects.empty());
}

TEST(Preempt, LowerImportanceCannotDisplaceHigher) {
  ContendedWorld w;
  const VcId va =
      w.s1->entity.t_connect_request(w.rigid_request({w.s1->id, 10}, {w.ws->id, 20}, 5));
  w.platform.run_until(300 * kMillisecond);
  ASSERT_EQ(w.u1->confirms.size(), 1u);

  w.s2->entity.t_connect_request(w.rigid_request({w.s2->id, 11}, {w.ws->id, 21}, 0));
  w.platform.run_until(w.platform.scheduler().now() + 500 * kMillisecond);

  ASSERT_EQ(w.u2->disconnects.size(), 1u);
  EXPECT_EQ(w.u2->disconnects[0].second, DisconnectReason::kNoResources);
  EXPECT_NE(w.s1->entity.source(va), nullptr);
}

TEST(Preempt, VictimIsTheLeastImportantOnTheContendedPath) {
  // Three-way: importance 0 and 2 share the thin link (each at a rate the
  // pair fits); an importance-5 arrival that displaces exactly one stream
  // must pick the importance-0 one.
  ContendedWorld w;
  auto small = [&](net::NetAddress src, net::NetAddress dst, std::uint8_t importance) {
    auto req = basic_request(src, dst, 12.0, 4096);  // ~0.42 Mbit/s + control
    req.qos.worst = req.qos.preferred;
    req.importance = importance;
    return req;
  };
  const VcId va = w.s1->entity.t_connect_request(small({w.s1->id, 10}, {w.ws->id, 20}, 0));
  const VcId vb = w.s2->entity.t_connect_request(small({w.s2->id, 11}, {w.ws->id, 21}, 2));
  w.platform.run_until(300 * kMillisecond);
  ASSERT_EQ(w.u1->confirms.size(), 1u);
  ASSERT_EQ(w.u2->confirms.size(), 1u);

  ScriptedUser u3(w.s1->entity);
  ScriptedUser w3(w.ws->entity);
  w.s1->entity.bind(12, &u3);
  w.ws->entity.bind(22, &w3);
  w.s1->entity.t_connect_request(small({w.s1->id, 12}, {w.ws->id, 22}, 5));
  w.platform.run_until(w.platform.scheduler().now() + 500 * kMillisecond);

  ASSERT_EQ(u3.confirms.size(), 1u);
  EXPECT_EQ(w.s1->entity.source(va), nullptr);  // importance 0: displaced
  EXPECT_NE(w.s2->entity.source(vb), nullptr);  // importance 2: survives
  ASSERT_EQ(w.u1->disconnects.size(), 1u);
  EXPECT_EQ(w.u1->disconnects[0].second, DisconnectReason::kPreempted);
}

// --- managed-stream indication hygiene (regression) ---
//
// A Stream is a distinct initiator co-located with the source entity; its
// connect runs the remote-connect loop-back path, which leaves an RCR
// retransmit timer pending until the initiator is notified.  That timer
// must die with the notification: a replay landing after the VC was
// preempted used to re-run admission on the now-full link and deliver a
// stale kNoResources on top of the kPreempted the Stream already handled.

TEST(Preempt, PreemptedStreamHearsExactlyOnePreemptIndication) {
  platform::Platform platform(42);
  auto& s1 = platform.add_host("s1");
  auto& hub = platform.add_host("hub");
  auto& ws = platform.add_host("ws");
  platform.network().add_link(s1.id, hub.id, lan_link());
  net::LinkConfig thin = lan_link();
  thin.bandwidth_bps = 1'666'667;  // one default video stream, not two
  platform.network().add_link(hub.id, ws.id, thin);
  platform.network().finalize_routes();

  ScriptedUser dev_a(s1.entity), dev_c(s1.entity);
  ScriptedUser sink_a(ws.entity), sink_c(ws.entity);
  s1.entity.bind(100, &dev_a);
  s1.entity.bind(102, &dev_c);
  ws.entity.bind(200, &sink_a);
  ws.entity.bind(202, &sink_c);

  platform::VideoQos vq;
  vq.frames_per_second = 25;

  platform::Stream a(platform, s1, "background");
  platform::Stream c(platform, s1, "critical");
  a.set_importance(0);
  c.set_importance(5);

  std::vector<DisconnectReason> a_reasons;
  a.set_on_disconnected([&](DisconnectReason r) { a_reasons.push_back(r); });

  bool a_ok = false;
  a.connect({s1.id, 100}, {ws.id, 200}, platform::MediaQos{vq}, {},
            [&](bool ok, auto) { a_ok = ok; });
  platform.run_until(500 * kMillisecond);
  ASSERT_TRUE(a_ok);

  bool c_ok = false;
  c.connect({s1.id, 102}, {ws.id, 202}, platform::MediaQos{vq}, {},
            [&](bool ok, auto) { c_ok = ok; });
  // Run well past the RCR retransmit window: a leaked retransmit would
  // replay the connect and surface a second, spurious indication.
  platform.run_until(platform.scheduler().now() + 4 * kSecond);

  EXPECT_TRUE(c_ok);
  EXPECT_TRUE(c.connected());
  ASSERT_EQ(a_reasons.size(), 1u);
  EXPECT_EQ(a_reasons[0], DisconnectReason::kPreempted);
  EXPECT_FALSE(a.connected());
}

// --- victim-search cost (scale regression) ---
//
// The importance-ordered preemption index must keep the victim scan
// proportional to the candidate classes below the requester, not to the
// total reservation population: at city scale the network holds thousands
// of unpreemptible (or high-class) reservations that a linear sweep would
// visit on every contended admission.

TEST(Preempt, VictimScanLengthIndependentOfReservationPopulation) {
  sim::Scheduler sched;
  net::Network net{sched, Rng(1)};
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net::LinkConfig cfg = lan_link();
  cfg.bandwidth_bps = 120'000'000;
  net.add_link(a, b, cfg);
  net.finalize_routes();

  // Fill the link with 1000 high-class annotated reservations plus two
  // low-class victims.  A full scan would visit ~1002 entries; the indexed
  // scan must visit only the two class-0 candidates.
  int preempted = 0;
  std::vector<net::ReservationId> victims;
  for (int i = 0; i < 2; ++i) {
    auto r = net.reserve(a, b, 100'000);
    ASSERT_TRUE(r.has_value());
    victims.push_back(*r);
    net.annotate_reservation(*r, 0, [&net, &preempted, id = *r] {
      ++preempted;
      net.release(id);
    });
  }
  std::int64_t bulk_total = 0;
  while (true) {
    auto r = net.reserve(a, b, 100'000);
    if (!r.has_value()) break;
    net.annotate_reservation(*r, 7, [] {});
    bulk_total += 100'000;
  }
  ASSERT_GT(bulk_total, 90'000'000);  // the link really is crowded

  // Class-5 admission for 60 kbit/s: one class-0 victim frees enough.
  EXPECT_TRUE(net.preempt_for(a, b, 60'000, 5));
  EXPECT_EQ(preempted, 1);
  const double scan =
      obs::Registry::global().gauge("admission.victim_scan_len").value();
  EXPECT_GE(scan, 1.0);
  EXPECT_LE(scan, 8.0) << "victim scan visited O(population) entries";

  // An admission that cannot be satisfied still only scans the lower
  // classes (here: the one remaining class-0 victim, swept or visited).
  EXPECT_FALSE(net.preempt_for(a, b, 60'000'000, 5));
  EXPECT_LE(obs::Registry::global().gauge("admission.victim_scan_len").value(),
            8.0);
}

}  // namespace
}  // namespace cmtos::test
