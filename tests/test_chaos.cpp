// Chaos tests: deterministic fault injection (net/chaos + the platform
// fault model), transport liveness under node crash, RPC retry across
// transient partitions, tightened control-path timeouts, Gilbert–Elliott
// burst loss under a full orchestrated session, and orchestrator failover
// (orch/failover) — the acceptance scenario of the robustness milestone.

#include <gtest/gtest.h>

#include <optional>

#include "fixtures.h"
#include "obs/metrics.h"
#include "orch/failover.h"
#include "net/chaos.h"

namespace cmtos::test {
namespace {

using media::RenderConfig;
using media::RenderingSink;
using media::StoredMediaServer;
using media::TrackConfig;
using orch::OrchPolicy;
using transport::DisconnectReason;
using transport::TransportConfig;

// ====================================================================
// Chaos engine: replayability
// ====================================================================

/// Arms every FaultKind on a star whose links start with each storm field
/// off its default, checks both directions' LinkConfig during and after
/// each storm and the faults.injected{kind} counts, and returns the log.
/// The dup storm has start jitter, so the plan seed moves it.
std::vector<std::string> run_every_kind(std::uint64_t plan_seed) {
  const net::LinkConfig link{.jitter = 250 * kMicrosecond, .loss_rate = 0.01,
                             .bit_error_rate = 1e-7, .dup_rate = 0.02, .truncate_rate = 0.03,
                             .reorder_rate = 0.04, .reorder_window = 500 * kMicrosecond};
  StarPlatform star(4, link, 7);
  platform::Platform& p = star.platform;
  net::Network& net = p.network();
  const net::NodeId hub = star.hub->id;
  const net::NodeId l0 = star.leaves[0]->id;
  const net::NodeId l1 = star.leaves[1]->id;
  const net::NodeId l2 = star.leaves[2]->id;
  const net::NodeId l3 = star.leaves[3]->id;
  // An asymmetric link: a storm restores both directions from the
  // forward link's previous value.
  net.link(l3, hub)->set_loss_rate(0.05);

  net::ChaosPlan plan;
  plan.seed = plan_seed;
  plan.crash(100 * kMillisecond, l0)
      .restart(200 * kMillisecond, l0)
      .partition(300 * kMillisecond, hub, l1, 100 * kMillisecond)
      .heal(450 * kMillisecond, hub, l1)
      .isolate(500 * kMillisecond, l2, 100 * kMillisecond)
      .loss_storm(700 * kMillisecond, hub, l3, 0.25, 100 * kMillisecond)
      .jitter_storm(700 * kMillisecond, hub, l3, 3 * kMillisecond, 150 * kMillisecond)
      .corrupt_storm(900 * kMillisecond, hub, l0, 1e-5, 100 * kMillisecond)
      .reorder_storm(1000 * kMillisecond, hub, l1, 0.2, 4 * kMillisecond, 100 * kMillisecond)
      .dup_storm(1100 * kMillisecond, hub, l2, 0.1, 100 * kMillisecond)
      .truncate_storm(1300 * kMillisecond, l3, hub, 0.05, 100 * kMillisecond);
  plan.events[9].start_jitter = 20 * kMillisecond;

  const std::vector<std::pair<std::string, std::int64_t>> want_counts = {
      {"node_crash", 1},    {"node_restart", 1},  {"link_down", 1},     {"link_up", 2},
      {"node_isolate", 1},  {"node_heal", 1},     {"loss_storm", 1},    {"jitter_storm", 1},
      {"corrupt_storm", 1}, {"reorder_storm", 1}, {"dup_storm", 1},     {"truncate_storm", 1}};
  auto injected = [](const std::string& kind) {
    return obs::Registry::global().counter("faults.injected", {{"kind", kind}}).value();
  };
  std::vector<std::int64_t> before;
  for (const auto& [kind, n] : want_counts) before.push_back(injected(kind));

  net::ChaosEngine engine(net);
  engine.arm(plan);
  using C = net::LinkConfig;
  // Both directions of hub<->leaf hold `want` in `field` at time t.
  auto expect_at = [&](Time t, net::NodeId leaf, auto C::*field, auto want) {
    p.scheduler().at(t, [&net, hub, leaf, field, want, t] {
      EXPECT_EQ(net.link(hub, leaf)->config().*field, want) << "t=" << t;
      EXPECT_EQ(net.link(leaf, hub)->config().*field, want) << "t=" << t;
    });
  };
  auto expect_up = [&](Time t, net::NodeId a, net::NodeId b, bool up) {
    p.scheduler().at(t, [&net, a, b, up] { EXPECT_EQ(net.link(a, b)->up(), up); });
  };
  p.scheduler().at(150 * kMillisecond, [&] { EXPECT_FALSE(p.node_alive(l0)); });
  p.scheduler().at(250 * kMillisecond, [&] { EXPECT_TRUE(p.node_alive(l0)); });
  expect_up(350 * kMillisecond, l1, hub, false);
  expect_up(420 * kMillisecond, hub, l1, true);
  expect_up(550 * kMillisecond, l2, hub, false);
  expect_up(650 * kMillisecond, l2, hub, true);
  expect_at(750 * kMillisecond, l3, &C::loss_rate, 0.25);
  expect_at(750 * kMillisecond, l3, &C::jitter, 3 * kMillisecond);
  expect_at(820 * kMillisecond, l3, &C::loss_rate, 0.01);
  expect_at(820 * kMillisecond, l3, &C::jitter, 3 * kMillisecond);
  expect_at(950 * kMillisecond, l3, &C::jitter, 250 * kMicrosecond);
  expect_at(950 * kMillisecond, l0, &C::bit_error_rate, 1e-5);
  expect_at(1050 * kMillisecond, l0, &C::bit_error_rate, 1e-7);
  expect_at(1050 * kMillisecond, l1, &C::reorder_rate, 0.2);
  expect_at(1050 * kMillisecond, l1, &C::reorder_window, 4 * kMillisecond);
  expect_at(1150 * kMillisecond, l1, &C::reorder_rate, 0.04);
  expect_at(1150 * kMillisecond, l1, &C::reorder_window, 500 * kMicrosecond);
  expect_at(1150 * kMillisecond, l2, &C::dup_rate, 0.1);
  expect_at(1350 * kMillisecond, l2, &C::dup_rate, 0.02);
  expect_at(1350 * kMillisecond, l3, &C::truncate_rate, 0.05);
  expect_at(1450 * kMillisecond, l3, &C::truncate_rate, 0.03);
  // Only the fields a storm set move; the rest of the link is untouched.
  expect_at(1450 * kMillisecond, l3, &C::dup_rate, 0.02);
  expect_at(1450 * kMillisecond, l3, &C::bit_error_rate, 1e-7);
  p.run_until(2 * kSecond);

  EXPECT_EQ(engine.injected(), 13);  // heals count; storm restores do not
  for (std::size_t i = 0; i < want_counts.size(); ++i)
    EXPECT_EQ(injected(want_counts[i].first) - before[i], want_counts[i].second)
        << want_counts[i].first;
  return engine.log();
}

TEST(ChaosEngine, SameSeedReproducesIdenticalFaultTrace) {
  EXPECT_EQ(run_every_kind(11), run_every_kind(11));
}

TEST(ChaosEngine, DifferentSeedMovesJitteredStartTimes) {
  EXPECT_NE(run_every_kind(11), run_every_kind(12));
}

/// The fault log, number formatting included, pinned to a literal.
TEST(ChaosEngine, GoldenFaultLogCoversEveryKind) {
  const std::vector<std::string> want = {
      "t=100000000 node_crash node=1",
      "t=200000000 node_restart node=1",
      "t=300000000 link_down link=0<->2",
      "t=400000000 link_up link=0<->2",
      "t=450000000 link_up link=0<->2",
      "t=500000000 node_isolate node=3",
      "t=600000000 node_heal node=3",
      "t=700000000 loss_storm link=0<->4 loss=0.250000",
      "t=700000000 jitter_storm link=0<->4 jitter=3000000",
      "t=800000000 loss_storm link=0<->4 restored loss=0.010000",
      "t=850000000 jitter_storm link=0<->4 restored jitter=250000",
      "t=900000000 corrupt_storm link=0<->1 ber=0.000010",
      "t=1000000000 reorder_storm link=0<->2 rate=0.200000 window=4000000",
      "t=1000000000 corrupt_storm link=0<->1 restored ber=0.000000",
      "t=1100000000 reorder_storm link=0<->2 restored reorder=0.040000",
      "t=1119562582 dup_storm link=0<->3 rate=0.100000",
      "t=1219562582 dup_storm link=0<->3 restored dup=0.020000",
      "t=1300000000 truncate_storm link=4<->0 rate=0.050000",
      "t=1400000000 truncate_storm link=4<->0 restored trunc=0.030000",
  };
  EXPECT_EQ(run_every_kind(3), want);
}

/// Storms of one field overlapping on one link: the most recently started
/// storm still running sets the value, and the pre-storm value returns
/// when the last one ends, on both directions.
TEST(ChaosEngine, OverlappingStormsOnOneLinkRestoreThePreStormValue) {
  StarPlatform star(1, lan_link(), 7);
  net::Network& net = star.platform.network();
  const net::NodeId hub = star.hub->id;
  const net::NodeId l0 = star.leaves[0]->id;

  net::ChaosPlan plan;
  // Staggered: the first storm ends while the second still runs.
  plan.loss_storm(100 * kMillisecond, hub, l0, 0.3, 200 * kMillisecond)
      .loss_storm(200 * kMillisecond, hub, l0, 0.5, 200 * kMillisecond)
      .jitter_storm(100 * kMillisecond, hub, l0, 5 * kMillisecond, 200 * kMillisecond)
      .jitter_storm(200 * kMillisecond, l0, hub, 9 * kMillisecond, 200 * kMillisecond)
      // Nested: the later storm ends first, and the outer one takes over.
      .loss_storm(1000 * kMillisecond, hub, l0, 0.3, 300 * kMillisecond)
      .loss_storm(1100 * kMillisecond, l0, hub, 0.5, 100 * kMillisecond);
  net::ChaosEngine engine(star.platform.network());
  engine.arm(plan);

  auto expect_link = [&](Time t, double loss, Duration jitter) {
    star.platform.run_until(t);
    for (const net::Link* l : {net.link(hub, l0), net.link(l0, hub)})
      EXPECT_TRUE(l->config().loss_rate == loss && l->config().jitter == jitter) << "t=" << t;
  };
  expect_link(150 * kMillisecond, 0.3, 5 * kMillisecond);
  expect_link(250 * kMillisecond, 0.5, 9 * kMillisecond);
  expect_link(350 * kMillisecond, 0.5, 9 * kMillisecond);
  expect_link(450 * kMillisecond, 0.0, 0);
  expect_link(1050 * kMillisecond, 0.3, 0);
  expect_link(1150 * kMillisecond, 0.5, 0);
  expect_link(1250 * kMillisecond, 0.3, 0);
  expect_link(1350 * kMillisecond, 0.0, 0);
  EXPECT_EQ(engine.injected(), 6);
}

// ====================================================================
// Transport liveness
// ====================================================================

TEST(TransportLiveness, CrashedPeerTearsDownVcWithPeerDead) {
  PairPlatform w;
  TransportConfig tc;
  tc.keepalive_interval = 100 * kMillisecond;
  tc.peer_dead_after = 400 * kMillisecond;
  w.a->entity.set_config(tc);
  w.b->entity.set_config(tc);

  ScriptedUser src(w.a->entity), dst(w.b->entity);
  w.a->entity.bind(10, &src);
  w.b->entity.bind(20, &dst);
  w.a->entity.t_connect_request(basic_request({w.a->id, 10}, {w.b->id, 20}));
  w.platform.run_until(500 * kMillisecond);
  ASSERT_EQ(src.confirms.size(), 1u);
  EXPECT_GT(w.platform.network().reserved_on(w.a->id, w.b->id), 0);

  w.platform.network().set_node_up(w.b->id, false);
  w.platform.run_until(2 * kSecond);

  // The crashed side's user heard its own stack die ...
  ASSERT_EQ(dst.disconnects.size(), 1u);
  EXPECT_EQ(dst.disconnects[0].second, DisconnectReason::kEntityFailure);
  // ... and the surviving endpoint noticed the silence, freed the VC and
  // returned the reservation.
  ASSERT_EQ(src.disconnects.size(), 1u);
  EXPECT_EQ(src.disconnects[0].second, DisconnectReason::kPeerDead);
  EXPECT_EQ(w.platform.network().reserved_on(w.a->id, w.b->id), 0);
}

TEST(TransportLiveness, DisabledByDefault) {
  PairPlatform w;
  ScriptedUser src(w.a->entity), dst(w.b->entity);
  w.a->entity.bind(10, &src);
  w.b->entity.bind(20, &dst);
  w.a->entity.t_connect_request(basic_request({w.a->id, 10}, {w.b->id, 20}));
  w.platform.run_until(500 * kMillisecond);
  ASSERT_EQ(src.confirms.size(), 1u);

  w.platform.network().set_node_up(w.b->id, false);
  w.platform.run_until(5 * kSecond);
  // peer_dead_after = 0: no keepalives, no liveness verdict — the survivor
  // never learns (the historical behaviour, unchanged by default).
  EXPECT_TRUE(src.disconnects.empty());
}

/// A liveness-enabled pair (heartbeat every 100 ms, dead after 400 ms) with
/// one idle VC a -> b established by t = 500 ms.
struct LivePair {
  LivePair() : src(w.a->entity), dst(w.b->entity) {
    TransportConfig tc;
    tc.keepalive_interval = 100 * kMillisecond;
    tc.peer_dead_after = 400 * kMillisecond;
    w.a->entity.set_config(tc);
    w.b->entity.set_config(tc);
    w.a->entity.bind(10, &src);
    w.b->entity.bind(20, &dst);
    vc = w.a->entity.t_connect_request(basic_request({w.a->id, 10}, {w.b->id, 20}));
    w.platform.run_until(500 * kMillisecond);
  }
  PairPlatform w;
  ScriptedUser src, dst;
  transport::VcId vc = transport::kInvalidVc;
};

TEST(TransportLiveness, PeerRestartBeforeDeadlineTearsDownThroughIncarnation) {
  LivePair p;
  ASSERT_EQ(p.src.confirms.size(), 1u);
  p.w.platform.network().set_node_up(p.w.b->id, false);
  p.w.platform.run_until(550 * kMillisecond);
  p.w.platform.network().set_node_up(p.w.b->id, true);
  // The survivor last heard b at ~500 ms, so silence alone could not
  // condemn the VC before ~900 ms: the restarted entity's new incarnation
  // on its first heartbeat reply does it.
  p.w.platform.run_until(800 * kMillisecond);
  ASSERT_EQ(p.src.disconnects.size(), 1u);
  EXPECT_EQ(p.src.disconnects[0].second, DisconnectReason::kPeerDead);
  EXPECT_EQ(p.w.a->entity.source(p.vc), nullptr);
  EXPECT_EQ(p.w.platform.network().reserved_on(p.w.a->id, p.w.b->id), 0);
}

TEST(TransportLiveness, DroppedDrHalfOpenVcTornDownWithinDeadlinePlusInterval) {
  LivePair p;
  ASSERT_EQ(p.src.confirms.size(), 1u);
  // Lose the DR on the wire: b keeps a half-open sink.
  auto& node_b = p.w.platform.network().node(p.w.b->id);
  net::Node::Handler control = node_b.handler(net::Proto::kTransportControl);
  int dropped = 0;
  node_b.set_handler(net::Proto::kTransportControl, [&, control](net::Packet&& pkt) {
    const auto t = transport::ControlTpdu::decode(pkt.payload);
    if (t && t->type == transport::TpduType::kDR && dropped == 0) {
      ++dropped;
      return;
    }
    control(std::move(pkt));
  });
  const Time closed = p.w.platform.scheduler().now();
  p.w.a->entity.t_disconnect_request(p.vc);
  p.w.platform.run_until(closed + 300 * kMillisecond);
  ASSERT_EQ(dropped, 1);
  EXPECT_NE(p.w.b->entity.sink(p.vc), nullptr);  // still half-open
  EXPECT_TRUE(p.dst.disconnects.empty());

  // The heartbeats' VC digests disagree; once that has lasted
  // peer_dead_after the peers exchange id lists and b drops the orphan.
  p.w.platform.run_until(closed + 400 * kMillisecond + 100 * kMillisecond);
  ASSERT_EQ(p.dst.disconnects.size(), 1u);
  EXPECT_EQ(p.dst.disconnects[0].second, DisconnectReason::kPeerDead);
  EXPECT_EQ(p.w.b->entity.sink(p.vc), nullptr);
}

TEST(TransportLiveness, PartitionShorterThanDeadlineTearsNothingDown) {
  LivePair p;
  ASSERT_EQ(p.src.confirms.size(), 1u);
  // Heartbeats flow every 100 ms each way, so a 150 ms cut leaves at most
  // ~350 ms of silence: under peer_dead_after.
  p.w.platform.network().set_link_up(p.w.a->id, p.w.b->id, false);
  p.w.platform.run_until(650 * kMillisecond);
  p.w.platform.network().set_link_up(p.w.a->id, p.w.b->id, true);
  p.w.platform.run_until(3 * kSecond);
  EXPECT_TRUE(p.src.disconnects.empty());
  EXPECT_TRUE(p.dst.disconnects.empty());
  EXPECT_NE(p.w.a->entity.source(p.vc), nullptr);
  EXPECT_NE(p.w.b->entity.sink(p.vc), nullptr);
}

// ====================================================================
// Tightened orchestration-op timeout (the knob was a hardcoded constant)
// ====================================================================

TEST(ControlTimeouts, TightenedOrchOpTimeoutFailsFast) {
  StarPlatform star(2, lan_link(), 5);
  auto* a = star.leaves[0];
  auto* b = star.leaves[1];
  star.platform.network().set_node_up(b->id, false);
  a->llo.set_op_timeout(300 * kMillisecond);

  std::optional<bool> ok;
  orch::OrchReason reason = orch::OrchReason::kOk;
  a->llo.orch_request(1, std::vector<orch::OrchVcInfo>{{7, a->id, b->id}},
                      [&](bool o, orch::OrchReason r) {
                        ok = o;
                        reason = r;
                      });
  star.platform.run_until(250 * kMillisecond);
  EXPECT_FALSE(ok.has_value());  // still collecting acks
  star.platform.run_until(kSecond);
  ASSERT_TRUE(ok.has_value());  // default budget would be 5 s
  EXPECT_FALSE(*ok);
  EXPECT_EQ(reason, orch::OrchReason::kTimeout);
}

// ====================================================================
// Orchestrator failover
// ====================================================================

/// hub + four leaves; three orchestrated streams laid out so that the
/// elected orchestrating node (wsC: touches two VCs, both as sink) is NOT
/// an endpoint of every VC — s1 survives its death:
///
///   s1: srv1 -> wsB      (the survivor)
///   s2: srv1 -> wsC
///   s3: srv2 -> wsC
struct FailoverWorld {
  explicit FailoverWorld(orch::FailoverConfig fc = {200 * kMillisecond, kSecond})
      : star(4, lan_link(), 20260805) {
    srv1 = star.leaves[0];
    wsB = star.leaves[1];
    wsC = star.leaves[2];
    srv2 = star.leaves[3];
    p = &star.platform;

    TransportConfig tc;
    tc.keepalive_interval = 200 * kMillisecond;
    tc.peer_dead_after = 800 * kMillisecond;
    for (auto* h : {star.hub, srv1, wsB, wsC, srv2}) h->entity.set_config(tc);

    platform::VideoQos vq;
    vq.frames_per_second = 25;

    server1 = std::make_unique<StoredMediaServer>(*p, *srv1, "srv1");
    TrackConfig t1;
    t1.track_id = 1;
    t1.auto_start = false;
    t1.vbr.base_bytes = vq.frame_bytes();
    t1.vbr.gop = 0;
    t1.vbr.wobble = 0;
    TrackConfig t2 = t1;
    t2.track_id = 2;
    src1 = server1->add_track(100, t1);
    src2 = server1->add_track(101, t2);
    server2 = std::make_unique<StoredMediaServer>(*p, *srv2, "srv2");
    TrackConfig t3 = t1;
    t3.track_id = 3;
    src3 = server2->add_track(102, t3);

    RenderConfig r1;
    r1.expect_track = 1;
    sink1 = std::make_unique<RenderingSink>(*p, *wsB, 200, r1);
    RenderConfig r2;
    r2.expect_track = 2;
    sink2 = std::make_unique<RenderingSink>(*p, *wsC, 201, r2);
    RenderConfig r3;
    r3.expect_track = 3;
    sink3 = std::make_unique<RenderingSink>(*p, *wsC, 202, r3);

    s1 = std::make_unique<platform::Stream>(*p, *srv1, "s1");
    s2 = std::make_unique<platform::Stream>(*p, *srv1, "s2");
    s3 = std::make_unique<platform::Stream>(*p, *srv2, "s3");
    int connected = 0;
    auto on_conn = [&](bool ok, auto) { connected += ok; };
    s1->set_buffer_osdus(8);
    s2->set_buffer_osdus(8);
    s3->set_buffer_osdus(8);
    s1->connect(src1, {wsB->id, 200}, vq, {}, on_conn);
    s2->connect(src2, {wsC->id, 201}, vq, {}, on_conn);
    s3->connect(src3, {wsC->id, 202}, vq, {}, on_conn);
    p->run_until(500 * kMillisecond);
    EXPECT_EQ(connected, 3);

    OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    policy.allow_no_common_node = true;
    bool established = false;
    auto session = p->orchestrator().orchestrate(
        {s1->orch_spec(2), s2->orch_spec(2), s3->orch_spec(2)}, policy,
        [&](bool ok, orch::OrchReason) { established = ok; });
    EXPECT_NE(session, nullptr);
    if (session == nullptr) return;
    EXPECT_EQ(session->orchestrating_node(), wsC->id);
    p->run_until(kSecond);
    EXPECT_TRUE(established);

    supervisor = std::make_unique<orch::FailoverSupervisor>(
        p->scheduler(), p->orchestrator(),
        [this](net::NodeId n) { return &p->host(n).llo; },
        [this](net::NodeId n) { return p->node_alive(n); }, fc);
    supervisor->watch(std::move(session));

    bool primed = false, started = false;
    supervisor->session()->prime(false, [&](bool ok, auto) { primed = ok; });
    p->run_until(2500 * kMillisecond);
    EXPECT_TRUE(primed);
    supervisor->session()->start([&](bool ok, auto) { started = ok; });
    p->run_until(3 * kSecond);
    EXPECT_TRUE(started);
  }

  std::int64_t surviving_intervals() {
    const auto& st = supervisor->session()->agent().status();
    auto it = st.find(s1->vc());
    return it == st.end() ? -1 : it->second.intervals;
  }

  StarPlatform star;
  platform::Platform* p = nullptr;
  platform::Host* srv1 = nullptr;
  platform::Host* wsB = nullptr;
  platform::Host* wsC = nullptr;
  platform::Host* srv2 = nullptr;
  std::unique_ptr<StoredMediaServer> server1, server2;
  std::unique_ptr<RenderingSink> sink1, sink2, sink3;
  std::unique_ptr<platform::Stream> s1, s2, s3;
  std::unique_ptr<orch::FailoverSupervisor> supervisor;
  net::NetAddress src1, src2, src3;
};

TEST(Failover, OrchestratorDeathReElectsAndResumesSurvivors) {
  FailoverWorld w;
  w.p->run_until(5 * kSecond);
  const auto frames_before = w.sink1->stats().frames_rendered;
  EXPECT_GT(frames_before, 0);

  net::NodeId old_node = net::kInvalidNode, new_node = net::kInvalidNode;
  w.supervisor->set_on_failover([&](net::NodeId o, net::NodeId n) {
    old_node = o;
    new_node = n;
  });

  // Kill the orchestrating node mid-regulation, through the chaos engine so
  // the fault is logged and counted like any soak scenario.
  net::ChaosEngine engine(w.p->network());
  net::ChaosPlan plan;
  plan.crash(5 * kSecond + kMillisecond, w.wsC->id);
  engine.arm(plan);
  w.p->run_until(8 * kSecond);

  EXPECT_EQ(engine.injected(), 1);
  EXPECT_EQ(w.supervisor->failovers(), 1);
  EXPECT_FALSE(w.supervisor->orphaned());
  EXPECT_EQ(old_node, w.wsC->id);
  EXPECT_EQ(new_node, w.wsB->id);  // survivor's sink wins the re-election
  ASSERT_NE(w.supervisor->session(), nullptr);
  EXPECT_EQ(w.supervisor->session()->orchestrating_node(), w.wsB->id);

  // Only the surviving stream was rebuilt, and it is being re-regulated.
  auto& agent = w.supervisor->session()->agent();
  ASSERT_EQ(agent.streams().size(), 1u);
  EXPECT_EQ(agent.streams()[0].vc.vc, w.s1->vc());
  const auto intervals_mid = w.surviving_intervals();
  EXPECT_GT(intervals_mid, 0);

  // The stalled application heard Orch.Delayed at the surviving sink.
  EXPECT_GT(w.sink1->stats().delayed_indications, 0);

  // Playback continues across the outage and regulation keeps ticking.
  w.p->run_until(10 * kSecond);
  EXPECT_GT(w.sink1->stats().frames_rendered, frames_before);
  EXPECT_GT(w.surviving_intervals(), intervals_mid);
}

TEST(Failover, PartitionedOrchestratorDetectedByMissedReports) {
  // The node stays up (the liveness oracle keeps saying "alive"), but the
  // partition starves the agent of regulate reports — the protocol-level
  // heartbeat — which must trigger the failover on its own.  A longer
  // agent_dead_after lets the transport-liveness layer prune the dead VCs
  // from the group first, so the re-election sees only the survivor.
  FailoverWorld w({200 * kMillisecond, 2 * kSecond});
  w.p->run_until(5 * kSecond);
  w.p->network().set_link_up(w.star.hub->id, w.wsC->id, false);
  w.p->run_until(12 * kSecond);

  EXPECT_EQ(w.supervisor->failovers(), 1);
  EXPECT_FALSE(w.supervisor->orphaned());
  ASSERT_NE(w.supervisor->session(), nullptr);
  EXPECT_EQ(w.supervisor->session()->orchestrating_node(), w.wsB->id);
  EXPECT_GT(w.surviving_intervals(), 0);
}

TEST(Failover, PartitionHealFencedStaleOrchestratorSelfRetires) {
  // The orchestrating node is isolated — alive, protocol state intact.  A
  // successor is elected at a bumped epoch while the old agent free-runs.
  // When the partition heals, the old agent's first regulate must bounce
  // off the endpoints' epoch fence, never reach the data path, and drive
  // the old agent into self-retirement.  This is the regression test for
  // the fencing layer: with set_fencing_enabled(false) (next test) the
  // same schedule produces an observable split brain.
  FailoverWorld w({200 * kMillisecond, 2 * kSecond});
  auto& registry = obs::Registry::global();
  auto& rejected =
      registry.counter("orch.stale_epoch_rejected", {{"node", std::to_string(w.wsB->id)}});
  auto& applied =
      registry.counter("orch.stale_target_applied", {{"node", std::to_string(w.wsB->id)}});
  auto& superseded =
      registry.counter("orch.superseded", {{"node", std::to_string(w.wsC->id)}});
  const auto rejected_before = rejected.value();
  const auto applied_before = applied.value();
  const auto superseded_before = superseded.value();

  w.p->run_until(5 * kSecond);
  w.p->network().set_node_isolated(w.wsC->id, true);
  w.p->run_until(10 * kSecond);

  // Mid-partition: successor elected at epoch 2, the partitioned
  // predecessor held (not destroyed — it is alive on the far side).
  EXPECT_EQ(w.supervisor->failovers(), 1);
  EXPECT_FALSE(w.supervisor->orphaned());
  ASSERT_NE(w.supervisor->session(), nullptr);
  EXPECT_EQ(w.supervisor->session()->orchestrating_node(), w.wsB->id);
  EXPECT_EQ(w.supervisor->session()->agent().epoch(), 2u);
  EXPECT_EQ(w.supervisor->superseded_count(), 1u);

  w.p->network().set_node_isolated(w.wsC->id, false);
  w.p->run_until(13 * kSecond);

  // Post-heal: the stale orchestrator was nacked, applied nothing, and
  // self-retired; the supervisor reaped the superseded session.
  EXPECT_GT(rejected.value(), rejected_before);
  EXPECT_EQ(applied.value(), applied_before);
  EXPECT_EQ(superseded.value(), superseded_before + 1);
  EXPECT_EQ(w.supervisor->superseded_count(), 0u);

  // Exactly one regulator owns the surviving VC at its sink: the new
  // orchestrating node, at the fence epoch.
  auto& sink_llo = w.p->host(w.wsB->id).llo;
  EXPECT_EQ(sink_llo.vc_regulator(w.s1->vc()), w.wsB->id);
  EXPECT_EQ(sink_llo.vc_epoch(w.s1->vc()), 2u);
  EXPECT_GT(w.surviving_intervals(), 0);
}

TEST(Failover, PartitionHealWithoutFencingShowsSplitBrain) {
  // Same schedule with the fence disabled: after the heal the stale
  // orchestrator's targets land beside the successor's — two regulators
  // steering one VC, which the stale-applied counter makes observable.
  FailoverWorld w({200 * kMillisecond, 2 * kSecond});
  for (auto* h : {w.star.hub, w.srv1, w.wsB, w.wsC, w.srv2})
    w.p->host(h->id).llo.set_fencing_enabled(false);
  auto& applied = obs::Registry::global().counter(
      "orch.stale_target_applied", {{"node", std::to_string(w.wsB->id)}});
  const auto applied_before = applied.value();

  w.p->run_until(5 * kSecond);
  w.p->network().set_node_isolated(w.wsC->id, true);
  w.p->run_until(10 * kSecond);
  EXPECT_EQ(w.supervisor->failovers(), 1);
  w.p->network().set_node_isolated(w.wsC->id, false);
  w.p->run_until(13 * kSecond);

  EXPECT_GT(applied.value(), applied_before);
  // Never nacked, so the stale agent never learns it was superseded and
  // the supervisor can never retire it.
  EXPECT_EQ(w.supervisor->superseded_count(), 1u);
}

TEST(Failover, RebuildRetriesWithBackoffUntilEndpointReachable) {
  // The orchestrating node dies while the surviving stream's source is
  // briefly unreachable: the first rebuild's Sess.req fan-out is lost and
  // the op times out.  The supervisor must not give up — it retries with
  // backoff and succeeds once the source is reachable again.  The source's
  // isolation stays under the transport liveness budget (800 ms) so the
  // surviving VC itself is never torn down.
  FailoverWorld w;
  w.p->host(w.wsB->id).llo.set_op_timeout(500 * kMillisecond);
  w.p->run_until(5 * kSecond);

  net::ChaosEngine engine(w.p->network());
  net::ChaosPlan plan;
  // Isolation starts now: a plan must not reach into the past.
  plan.isolate(5 * kSecond, w.srv1->id, 700 * kMillisecond);
  plan.crash(5 * kSecond + kMillisecond, w.wsC->id);
  engine.arm(plan);
  w.p->run_until(12 * kSecond);

  EXPECT_EQ(engine.injected(), 3);  // isolate + heal + crash
  EXPECT_EQ(w.supervisor->failovers(), 1);
  EXPECT_GE(w.supervisor->rebuild_retries(), 1);
  EXPECT_FALSE(w.supervisor->orphaned());
  ASSERT_NE(w.supervisor->session(), nullptr);
  EXPECT_EQ(w.supervisor->session()->orchestrating_node(), w.wsB->id);
  EXPECT_GT(w.surviving_intervals(), 0);
}

TEST(Failover, OrphansWhenNoStreamSurvives) {
  FailoverWorld w;
  w.p->run_until(5 * kSecond);

  net::NodeId new_node = w.wsB->id;  // sentinel: must be overwritten
  w.supervisor->set_on_failover(
      [&](net::NodeId, net::NodeId n) { new_node = n; });

  // srv1 + wsC dead kills an endpoint of every stream: nothing survives.
  w.p->network().set_node_up(w.wsC->id, false);
  w.p->network().set_node_up(w.srv1->id, false);
  w.p->run_until(8 * kSecond);

  EXPECT_EQ(w.supervisor->failovers(), 0);
  EXPECT_TRUE(w.supervisor->orphaned());
  EXPECT_EQ(new_node, net::kInvalidNode);
}

// ====================================================================
// Gilbert–Elliott burst loss under a full orchestrated session
// ====================================================================

TEST(BurstLoss, OrchestratedSessionSurvivesGilbertElliottBursts) {
  FailoverWorld w;
  w.p->run_until(5 * kSecond);
  const auto frames_before = w.sink2->stats().frames_rendered;
  const auto intervals_before = w.surviving_intervals();

  // Switch the inbound path to the orchestrating node to a bursty
  // Gilbert–Elliott channel: ~7% stationary loss arriving in clumps
  // (mean bad-state run of 4 packets at 80% loss).
  net::Link* lossy = w.p->network().link(w.star.hub->id, w.wsC->id);
  ASSERT_NE(lossy, nullptr);
  lossy->set_burst_loss(0.02, 0.25, 0.8);
  w.p->run_until(15 * kSecond);

  EXPECT_GT(lossy->stats().dropped_loss, 0);
  // The session rides out the bursts: no failover, no orphaning, delivery
  // and regulation both keep advancing.
  EXPECT_EQ(w.supervisor->failovers(), 0);
  EXPECT_FALSE(w.supervisor->orphaned());
  EXPECT_GT(w.sink2->stats().frames_rendered, frames_before);
  EXPECT_GT(w.surviving_intervals(), intervals_before + 20);
}

// ====================================================================
// Failover fleet: detection cost indexed by orchestrating node
// ====================================================================

/// Six single-stream sessions split across two sink workstations (the
/// orchestrating nodes): the fleet must watch them with O(nodes) work per
/// tick, and an outage must touch only the affected node's sessions.
struct FleetWorld {
  FleetWorld() : star(4, lan_link(), 17) {
    p = &star.platform;
    srv = star.leaves[0];
    ws_a = star.leaves[2];
    ws_b = star.leaves[3];
    server = std::make_unique<StoredMediaServer>(*p, *srv, "server");

    int connected = 0;
    for (int i = 0; i < 6; ++i) {
      platform::Host* ws = i < 3 ? ws_a : ws_b;
      TrackConfig track;
      track.track_id = static_cast<std::uint32_t>(i + 1);
      track.vbr.base_bytes = 512;
      const auto src = server->add_track(static_cast<net::Tsap>(100 + i), track);
      RenderConfig rc;
      rc.expect_track = track.track_id;
      sinks.push_back(std::make_unique<RenderingSink>(
          *p, *ws, static_cast<net::Tsap>(200 + i), rc));
      streams.push_back(
          std::make_unique<platform::Stream>(*p, *ws, "s" + std::to_string(i)));
      platform::VideoQos vq;
      vq.frames_per_second = 10;
      streams.back()->connect(src, {ws->id, static_cast<net::Tsap>(200 + i)},
                              platform::MediaQos{vq}, {},
                              [&](bool ok, auto) { connected += ok; });
    }
    p->run_until(kSecond);
    EXPECT_EQ(connected, 6);

    fleet = std::make_unique<orch::FailoverFleet>(
        p->scheduler(), p->orchestrator(),
        [this](net::NodeId n) { return &p->host(n).llo; },
        [this](net::NodeId n) { return p->node_alive(n); }, fc);
    OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    for (int i = 0; i < 6; ++i) {
      // Single source->sink stream: the sink-side tie-break elects the
      // workstation, so sessions bucket under ws_a and ws_b.
      auto session = p->orchestrator().orchestrate({streams[i]->orch_spec(2)}, policy,
                                                   nullptr);
      EXPECT_NE(session, nullptr);
      if (session == nullptr) continue;
      EXPECT_EQ(session->orchestrating_node(), (i < 3 ? ws_a : ws_b)->id);
      fleet->watch(std::move(session));
    }
    p->run_until(2 * kSecond);
  }

  orch::FailoverConfig fc;
  StarPlatform star;
  platform::Platform* p = nullptr;
  platform::Host* srv = nullptr;
  platform::Host* ws_a = nullptr;
  platform::Host* ws_b = nullptr;
  std::unique_ptr<StoredMediaServer> server;
  std::vector<std::unique_ptr<RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::unique_ptr<orch::FailoverFleet> fleet;
};

TEST(FailoverFleet, HealthyTicksCostZeroSessionPolls) {
  FleetWorld w;
  EXPECT_EQ(w.fleet->session_count(), 6u);
  EXPECT_EQ(w.fleet->indexed_nodes(), 2u);
  // Per tick the fleet probes the two orchestrating nodes (liveness +
  // rotating sentinel); with everything healthy no session is polled.
  EXPECT_EQ(w.fleet->last_tick_polls(), 0u);
  w.p->run_until(w.p->scheduler().now() + 3 * kSecond);
  EXPECT_EQ(w.fleet->last_tick_polls(), 0u);
  EXPECT_EQ(w.fleet->failovers(), 0);
  EXPECT_EQ(w.fleet->orphaned(), 0);
}

TEST(FailoverFleet, NodeDeathTouchesOnlyThatNodesSessions) {
  FleetWorld w;
  w.p->network().set_node_up(w.ws_a->id, false);
  w.p->run_until(w.p->scheduler().now() + 2 * kSecond);

  // ws_a's three sessions lose their only sink: detected and orphaned.
  // ws_b's three sessions must be untouched — detection fanned out to the
  // affected node only, and the poll gauge stays far below session count.
  EXPECT_EQ(w.fleet->orphaned(), 3);
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(w.fleet->supervisor(i).failovers(), 0) << "session " << i;
    EXPECT_FALSE(w.fleet->supervisor(i).orphaned()) << "session " << i;
  }
  EXPECT_LE(obs::Registry::global().gauge("orch.failover_poll_len").value(), 6.0);

  // After the outage drains, the dead node's bucket is gone and steady
  // state is back to zero session polls per tick.
  w.p->run_until(w.p->scheduler().now() + 2 * kSecond);
  EXPECT_EQ(w.fleet->indexed_nodes(), 1u);
  EXPECT_EQ(w.fleet->last_tick_polls(), 0u);
}

}  // namespace
}  // namespace cmtos::test
