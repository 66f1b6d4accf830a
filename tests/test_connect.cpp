// Connection management tests: Table 1 primitives, the Fig 2/3 remote
// connection facility, QoS option negotiation at establishment, rejection
// and timeout paths, release from both ends and remotely, and the
// reservation and indication accounting of every way a VC ends.

#include <gtest/gtest.h>

#include "fixtures.h"
#include "util/checksum.h"

namespace cmtos::test {
namespace {

using net::NetAddress;
using transport::DisconnectReason;
using transport::QosParams;
using transport::VcId;

struct ThreeHosts {
  ThreeHosts() : star(3) {}
  StarPlatform star;
  platform::Platform& p() { return star.platform; }
  platform::Host& h(std::size_t i) { return *star.leaves[i]; }
};

TEST(Connect, ConventionalEstablishment) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);

  const auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
  const VcId vc = w.h(0).entity.t_connect_request(req);
  ASSERT_NE(vc, transport::kInvalidVc);
  w.p().run_until(kSecond);

  // Destination saw the indication; source got the confirm.
  ASSERT_EQ(dst_user.connect_indications.size(), 1u);
  EXPECT_EQ(dst_user.connect_indications[0].vc, vc);
  ASSERT_EQ(src_user.confirms.size(), 1u);
  EXPECT_EQ(src_user.confirms[0].first, vc);
  EXPECT_NEAR(src_user.confirms[0].second.osdu_rate, 25.0, 1e-9);

  // Both endpoints exist with the right roles.
  ASSERT_NE(w.h(0).entity.source(vc), nullptr);
  ASSERT_NE(w.h(1).entity.sink(vc), nullptr);
  EXPECT_EQ(w.h(0).entity.source(vc)->state(), transport::VcState::kOpen);

  // A simplex VC reserves data bandwidth in one direction only (§3.1);
  // the reverse path carries just the internal control trickle.
  const auto fwd = w.p().network().reserved_on(w.h(0).id, w.star.hub->id);
  const auto rev = w.p().network().reserved_on(w.star.hub->id, w.h(0).id);
  EXPECT_GT(fwd, 10 * rev);
  EXPECT_EQ(rev, transport::TransportEntity::kControlVcBps);
}

TEST(Connect, RemoteConnectFig3Sequence) {
  // Initiator on host 2 connects TSAP A on host 0 to TSAP B on host 1.
  ThreeHosts w;
  ScriptedUser initiator(w.h(2).entity), src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(2).entity.bind(30, &initiator);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);

  auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
  req.initiator = {w.h(2).id, 30};
  const VcId vc = w.h(2).entity.t_connect_request(req);
  w.p().run_until(kSecond);

  // Fig 3: source gets T-Connect.indication, then dest; confirm reaches
  // BOTH the source user and the initiator (§3.5).
  ASSERT_EQ(src_user.connect_indications.size(), 1u);
  EXPECT_EQ(src_user.connect_indications[0].req.initiator, req.initiator);
  ASSERT_EQ(dst_user.connect_indications.size(), 1u);
  ASSERT_EQ(src_user.confirms.size(), 1u);
  ASSERT_EQ(initiator.confirms.size(), 1u);
  EXPECT_EQ(initiator.confirms[0].first, vc);

  ASSERT_NE(w.h(0).entity.source(vc), nullptr);
  ASSERT_NE(w.h(1).entity.sink(vc), nullptr);
}

TEST(Connect, RemoteConnectRejectedBySource) {
  ThreeHosts w;
  ScriptedUser initiator(w.h(2).entity), src_user(w.h(0).entity);
  src_user.accept_connects = false;
  w.h(2).entity.bind(30, &initiator);
  w.h(0).entity.bind(10, &src_user);

  auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
  req.initiator = {w.h(2).id, 30};
  w.h(2).entity.t_connect_request(req);
  w.p().run_until(kSecond);

  ASSERT_EQ(initiator.disconnects.size(), 1u);
  EXPECT_EQ(initiator.disconnects[0].second, DisconnectReason::kRejectedByUser);
}

TEST(Connect, RejectedByDestinationUser) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  dst_user.accept_connects = false;
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);

  const VcId vc = w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 20}));
  w.p().run_until(kSecond);

  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kRejectedByUser);
  EXPECT_EQ(w.h(0).entity.source(vc), nullptr);
  // Rejection released the reservation.
  EXPECT_EQ(w.p().network().reserved_on(w.h(0).id, w.star.hub->id), 0);
}

TEST(Connect, NoSuchTsapAtDestination) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 999}));
  w.p().run_until(kSecond);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kNoSuchTsap);
}

TEST(Connect, NonPositiveSamplePeriodIsRefused) {
  // The sink's QoS monitor steps by the sample period: a CR carrying a zero
  // or negative one is refused at the destination, not opened.
  for (const Duration period : {Duration{0}, -kMillisecond}) {
    ThreeHosts w;
    ScriptedUser src_user(w.h(0).entity);
    ScriptedUser dst_user(w.h(1).entity);
    w.h(0).entity.bind(10, &src_user);
    w.h(1).entity.bind(20, &dst_user);
    auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
    req.sample_period = period;
    const VcId vc = w.h(0).entity.t_connect_request(req);
    w.p().run_until(kSecond);
    EXPECT_TRUE(dst_user.connect_indications.empty());
    EXPECT_EQ(w.h(1).entity.sink(vc), nullptr);
    ASSERT_EQ(src_user.disconnects.size(), 1u);
    EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kProtocolError);
  }
}

TEST(Connect, NoSuchTsapAtSourceForRemoteConnect) {
  ThreeHosts w;
  ScriptedUser initiator(w.h(2).entity);
  w.h(2).entity.bind(30, &initiator);
  auto req = basic_request({w.h(0).id, 999}, {w.h(1).id, 20});
  req.initiator = {w.h(2).id, 30};
  w.h(2).entity.t_connect_request(req);
  w.p().run_until(kSecond);
  ASSERT_EQ(initiator.disconnects.size(), 1u);
  EXPECT_EQ(initiator.disconnects[0].second, DisconnectReason::kNoSuchTsap);
}

TEST(Connect, AdmissionDegradesRateTowardWorst) {
  // A thin link cannot carry the preferred rate but can carry the worst.
  net::LinkConfig thin = lan_link();
  thin.bandwidth_bps = 1'500'000;
  StarPlatform star(2, thin);
  auto& h0 = *star.leaves[0];
  auto& h1 = *star.leaves[1];
  ScriptedUser src_user(h0.entity), dst_user(h1.entity);
  h0.entity.bind(10, &src_user);
  h1.entity.bind(20, &dst_user);

  // Preferred 25 x 8 KiB ~= 4.4 Mbit/s: too much; worst 6.25/s fits.
  auto req = basic_request({h0.id, 10}, {h1.id, 20}, 25.0, 8192);
  h0.entity.t_connect_request(req);
  star.platform.run_until(kSecond);

  ASSERT_EQ(src_user.confirms.size(), 1u);
  const QosParams& agreed = src_user.confirms[0].second;
  EXPECT_LT(agreed.osdu_rate, 25.0);
  EXPECT_GE(agreed.osdu_rate, 25.0 / 4);
  EXPECT_LE(agreed.required_bps(),
            static_cast<std::int64_t>(1'500'000 * 0.9) + 1);
}

TEST(Connect, AdmissionRejectsWhenEvenWorstDoesNotFit) {
  net::LinkConfig tiny = lan_link();
  tiny.bandwidth_bps = 100'000;
  StarPlatform star(2, tiny);
  auto& h0 = *star.leaves[0];
  ScriptedUser src_user(h0.entity);
  h0.entity.bind(10, &src_user);

  h0.entity.t_connect_request(basic_request({h0.id, 10}, {star.leaves[1]->id, 20}, 25.0, 8192));
  star.platform.run_until(kSecond);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kNoResources);
}

TEST(Connect, DelayInfeasiblePathRejected) {
  net::LinkConfig slow = lan_link();
  slow.propagation_delay = 2 * kSecond;  // satellite from hell
  StarPlatform star(2, slow);
  auto& h0 = *star.leaves[0];
  ScriptedUser src_user(h0.entity);
  h0.entity.bind(10, &src_user);

  h0.entity.t_connect_request(basic_request({h0.id, 10}, {star.leaves[1]->id, 20}));
  star.platform.run_until(10 * kSecond);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kQosUnachievable);
}

TEST(Connect, DestinationMayNarrowOffer) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  QosParams narrowed;
  narrowed.osdu_rate = 12.5;
  narrowed.max_osdu_bytes = 4096;
  narrowed.end_to_end_delay = 500 * kMillisecond;
  narrowed.delay_jitter = 100 * kMillisecond;
  narrowed.packet_error_rate = 0.05;
  narrowed.bit_error_rate = 1e-4;
  dst_user.narrow = narrowed;
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);

  w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 20}));
  w.p().run_until(kSecond);

  ASSERT_EQ(src_user.confirms.size(), 1u);
  EXPECT_DOUBLE_EQ(src_user.confirms[0].second.osdu_rate, 12.5);
}

TEST(Connect, NarrowingOutsideToleranceIgnored) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  QosParams bogus;
  bogus.osdu_rate = 1000.0;  // more than offered: not a narrowing
  dst_user.narrow = bogus;
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);

  w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 20}));
  w.p().run_until(kSecond);
  ASSERT_EQ(src_user.confirms.size(), 1u);
  EXPECT_DOUBLE_EQ(src_user.confirms[0].second.osdu_rate, 25.0);
}

TEST(Connect, UnreachableDestinationTimesOut) {
  // Two unreachable destinations.  An island with no route is refused at
  // admission.  A crashed peer's link carries every CR: each retransmission
  // waits kHandshakeRetransmit stretched by up to kHandshakeJitter, so the
  // connect gives up after 1 + kHandshakeRetries CRs, within (2.0, 2.4) s:
  // the stretch pushes it past the unstretched 2.0 s.
  platform::Platform p;
  auto& a = p.add_host("a");
  auto& island = p.add_host("island");
  auto& b = p.add_host("b");
  p.network().add_link(a.id, b.id, {});
  p.network().finalize_routes();
  p.network().set_node_up(b.id, false);
  ScriptedUser src_user(a.entity);
  a.entity.bind(10, &src_user);
  a.entity.bind(11, &src_user);

  const VcId to_island = a.entity.t_connect_request(basic_request({a.id, 10}, {island.id, 20}));
  const VcId to_b = a.entity.t_connect_request(basic_request({a.id, 11}, {b.id, 20}));
  constexpr int kSends = 1 + transport::kHandshakeRetries;
  p.run_until(kSends * transport::kHandshakeRetransmit);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0], std::pair(to_island, DisconnectReason::kUnreachable));
  p.run_until(static_cast<Duration>(kSends * transport::kHandshakeRetransmit *
                                    (1 + transport::kHandshakeJitter)));
  ASSERT_EQ(src_user.disconnects.size(), 2u);
  EXPECT_EQ(src_user.disconnects[1], std::pair(to_b, DisconnectReason::kUnreachable));
  EXPECT_EQ(p.network().link(a.id, b.id)->stats().packets_sent, kSends);
}

TEST(Disconnect, SourceInitiatedReleasesBothEndsAndReservation) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);
  const VcId vc = w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 20}));
  w.p().run_until(kSecond);
  ASSERT_NE(w.h(0).entity.source(vc), nullptr);

  w.h(0).entity.t_disconnect_request(vc);
  w.p().run_until(2 * kSecond);
  EXPECT_EQ(w.h(0).entity.source(vc), nullptr);
  EXPECT_EQ(w.h(1).entity.sink(vc), nullptr);
  ASSERT_EQ(dst_user.disconnects.size(), 1u);
  EXPECT_EQ(w.p().network().reserved_on(w.h(0).id, w.star.hub->id), 0);
}

TEST(Disconnect, SinkInitiatedReleasesReservationAtSource) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);
  const VcId vc = w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(1).id, 20}));
  w.p().run_until(kSecond);

  w.h(1).entity.t_disconnect_request(vc);
  w.p().run_until(2 * kSecond);
  EXPECT_EQ(w.h(0).entity.source(vc), nullptr);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(w.p().network().reserved_on(w.h(0).id, w.star.hub->id), 0);
}

TEST(Disconnect, RemoteReleaseDeliversIndicationToEndpoint) {
  // §4.1.1: remote release puts a T-Disconnect.indication to the attached
  // application, which may then release the VC itself.
  ThreeHosts w;
  ScriptedUser initiator(w.h(2).entity), src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(2).entity.bind(30, &initiator);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);
  auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
  req.initiator = {w.h(2).id, 30};
  const VcId vc = w.h(2).entity.t_connect_request(req);
  w.p().run_until(kSecond);
  ASSERT_EQ(initiator.confirms.size(), 1u);

  w.h(2).entity.t_remote_disconnect_request(vc, {w.h(0).id, 10});
  w.p().run_until(1200 * kMillisecond);
  ASSERT_EQ(src_user.disconnects.size(), 1u);
  EXPECT_EQ(src_user.disconnects[0].second, DisconnectReason::kUserInitiated);
  // The source user honours it:
  w.h(0).entity.t_disconnect_request(vc);
  w.p().run_until(2 * kSecond);
  EXPECT_EQ(w.h(0).entity.source(vc), nullptr);
  EXPECT_EQ(w.h(1).entity.sink(vc), nullptr);
}

TEST(Connect, NodeLocalVcNeedsNoReservation) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(0).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(0).entity.bind(20, &dst_user);
  const VcId vc = w.h(0).entity.t_connect_request(basic_request({w.h(0).id, 10}, {w.h(0).id, 20}));
  w.p().run_until(kSecond);
  ASSERT_EQ(src_user.confirms.size(), 1u);
  ASSERT_NE(w.h(0).entity.source(vc), nullptr);
  ASSERT_NE(w.h(0).entity.sink(vc), nullptr);
  EXPECT_EQ(w.h(0).entity.source(vc)->reservation(), net::kNoReservation);
}

TEST(Connect, ConcurrentVcsGetDistinctIds) {
  ThreeHosts w;
  ScriptedUser src_user(w.h(0).entity), dst_user(w.h(1).entity);
  w.h(0).entity.bind(10, &src_user);
  w.h(1).entity.bind(20, &dst_user);
  const VcId v1 = w.h(0).entity.t_connect_request(
      basic_request({w.h(0).id, 10}, {w.h(1).id, 20}, 5.0, 1024));
  const VcId v2 = w.h(0).entity.t_connect_request(
      basic_request({w.h(0).id, 10}, {w.h(1).id, 20}, 5.0, 1024));
  EXPECT_NE(v1, v2);
  w.p().run_until(kSecond);
  EXPECT_EQ(src_user.confirms.size(), 2u);
  EXPECT_NE(w.h(0).entity.source(v1), nullptr);
  EXPECT_NE(w.h(0).entity.source(v2), nullptr);
}

TEST(Connect, InitiatorMustBeLocal) {
  ThreeHosts w;
  auto req = basic_request({w.h(0).id, 10}, {w.h(1).id, 20});
  // Issued at host 1 but claiming initiator on host 0.
  EXPECT_EQ(w.h(1).entity.t_connect_request(req), transport::kInvalidVc);
}

// ====================================================================
// Every way a VC or a pending connect ends returns both of its
// reservations (forward data + control allowance, reverse control
// trickle) and tells each local user exactly once.
// ====================================================================

/// The VC under test: s1:10 -> ws:20 at importance 1.
VcId connect(ContendedWorld& w) {
  return w.s1->entity.t_connect_request(w.rigid_request({w.s1->id, 10}, {w.ws->id, 20}, 1));
}

/// Establishes the VC under test and lets it settle.
VcId established(ContendedWorld& w) {
  const VcId vc = connect(w);
  w.platform.run_until(w.platform.scheduler().now() + 300 * kMillisecond);
  EXPECT_NE(w.s1->entity.source(vc), nullptr);
  return vc;
}

/// A class-5 connect s2:11 -> ws:21, which w2 refuses: it preempts the VC
/// under test at admission, then returns its own reservations.
void connect_important(ContendedWorld& w) {
  w.w2->accept_connects = false;
  w.s2->entity.t_connect_request(w.rigid_request({w.s2->id, 11}, {w.ws->id, 21}, 5));
}

using Reasons = std::vector<DisconnectReason>;

struct Ending {
  const char* name;
  void (*run)(ContendedWorld& w);
  Reasons at_u1, at_w1, at_u2;  // T-Disconnect.indications each user hears
};

std::ostream& operator<<(std::ostream& os, const Ending& e) { return os << e.name; }

const Ending kEndings[] = {
    {"SourceRelease",
     [](ContendedWorld& w) { w.s1->entity.t_disconnect_request(established(w)); },
     {DisconnectReason::kUserInitiated}, {DisconnectReason::kUserInitiated}, {}},
    {"SinkRelease",
     [](ContendedWorld& w) { w.ws->entity.t_disconnect_request(established(w)); },
     {DisconnectReason::kUserInitiated}, {DisconnectReason::kUserInitiated}, {}},
    {"PeerDead",
     [](ContendedWorld& w) {
       established(w);
       w.platform.network().set_link_up(w.hub->id, w.ws->id, false);
     },
     {DisconnectReason::kPeerDead}, {DisconnectReason::kPeerDead}, {}},
    {"QuarantineEscalation",
     [](ContendedWorld& w) {
       established(w);
       // CRC-valid control PDUs with an unknown type tag, "from" ws.
       for (int i = 0; i < 20; ++i) {
         net::Packet pkt;
         pkt.src = w.ws->id;
         pkt.dst = w.s1->id;
         pkt.proto = net::Proto::kTransportControl;
         pkt.priority = net::Priority::kControl;
         std::vector<std::uint8_t> body{99, 0xde, 0xad, 0xbe, 0xef};
         append_crc32(body);
         pkt.payload = std::move(body);
         w.platform.network().send(std::move(pkt));
       }
     },
     {DisconnectReason::kPeerMisbehaving}, {DisconnectReason::kPeerMisbehaving}, {}},
    {"Preemption",
     [](ContendedWorld& w) {
       established(w);
       connect_important(w);
     },
     {DisconnectReason::kPreempted}, {DisconnectReason::kPreempted},
     {DisconnectReason::kRejectedByUser}},
    // Preempted while its CR is in flight: the pending connect is aborted,
    // and the CC that still arrives draws a DR that removes the orphan sink.
    {"PreemptionWhileConnecting",
     [](ContendedWorld& w) {
       connect(w);
       connect_important(w);
     },
     {DisconnectReason::kPreempted}, {DisconnectReason::kProtocolError},
     {DisconnectReason::kRejectedByUser}},
    {"CrExhaustion",
     [](ContendedWorld& w) {
       w.platform.network().set_node_up(w.ws->id, false);
       connect(w);
     },
     {DisconnectReason::kUnreachable}, {}, {}},
    {"CcReject",
     [](ContendedWorld& w) {
       w.w1->accept_connects = false;
       connect(w);
     },
     {DisconnectReason::kRejectedByUser}, {}, {}},
    {"EntityCrash",
     [](ContendedWorld& w) {
       established(w);
       w.platform.network().set_node_up(w.s1->id, false);
     },
     {DisconnectReason::kEntityFailure}, {DisconnectReason::kPeerDead}, {}},
    // A conventional connect still awaiting its CC dies with the stack
    // unreported: crash() tells only remote-connect initiators.
    {"EntityCrashWhileConnecting",
     [](ContendedWorld& w) {
       w.platform.network().set_node_up(w.ws->id, false);
       connect(w);
       w.platform.run_until(w.platform.scheduler().now() + kSecond);
       w.platform.network().set_node_up(w.s1->id, false);
     },
     {}, {}, {}},
};

class Teardown : public ::testing::TestWithParam<Ending> {};

TEST_P(Teardown, ReturnsBothReservationsAndIndicatesOnce) {
  // Peer liveness on everywhere, so a silent peer is detected.
  ContendedWorld w;
  transport::TransportConfig tc;
  tc.keepalive_interval = 100 * kMillisecond;
  tc.peer_dead_after = 400 * kMillisecond;
  for (platform::Host* h : {w.s1, w.s2, w.hub, w.ws}) h->entity.set_config(tc);
  GetParam().run(w);
  w.platform.run_until(w.platform.scheduler().now() + 3 * kSecond);

  net::Network& network = w.platform.network();
  const std::pair<net::NodeId, net::NodeId> links[] = {
      {w.s1->id, w.hub->id}, {w.s2->id, w.hub->id}, {w.hub->id, w.ws->id}};
  for (const auto& [a, b] : links) {
    EXPECT_EQ(network.reserved_on(a, b), 0) << a << "->" << b;
    EXPECT_EQ(network.reserved_on(b, a), 0) << b << "->" << a;
  }
  const auto reasons = [](const ScriptedUser& u) {
    Reasons out;
    for (const auto& [vc, reason] : u.disconnects) out.push_back(reason);
    return out;
  };
  EXPECT_EQ(reasons(*w.u1), GetParam().at_u1);
  EXPECT_EQ(reasons(*w.w1), GetParam().at_w1);
  EXPECT_EQ(reasons(*w.u2), GetParam().at_u2);
  EXPECT_TRUE(w.w2->disconnects.empty());
}

INSTANTIATE_TEST_SUITE_P(EveryEnding, Teardown, ::testing::ValuesIn(kEndings),
                         [](const ::testing::TestParamInfo<Ending>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace cmtos::test
