// Tests for Table 3: dynamic QoS renegotiation — upgrades, downgrades,
// rejection semantics (the VC survives), reservation accounting, and
// initiation from either endpoint.

#include <gtest/gtest.h>

#include "fixtures.h"

namespace cmtos::test {
namespace {

using transport::DisconnectReason;
using transport::QosParams;
using transport::QosTolerance;
using transport::VcId;

struct RenegWorld {
  RenegWorld() : star(2) {
    h0 = star.leaves[0];
    h1 = star.leaves[1];
    src_user = std::make_unique<ScriptedUser>(h0->entity);
    dst_user = std::make_unique<ScriptedUser>(h1->entity);
    h0->entity.bind(10, src_user.get());
    h1->entity.bind(20, dst_user.get());
    vc = h0->entity.t_connect_request(basic_request({h0->id, 10}, {h1->id, 20}, 10.0, 2048));
    star.platform.run_until(200 * kMillisecond);
  }
  QosTolerance tol(double rate, std::int64_t size) {
    auto req = basic_request({h0->id, 10}, {h1->id, 20}, rate, size);
    return req.qos;
  }
  StarPlatform star;
  platform::Host* h0 = nullptr;
  platform::Host* h1 = nullptr;
  std::unique_ptr<ScriptedUser> src_user, dst_user;
  VcId vc = transport::kInvalidVc;
};

TEST(Renegotiate, SourceInitiatedUpgrade) {
  RenegWorld w;
  ASSERT_NE(w.h0->entity.source(w.vc), nullptr);
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);

  w.h0->entity.t_renegotiate_request(w.vc, w.tol(40.0, 2048));
  w.star.platform.run_until(kSecond);

  // Fully confirmed: sink user saw the indication, source user the confirm.
  ASSERT_EQ(w.dst_user->reneg_indications.size(), 1u);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms[0].first);
  EXPECT_NEAR(w.src_user->reneg_confirms[0].second.osdu_rate, 40.0, 1e-9);
  // Both endpoints carry the new contract.
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 40.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 40.0, 1e-9);
  // Reservation grew.
  EXPECT_GT(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);
}

TEST(Renegotiate, SourceInitiatedDowngradeShrinksReservation) {
  RenegWorld w;
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(2.5, 2048));
  w.star.platform.run_until(kSecond);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms[0].first);
  EXPECT_LT(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);
}

TEST(Renegotiate, PeerRejectionKeepsVcAndRollsBackReservation) {
  RenegWorld w;
  w.dst_user->accept_renegotiations = false;
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);

  w.h0->entity.t_renegotiate_request(w.vc, w.tol(40.0, 2048));
  w.star.platform.run_until(kSecond);

  // §4.1.3: rejection arrives as T-Disconnect.indication, but the VC is
  // NOT torn down.
  ASSERT_EQ(w.src_user->disconnects.size(), 1u);
  EXPECT_EQ(w.src_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  EXPECT_NE(w.h0->entity.source(w.vc), nullptr);
  EXPECT_NE(w.h1->entity.sink(w.vc), nullptr);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_EQ(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);
}

TEST(Renegotiate, InsufficientBandwidthFailsWithoutTeardown) {
  RenegWorld w;
  // Ask for far more than the 10 Mbit/s link can reserve.
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(2000.0, 8192));
  w.star.platform.run_until(kSecond);
  ASSERT_EQ(w.src_user->disconnects.size(), 1u);
  EXPECT_EQ(w.src_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  EXPECT_NE(w.h0->entity.source(w.vc), nullptr);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
}

TEST(Renegotiate, AdmissionControlOffTakesThePreferredContractLikeConnect) {
  // Without a reservation substrate, connect accepts the preference
  // blindly.  Renegotiation runs the same admission check, so it takes the
  // preferred contract too, rather than degrading it against the accounting
  // of the blind reservations (13 times the link here).
  StarPlatform star(2);
  star.platform.network().set_admission_control(false);
  platform::Host& h0 = *star.leaves[0];
  platform::Host& h1 = *star.leaves[1];
  ScriptedUser src_user(h0.entity), dst_user(h1.entity);
  h0.entity.bind(10, &src_user);
  h1.entity.bind(20, &dst_user);
  const VcId vc =
      h0.entity.t_connect_request(basic_request({h0.id, 10}, {h1.id, 20}, 2000.0, 8192));
  star.platform.run_until(200 * kMillisecond);
  ASSERT_EQ(src_user.confirms.size(), 1u);
  EXPECT_NEAR(src_user.confirms[0].second.osdu_rate, 2000.0, 1e-9);

  h0.entity.t_renegotiate_request(vc, basic_request({h0.id, 10}, {h1.id, 20}, 2100.0, 8192).qos);
  star.platform.run_until(kSecond);
  ASSERT_EQ(src_user.reneg_confirms.size(), 1u);
  EXPECT_TRUE(src_user.reneg_confirms[0].first);
  EXPECT_NEAR(src_user.reneg_confirms[0].second.osdu_rate, 2100.0, 1e-9);
  EXPECT_NEAR(h1.entity.sink(vc)->agreed_qos().osdu_rate, 2100.0, 1e-9);
}

TEST(Renegotiate, SinkInitiated) {
  RenegWorld w;
  w.h1->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(kSecond);
  // The source user is asked (it owns the sending side) ...
  ASSERT_EQ(w.src_user->reneg_indications.size(), 1u);
  // ... and the sink user gets the confirm.
  ASSERT_EQ(w.dst_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.dst_user->reneg_confirms[0].first);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
}

TEST(Renegotiate, SinkInitiatedRejectedBySourceUser) {
  RenegWorld w;
  w.src_user->accept_renegotiations = false;
  w.h1->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(kSecond);
  ASSERT_EQ(w.dst_user->disconnects.size(), 1u);
  EXPECT_EQ(w.dst_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  EXPECT_NE(w.h1->entity.sink(w.vc), nullptr);  // VC survives
}

TEST(Renegotiate, DegradedRateWithinToleranceAccepted) {
  // Fill most of the link, then ask for more than remains: negotiation
  // lands between preferred and worst rather than failing outright.
  RenegWorld w;
  auto hog = w.star.platform.network().reserve(
      w.h0->id, w.h1->id, w.star.platform.network().available_bps(w.h0->id, w.h1->id) -
                              2'000'000);
  ASSERT_TRUE(hog.has_value());

  auto tol = w.tol(100.0, 2048);  // preferred needs ~1.8 Mbit/s... fits
  tol.worst.osdu_rate = 5.0;
  w.h0->entity.t_renegotiate_request(w.vc, tol);
  w.star.platform.run_until(kSecond);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  const QosParams agreed = w.src_user->reneg_confirms[0].second;
  EXPECT_GE(agreed.osdu_rate, 5.0);
  EXPECT_LE(agreed.required_bps(), 2'000'000 + w.h0->entity.source(w.vc) ? INT64_MAX : 0);
}

TEST(Renegotiate, DataFlowsAtNewRateAfterUpgrade) {
  RenegWorld w;
  auto* source = w.h0->entity.source(w.vc);
  auto* sink = w.h1->entity.sink(w.vc);
  ASSERT_NE(source, nullptr);

  // Measures delivery rate over one second of saturated offered load.
  // Full-size (max_osdu_bytes) payloads make the byte-based pacer's OSDU
  // rate match the contracted OSDU rate.
  auto measure_rate = [&]() -> double {
    const Time t0 = w.star.platform.scheduler().now();
    std::int64_t delivered = 0;
    for (int round = 0; round < 20; ++round) {
      while (source->submit(std::vector<std::uint8_t>(2000, 1))) {
      }
      w.star.platform.run_until(w.star.platform.scheduler().now() + 50 * kMillisecond);
      while (sink->receive()) ++delivered;
    }
    return static_cast<double>(delivered) / to_seconds(w.star.platform.scheduler().now() - t0);
  };

  const double rate_before = measure_rate();
  EXPECT_NEAR(rate_before, 10.0, 4.0);

  w.h0->entity.t_renegotiate_request(w.vc, w.tol(50.0, 2048));
  w.star.platform.run_until(w.star.platform.scheduler().now() + 300 * kMillisecond);
  while (sink->receive()) {
  }
  const double rate_after = measure_rate();
  EXPECT_GT(rate_after, rate_before * 3);
  EXPECT_NEAR(rate_after, 50.0, 15.0);
}

// --- RN TPDU loss mid-storm (robustness) ---

TEST(RenegotiateLoss, DroppedRnIsRetransmittedAndSucceeds) {
  RenegWorld w;
  auto* link = w.star.platform.network().link(w.h0->id, w.star.hub->id);
  ASSERT_NE(link, nullptr);

  // Black out the link just long enough to eat the first RN, then heal it
  // before the handshake retransmit fires.
  link->set_loss_rate(1.0);
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(w.star.platform.scheduler().now() + 100 * kMillisecond);
  EXPECT_TRUE(w.src_user->reneg_confirms.empty());
  link->set_loss_rate(0.0);
  w.star.platform.run_until(w.star.platform.scheduler().now() + 2 * kSecond);

  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms[0].first);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_TRUE(w.src_user->disconnects.empty());
}

TEST(RenegotiateLoss, SustainedLossFailsAfterRetriesButVcSurvives) {
  RenegWorld w;
  auto* link = w.star.platform.network().link(w.h0->id, w.star.hub->id);
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);

  // Every RN (initial + all retries) is lost: the renegotiation must give
  // up with kRenegotiationFailed after 1 + kHandshakeRetries RNs, within
  // the stretched handshake budget (2.0, 2.4) s; the VC must survive under
  // the old contract, and the pre-raised reservation must be rolled back.
  // The VC is idle, so the RNs are the only packets h0 sends.
  link->set_loss_rate(1.0);
  const auto sent_before = link->stats().packets_sent;
  const Time t0 = w.star.platform.scheduler().now();
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(40.0, 2048));
  constexpr int kSends = 1 + transport::kHandshakeRetries;
  w.star.platform.run_until(t0 + kSends * transport::kHandshakeRetransmit);
  EXPECT_TRUE(w.src_user->disconnects.empty());
  w.star.platform.run_until(t0 + static_cast<Duration>(kSends * transport::kHandshakeRetransmit *
                                                       (1 + transport::kHandshakeJitter)));
  link->set_loss_rate(0.0);
  EXPECT_EQ(link->stats().packets_sent - sent_before, kSends);

  ASSERT_EQ(w.src_user->disconnects.size(), 1u);
  EXPECT_EQ(w.src_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  ASSERT_NE(w.h0->entity.source(w.vc), nullptr);  // VC survives (§4.1.3)
  ASSERT_NE(w.h1->entity.sink(w.vc), nullptr);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_EQ(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);

  // The survivor is fully usable: a later renegotiation over the healed
  // link goes through.
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(w.star.platform.scheduler().now() + 2 * kSecond);
  ASSERT_FALSE(w.src_user->reneg_confirms.empty());
  EXPECT_TRUE(w.src_user->reneg_confirms.back().first);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
}

TEST(Renegotiate, CloseDropsTheInFlightRenegotiation) {
  // The sink user never answers the RN indication, then the source
  // disconnects.  Closing the VC must drop its renegotiation at both ends:
  // no RN retransmission outlives the VC and no timer stays armed.
  struct SilentUser : ScriptedUser {
    using ScriptedUser::ScriptedUser;
    void t_renegotiate_indication(VcId vc, const QosTolerance& proposed) override {
      reneg_indications.emplace_back(vc, proposed);
    }
  };
  RenegWorld w;
  SilentUser silent(w.h1->entity);
  w.h1->entity.bind(20, &silent);
  auto& sched = w.star.platform.scheduler();
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(sched.now() + 100 * kMillisecond);
  ASSERT_EQ(silent.reneg_indications.size(), 1u);

  w.h0->entity.t_disconnect_request(w.vc);
  w.star.platform.run_until(sched.now() + 100 * kMillisecond);
  ASSERT_EQ(w.h0->entity.source(w.vc), nullptr);
  ASSERT_EQ(w.h1->entity.sink(w.vc), nullptr);
  EXPECT_EQ(sched.pending(), 0u);

  const auto& link = w.star.platform.network().link(w.h0->id, w.star.hub->id)->stats();
  const std::int64_t sent_at_close = link.packets_sent;
  w.star.platform.run_until(sched.now() + 6 * kSecond);
  EXPECT_EQ(link.packets_sent - sent_at_close, 0);
}

TEST(RenegotiateLoss, LostRncGetsTheAcceptanceResent) {
  // The sink accepts but its RNC is lost.  The retransmitted RN finds the
  // new contract already in force at the sink, which resends the
  // acceptance instead of asking its user again.
  RenegWorld w;
  auto* back = w.star.platform.network().link(w.h1->id, w.star.hub->id);
  ASSERT_NE(back, nullptr);
  back->set_loss_rate(1.0);
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(w.star.platform.scheduler().now() + 100 * kMillisecond);
  ASSERT_EQ(w.dst_user->reneg_indications.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms.empty());
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  back->set_loss_rate(0.0);
  w.star.platform.run_until(w.star.platform.scheduler().now() + 2 * kSecond);

  EXPECT_EQ(w.dst_user->reneg_indications.size(), 1u);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms[0].first);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_TRUE(w.src_user->disconnects.empty());
}

TEST(RenegotiateLoss, SinkRequestWithLostRncAsksTheSourceOnce) {
  // The source accepts a sink's request but its RNC is lost.  A sink's RN
  // carries no contract, so the source recognises the retransmission by
  // the request it accepted and resends the acceptance instead of asking
  // its user, and running admission, a second time.
  RenegWorld w;
  auto* back = w.star.platform.network().link(w.h0->id, w.star.hub->id);
  ASSERT_NE(back, nullptr);
  back->set_loss_rate(1.0);
  w.h1->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  w.star.platform.run_until(w.star.platform.scheduler().now() + 100 * kMillisecond);
  ASSERT_EQ(w.src_user->reneg_indications.size(), 1u);
  EXPECT_TRUE(w.dst_user->reneg_confirms.empty());
  back->set_loss_rate(0.0);
  w.star.platform.run_until(w.star.platform.scheduler().now() + 2 * kSecond);

  EXPECT_EQ(w.src_user->reneg_indications.size(), 1u);
  ASSERT_EQ(w.dst_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.dst_user->reneg_confirms[0].first);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 20.0, 1e-9);
  EXPECT_TRUE(w.dst_user->disconnects.empty());
}

TEST(Renegotiate, SinkInitiatedRefusedAtAdmissionKeepsTheVc) {
  // The source entity owns the reservation, so it runs admission for a
  // sink-initiated request too; a refusal there fails the request at the
  // sink and leaves the VC and its reservation as they were.
  RenegWorld w;
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);
  w.h1->entity.t_renegotiate_request(w.vc, w.tol(2000.0, 8192));
  w.star.platform.run_until(kSecond);
  ASSERT_EQ(w.dst_user->disconnects.size(), 1u);
  EXPECT_EQ(w.dst_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  EXPECT_TRUE(w.dst_user->reneg_confirms.empty());
  EXPECT_TRUE(w.src_user->reneg_confirms.empty());
  ASSERT_NE(w.h0->entity.source(w.vc), nullptr);
  ASSERT_NE(w.h1->entity.sink(w.vc), nullptr);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_EQ(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);
}

TEST(RenegotiateLoss, SinkRequestGivesUpAfterRetriesButVcSurvives) {
  // Every RN the sink sends is lost: the request fails after
  // 1 + kHandshakeRetries sends and the VC keeps its old contract.  The VC
  // is idle, so the RNs are the only packets h1 sends.
  RenegWorld w;
  auto* link = w.star.platform.network().link(w.h1->id, w.star.hub->id);
  const auto before = w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id);
  link->set_loss_rate(1.0);
  const auto sent_before = link->stats().packets_sent;
  const Time t0 = w.star.platform.scheduler().now();
  w.h1->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  constexpr int kSends = 1 + transport::kHandshakeRetries;
  w.star.platform.run_until(t0 + kSends * transport::kHandshakeRetransmit);
  EXPECT_TRUE(w.dst_user->disconnects.empty());
  w.star.platform.run_until(t0 + static_cast<Duration>(kSends * transport::kHandshakeRetransmit *
                                                       (1 + transport::kHandshakeJitter)));
  link->set_loss_rate(0.0);
  EXPECT_EQ(link->stats().packets_sent - sent_before, kSends);

  ASSERT_EQ(w.dst_user->disconnects.size(), 1u);
  EXPECT_EQ(w.dst_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  EXPECT_TRUE(w.src_user->reneg_indications.empty());
  ASSERT_NE(w.h0->entity.source(w.vc), nullptr);
  ASSERT_NE(w.h1->entity.sink(w.vc), nullptr);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 10.0, 1e-9);
  EXPECT_EQ(w.star.platform.network().reserved_on(w.h0->id, w.star.hub->id), before);
}

TEST(Renegotiate, JitterOnlyChangeIsAskedAndAppliedAtBothEnds) {
  // A request that changes only the jitter bound is a new contract, not a
  // retransmission of the one in force: the sink user is asked and both
  // endpoints end on the new bound.
  RenegWorld w;
  auto tol = w.tol(10.0, 2048);
  tol.preferred.delay_jitter = 30 * kMillisecond;
  w.h0->entity.t_renegotiate_request(w.vc, tol);
  w.star.platform.run_until(kSecond);
  EXPECT_EQ(w.dst_user->reneg_indications.size(), 1u);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_TRUE(w.src_user->reneg_confirms[0].first);
  EXPECT_EQ(w.h0->entity.source(w.vc)->agreed_qos().delay_jitter, 30 * kMillisecond);
  EXPECT_EQ(w.h1->entity.sink(w.vc)->agreed_qos().delay_jitter, 30 * kMillisecond);
}

TEST(Renegotiate, SecondRequestWhileOneIsInFlightIsRefused) {
  // The sink user answers the first request late.  A second request on
  // the same VC meanwhile is refused at once; the first one goes on and
  // both endpoints end on its contract.
  struct LateUser : ScriptedUser {
    using ScriptedUser::ScriptedUser;
    void t_renegotiate_indication(VcId vc, const QosTolerance& proposed) override {
      reneg_indications.emplace_back(vc, proposed);
    }
  };
  RenegWorld w;
  LateUser late(w.h1->entity);
  w.h1->entity.bind(20, &late);
  auto& sched = w.star.platform.scheduler();
  w.h0->entity.t_renegotiate_request(w.vc, w.tol(30.0, 2048));
  w.star.platform.run_until(sched.now() + 100 * kMillisecond);
  ASSERT_EQ(late.reneg_indications.size(), 1u);

  w.h0->entity.t_renegotiate_request(w.vc, w.tol(20.0, 2048));
  ASSERT_EQ(w.src_user->disconnects.size(), 1u);
  EXPECT_EQ(w.src_user->disconnects[0].second, DisconnectReason::kRenegotiationFailed);
  w.star.platform.run_until(sched.now() + 100 * kMillisecond);
  w.h1->entity.renegotiate_response(w.vc, true);
  w.star.platform.run_until(sched.now() + 3 * kSecond);

  EXPECT_EQ(late.reneg_indications.size(), 1u);
  ASSERT_EQ(w.src_user->reneg_confirms.size(), 1u);
  EXPECT_NEAR(w.src_user->reneg_confirms[0].second.osdu_rate, 30.0, 1e-9);
  EXPECT_NEAR(w.h0->entity.source(w.vc)->agreed_qos().osdu_rate, 30.0, 1e-9);
  EXPECT_NEAR(w.h1->entity.sink(w.vc)->agreed_qos().osdu_rate, 30.0, 1e-9);
  EXPECT_EQ(w.src_user->disconnects.size(), 1u);
}

TEST(Renegotiate, UnknownVcIsIgnoredSafely) {
  RenegWorld w;
  w.h0->entity.t_renegotiate_request(0xdeadbeef, w.tol(20.0, 2048));
  w.star.platform.run_until(kSecond);
  EXPECT_TRUE(w.src_user->reneg_confirms.empty());
  EXPECT_TRUE(w.src_user->disconnects.empty());
}

}  // namespace
}  // namespace cmtos::test
