// Tests for the closed-loop graceful-degradation layer: degradation-ladder
// construction, the LadderState hysteresis core (including the
// no-oscillation backoff property), and the QosManager driving a live
// stream down and back up its ladder.

#include <gtest/gtest.h>

#include "fixtures.h"
#include "platform/qos_manager.h"

namespace cmtos::test {
namespace {

using platform::AudioQos;
using platform::LadderRung;
using platform::LadderState;
using platform::MediaQos;
using platform::QosManager;
using platform::TextQos;
using platform::VideoQos;

// ====================================================================
// build_ladder
// ====================================================================

TEST(BuildLadder, VideoTradesRateAndFidelityTowardTheFloor) {
  VideoQos vq;
  vq.frames_per_second = 25;
  const auto base = platform::to_transport_qos(MediaQos{vq});
  const auto ladder = platform::build_ladder(MediaQos{vq});
  ASSERT_EQ(ladder.size(), static_cast<std::size_t>(platform::kLadderRungs));

  // Rung 0 is the preferred service.
  const auto* v0 = std::get_if<VideoQos>(&ladder[0].media);
  ASSERT_NE(v0, nullptr);
  EXPECT_NEAR(v0->frames_per_second, 25.0, 1e-9);

  // Frame rate monotonically non-increasing, compression non-decreasing,
  // jitter/error tolerance monotonically relaxing.
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    const auto* prev = std::get_if<VideoQos>(&ladder[i - 1].media);
    const auto* cur = std::get_if<VideoQos>(&ladder[i].media);
    ASSERT_NE(cur, nullptr);
    EXPECT_LE(cur->frames_per_second, prev->frames_per_second);
    EXPECT_GE(cur->compression, prev->compression);
    EXPECT_GE(ladder[i].tolerance.preferred.delay_jitter,
              ladder[i - 1].tolerance.preferred.delay_jitter);
    EXPECT_GE(ladder[i].tolerance.preferred.packet_error_rate,
              ladder[i - 1].tolerance.preferred.packet_error_rate);
  }

  // The last rung IS the floor, and no rung concedes below it.
  const auto* vfloor = std::get_if<VideoQos>(&ladder.back().media);
  EXPECT_NEAR(vfloor->frames_per_second, base.worst.osdu_rate, 1e-9);
  for (const LadderRung& rung : ladder) {
    EXPECT_GE(rung.tolerance.worst.osdu_rate, base.worst.osdu_rate - 1e-9);
    EXPECT_LE(rung.tolerance.worst.end_to_end_delay, base.worst.end_to_end_delay);
  }
}

TEST(BuildLadder, AudioPreservesBlockRateAndBottomsSampleRate) {
  AudioQos aq;  // 8 kHz
  const auto ladder = platform::build_ladder(MediaQos{aq});
  ASSERT_EQ(ladder.size(), static_cast<std::size_t>(platform::kLadderRungs));
  const auto* a0 = std::get_if<AudioQos>(&ladder[0].media);
  for (const LadderRung& rung : ladder) {
    const auto* a = std::get_if<AudioQos>(&rung.media);
    ASSERT_NE(a, nullptr);
    // The block rate is the orchestration sync ratio: identical OSDU rate
    // on every rung, so degradation never desynchronises the session.
    EXPECT_EQ(a->blocks_per_second, a0->blocks_per_second);
    EXPECT_GE(a->sample_rate_hz, 2000);
    EXPECT_LE(a->sample_rate_hz, a0->sample_rate_hz);
  }
  EXPECT_LT(std::get_if<AudioQos>(&ladder.back().media)->sample_rate_hz, a0->sample_rate_hz);
}

TEST(BuildLadder, TextRateNeverBelowWorst) {
  TextQos tq;
  const auto base = platform::to_transport_qos(MediaQos{tq});
  const auto ladder = platform::build_ladder(MediaQos{tq});
  for (const LadderRung& rung : ladder) {
    const auto* t = std::get_if<TextQos>(&rung.media);
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->units_per_second, base.worst.osdu_rate - 1e-9);
  }
}

// ====================================================================
// LadderState hysteresis
// ====================================================================

// The schedule under test: K = 2 violating periods degrade, M = 4 clean
// ticks probe, 3 validation ticks, backoff capped at 4.
constexpr std::uint32_t kK = LadderState::kDegradeAfterPeriods;

/// Drives clean ticks until the state asks for an upgrade (completing any
/// validation window on the way); returns how many ticks that took.
int ticks_until_upgrade(LadderState& s, int give_up_after = 1000) {
  for (int i = 1; i <= give_up_after; ++i) {
    if (s.on_clean_tick() == LadderState::Action::kUpgrade) return i;
  }
  return -1;
}

TEST(LadderStateUnit, DegradesOnlyAfterKConsecutivePeriods) {
  LadderState s;
  EXPECT_EQ(s.on_violation(1), LadderState::Action::kNone);
  EXPECT_EQ(s.on_violation(2), LadderState::Action::kDegrade);
  EXPECT_TRUE(s.in_flight());
  s.note_applied(LadderState::Action::kDegrade, true);
  EXPECT_EQ(s.level(), 1);
}

TEST(LadderStateUnit, NoActionWhileRenegotiationInFlight) {
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  // Further violations while the renegotiation is pending are absorbed.
  EXPECT_EQ(s.on_violation(kK + 1), LadderState::Action::kNone);
  EXPECT_EQ(s.on_clean_tick(), LadderState::Action::kNone);
  s.note_applied(LadderState::Action::kDegrade, true);
  EXPECT_EQ(s.level(), 1);
}

TEST(LadderStateUnit, FailedRenegotiationKeepsLevel) {
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, false);
  EXPECT_EQ(s.level(), 0);
  EXPECT_FALSE(s.in_flight());
  // The next sustained run retries.
  EXPECT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
}

TEST(LadderStateUnit, NeverDegradesBelowTheFloor) {
  LadderState s;
  for (int level = 0; level < platform::kLadderRungs - 1; ++level) {
    ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
    s.note_applied(LadderState::Action::kDegrade, true);
  }
  ASSERT_TRUE(s.at_floor());
  EXPECT_EQ(s.on_violation(30), LadderState::Action::kNone);
  EXPECT_EQ(s.level(), platform::kLadderRungs - 1);
}

TEST(LadderStateUnit, UpgradeProbesAfterMCleanTicksAndValidationHolds) {
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, true);

  EXPECT_EQ(ticks_until_upgrade(s), 4);  // M clean ticks, backoff 1
  s.note_applied(LadderState::Action::kUpgrade, true);
  EXPECT_EQ(s.level(), 0);
  EXPECT_TRUE(s.probing());
  // The validation window passes clean: the probe is trusted and the
  // backoff history forgiven.
  EXPECT_EQ(s.on_clean_tick(), LadderState::Action::kNone);
  EXPECT_EQ(s.on_clean_tick(), LadderState::Action::kNone);
  EXPECT_TRUE(s.probing());
  EXPECT_EQ(s.on_clean_tick(), LadderState::Action::kNone);
  EXPECT_FALSE(s.probing());
  EXPECT_EQ(s.backoff(), 1);
}

TEST(LadderStateUnit, FailedProbeRollsBackAndDoublesBackoff) {
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, true);
  ASSERT_EQ(ticks_until_upgrade(s), 4);
  s.note_applied(LadderState::Action::kUpgrade, true);
  ASSERT_TRUE(s.probing());

  // A violation inside the validation window: immediate rollback (a single
  // period, not K) and doubled backoff.
  EXPECT_EQ(s.on_violation(1), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, true);
  EXPECT_EQ(s.level(), 1);
  EXPECT_EQ(s.backoff(), 2);
  // The next probe needs M * backoff clean ticks.
  EXPECT_EQ(ticks_until_upgrade(s), 8);
}

TEST(LadderStateUnit, FlappingLinkProbeCadenceDecaysGeometrically) {
  // The no-oscillation property: on a link that looks clean just long
  // enough to invite a probe and then violates, successive probe intervals
  // double until the cap.  A fixed-cadence loop would flap forever at the
  // same rate.
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, true);

  std::vector<int> probe_gaps;
  for (int round = 0; round < 5; ++round) {
    const int gap = ticks_until_upgrade(s);
    ASSERT_GT(gap, 0);
    probe_gaps.push_back(gap);
    s.note_applied(LadderState::Action::kUpgrade, true);
    ASSERT_EQ(s.on_violation(1), LadderState::Action::kDegrade);  // probe fails
    s.note_applied(LadderState::Action::kDegrade, true);
  }
  EXPECT_EQ(probe_gaps, (std::vector<int>{4, 8, 16, 16, 16}));  // cap 4 * M 4
}

TEST(LadderStateUnit, ViolationResetsCleanProgress) {
  LadderState s;
  ASSERT_EQ(s.on_violation(kK), LadderState::Action::kDegrade);
  s.note_applied(LadderState::Action::kDegrade, true);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.on_clean_tick(), LadderState::Action::kNone);
  EXPECT_EQ(s.on_violation(1), LadderState::Action::kNone);  // run of 1 < K
  // The clean streak restarts from zero.
  EXPECT_EQ(ticks_until_upgrade(s), 4);
}

// ====================================================================
// QosManager closed loop over a live stream
// ====================================================================

struct ManagedWorld {
  ManagedWorld() : platform(7) {
    src = &platform.add_host("src");
    ws = &platform.add_host("ws");
    net::LinkConfig link = lan_link();
    platform.network().add_link(src->id, ws->id, link);
    platform.network().finalize_routes();

    platform::VideoQos vq;
    vq.width = 176;  // single-TPDU frames: link jitter reaches the monitor
    vq.height = 144;
    vq.compression = 60;
    vq.frames_per_second = 25;
    video_qos = vq;

    server = std::make_unique<media::StoredMediaServer>(platform, *src, "src");
    media::TrackConfig t;
    t.track_id = 1;
    t.vbr.base_bytes = vq.frame_bytes();
    t.vbr.gop = 0;
    t.vbr.wobble = 0;
    const net::NetAddress a = server->add_track(100, t);

    media::RenderConfig r;
    r.expect_track = 1;
    sink = std::make_unique<media::RenderingSink>(platform, *ws, 200, r);

    transport::ServiceClass sc;
    sc.error_control = transport::ErrorControl::kCorrectAndIndicate;
    stream = std::make_unique<platform::Stream>(platform, *src, "video");
    stream->set_buffer_osdus(8);
    stream->set_sample_period(250 * kMillisecond);
    bool connected = false;
    stream->connect(a, {ws->id, 200}, MediaQos{vq}, sc, [&](bool up, auto) { connected = up; });
    platform.run_until(500 * kMillisecond);
    ok = connected;
  }

  platform::Platform platform;
  platform::Host* src = nullptr;
  platform::Host* ws = nullptr;
  platform::VideoQos video_qos;
  std::unique_ptr<media::StoredMediaServer> server;
  std::unique_ptr<media::RenderingSink> sink;
  std::unique_ptr<platform::Stream> stream;
  bool ok = false;
};

TEST(QosManagerLoop, DegradesUnderJitterAndRecoversWhenItClears) {
  ManagedWorld w;
  ASSERT_TRUE(w.ok);
  QosManager mgr(w.platform);
  mgr.manage(*w.stream);
  EXPECT_EQ(mgr.ladder_level(*w.stream), 0);

  // 80 ms per-packet jitter violates the 40 ms preferred tolerance but not
  // the 80 ms floor: the ladder must find a survivable rung.
  auto* link = w.platform.network().link(w.src->id, w.ws->id);
  link->set_jitter(80 * kMillisecond);
  w.platform.run_until(w.platform.scheduler().now() + 8 * kSecond);
  EXPECT_GE(mgr.totals().degrades, 1);
  EXPECT_GE(mgr.ladder_level(*w.stream), 1);
  EXPECT_TRUE(w.stream->connected());

  // Jitter clears: probe-upgrade back to the preferred rung.
  link->set_jitter(0);
  w.platform.run_until(w.platform.scheduler().now() + 25 * kSecond);
  EXPECT_GE(mgr.totals().upgrades, 1);
  EXPECT_EQ(mgr.ladder_level(*w.stream), 0);
  EXPECT_TRUE(w.stream->connected());
}

TEST(QosManagerLoop, RungChangeRenegotiatesTheContract) {
  ManagedWorld w;
  ASSERT_TRUE(w.ok);
  QosManager mgr(w.platform);
  mgr.manage(*w.stream);

  std::vector<double> rates;
  mgr.set_on_rate_changed([&](transport::VcId, double rate) { rates.push_back(rate); });
  const double rate0 = w.stream->agreed_qos().osdu_rate;

  auto* link = w.platform.network().link(w.src->id, w.ws->id);
  link->set_jitter(80 * kMillisecond);
  w.platform.run_until(w.platform.scheduler().now() + 8 * kSecond);
  ASSERT_GE(mgr.ladder_level(*w.stream), 1);
  // The agreed contract followed the ladder: every rung change renegotiated
  // a below-preferred rate (probes may briefly climb, so the sequence is
  // not monotone) and the live contract matches the last one applied.
  ASSERT_FALSE(rates.empty());
  for (const double r : rates) EXPECT_LT(r, rate0);
  EXPECT_LT(w.stream->agreed_qos().osdu_rate, rate0);
  EXPECT_NEAR(w.stream->agreed_qos().osdu_rate, rates.back(), 1e-9);
}

TEST(QosManagerLoop, FloorViolationsParkTheStreamAtItsFloor) {
  ManagedWorld w;
  ASSERT_TRUE(w.ok);
  QosManager mgr(w.platform);
  mgr.manage(*w.stream);

  // 400 ms of jitter violates even the floor tolerance (80 ms): the ladder
  // walks to the floor and parks there.  The VC stays up and playback goes
  // on; the monitor keeps indicating the violation.
  auto* link = w.platform.network().link(w.src->id, w.ws->id);
  link->set_jitter(400 * kMillisecond);
  w.platform.run_until(w.platform.scheduler().now() + 15 * kSecond);
  EXPECT_EQ(mgr.ladder_level(*w.stream), platform::kLadderRungs - 1);
  EXPECT_TRUE(w.stream->connected());
  const auto frames_mid = w.sink->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 15 * kSecond);
  EXPECT_EQ(mgr.ladder_level(*w.stream), platform::kLadderRungs - 1);
  EXPECT_TRUE(w.stream->connected());
  EXPECT_GT(w.sink->stats().frames_rendered, frames_mid);

  // The path clears: the probes climb the parked stream back to rung 0.
  link->set_jitter(0);
  w.platform.run_until(w.platform.scheduler().now() + 30 * kSecond);
  EXPECT_EQ(mgr.ladder_level(*w.stream), 0);
  EXPECT_TRUE(w.stream->connected());
}

}  // namespace
}  // namespace cmtos::test
