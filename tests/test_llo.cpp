// LLO tests: Table 4 session management, Table 5 prime/start/stop/add/
// remove (Fig 7 time sequence, atomic start, flush semantics), Table 6
// regulate/delayed/event mechanics.

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "fixtures.h"

namespace cmtos::test {
namespace {

using media::RenderConfig;
using media::RenderingSink;
using media::StoredMediaServer;
using media::TrackConfig;
using orch::OrchReason;
using orch::OrchSessionId;
using orch::OrchVcInfo;
using transport::VcId;

/// Server on leaf0 serving two tracks to sinks on leaf1, streams connected
/// and ready for orchestration from leaf1 (the common sink node).
struct OrchWorld {
  OrchWorld(bool auto_start = false, double drift_ppm_b = 0.0)
      : star(2,
             lan_link(), 99) {
    (void)drift_ppm_b;
    server_host = star.leaves[0];
    sink_host = star.leaves[1];
    p = &star.platform;

    server = std::make_unique<StoredMediaServer>(*p, *server_host, "server");
    TrackConfig video;
    video.track_id = 1;
    video.auto_start = auto_start;
    video.vbr.base_bytes = 2048;
    video_src = server->add_track(100, video);
    TrackConfig audio;
    audio.track_id = 2;
    audio.auto_start = auto_start;
    audio.vbr.base_bytes = 160;
    audio.vbr.gop = 0;
    audio_src = server->add_track(101, audio);

    RenderConfig vr;
    vr.expect_track = 1;
    video_sink = std::make_unique<RenderingSink>(*p, *sink_host, 200, vr);
    RenderConfig ar;
    ar.expect_track = 2;
    audio_sink = std::make_unique<RenderingSink>(*p, *sink_host, 201, ar);

    vstream = std::make_unique<platform::Stream>(*p, *sink_host, "v");
    astream = std::make_unique<platform::Stream>(*p, *sink_host, "a");
    platform::VideoQos vq;
    vq.frames_per_second = 25;
    platform::AudioQos aq;
    aq.blocks_per_second = 50;
    int connected = 0;
    vstream->connect(video_src, {sink_host->id, 200}, vq, {},
                     [&](bool ok, auto) { connected += ok; });
    astream->connect(audio_src, {sink_host->id, 201}, aq, {},
                     [&](bool ok, auto) { connected += ok; });
    p->run_until(500 * kMillisecond);
    EXPECT_EQ(connected, 2);
  }

  std::vector<OrchVcInfo> vcs() const {
    return {vstream->orch_spec().vc, astream->orch_spec().vc};
  }
  orch::Llo& llo() { return sink_host->llo; }

  StarPlatform star;
  platform::Platform* p = nullptr;
  platform::Host* server_host = nullptr;
  platform::Host* sink_host = nullptr;
  std::unique_ptr<StoredMediaServer> server;
  std::unique_ptr<RenderingSink> video_sink, audio_sink;
  std::unique_ptr<platform::Stream> vstream, astream;
  net::NetAddress video_src, audio_src;
};

TEST(LloSession, EstablishAndRelease) {
  OrchWorld w;
  bool ok = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { ok = o; });
  w.p->run_until(kSecond);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(w.llo().has_session(1));
  // OPDUs ride the per-connection internal control VCs: the reverse path
  // (sink toward server) already carries reserved control bandwidth.
  EXPECT_GT(w.p->network().reserved_on(w.sink_host->id, w.star.hub->id), 0);

  w.llo().orch_release(1);
  w.p->run_until(2 * kSecond);
  EXPECT_FALSE(w.llo().has_session(1));
  EXPECT_EQ(w.server_host->llo.local_vc_count(), 0u);
}

TEST(LloSession, RejectsUnknownVc) {
  OrchWorld w;
  auto vcs = w.vcs();
  vcs[0].vc = 0xdeadbeef;  // no such VC anywhere
  bool done = false, ok = true;
  w.llo().orch_request(2, vcs, [&](bool o, OrchReason r) {
    done = true;
    ok = o;
    EXPECT_EQ(r, OrchReason::kNoSuchVc);
  });
  w.p->run_until(kSecond);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST(LloSession, RejectsWithoutCommonNode) {
  OrchWorld w;
  auto vcs = w.vcs();
  vcs[0].src_node = w.server_host->id;
  vcs[0].sink_node = w.server_host->id;  // claims neither endpoint here
  vcs[0].src_node = 99;
  vcs[0].sink_node = 98;
  bool ok = true;
  w.llo().orch_request(3, vcs, [&](bool o, OrchReason r) {
    ok = o;
    EXPECT_EQ(r, OrchReason::kNoCommonNode);
  });
  w.p->run_until(kSecond);
  EXPECT_FALSE(ok);
}

TEST(LloSession, TableSpaceExhaustionRejects) {
  OrchWorld w;
  w.server_host->llo.set_session_limit(1);
  bool ok1 = false;
  w.llo().orch_request(10, w.vcs(), [&](bool o, OrchReason) { ok1 = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(ok1);
  bool ok2 = true;
  OrchReason reason2 = OrchReason::kOk;
  w.llo().orch_request(11, w.vcs(), [&](bool o, OrchReason r) {
    ok2 = o;
    reason2 = r;
  });
  w.p->run_until(2 * kSecond);
  EXPECT_FALSE(ok2);
  EXPECT_EQ(reason2, OrchReason::kNoTableSpace);
}

TEST(LloPrime, FillsBuffersAndHoldsDelivery) {
  OrchWorld w;
  bool established = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { established = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(established);

  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(3 * kSecond);
  ASSERT_TRUE(primed);

  // Receive buffers are full at both sinks, nothing delivered to the apps.
  auto* vconn = w.sink_host->entity.sink(w.vcs()[0].vc);
  auto* aconn = w.sink_host->entity.sink(w.vcs()[1].vc);
  ASSERT_NE(vconn, nullptr);
  EXPECT_TRUE(vconn->buffer().full());
  EXPECT_TRUE(aconn->buffer().full());
  EXPECT_EQ(w.video_sink->stats().frames_rendered, 0);
  EXPECT_EQ(w.audio_sink->stats().frames_rendered, 0);
  // The source threads produced and are now blocked by flow control.
  EXPECT_GT(w.server->stats(100).frames_produced, 0);
}

TEST(LloPrime, DenyPropagatesAsOrchDeny) {
  OrchWorld w;
  w.video_sink->set_deny_prime(true);
  bool established = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { established = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(established);

  bool done = false, ok = true;
  OrchReason reason = OrchReason::kOk;
  w.llo().prime(1, false, [&](bool o, OrchReason r) {
    done = true;
    ok = o;
    reason = r;
  });
  w.p->run_until(8 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(reason, OrchReason::kAppDenied);
}

TEST(LloStart, AtomicReleaseAfterPrime) {
  OrchWorld w;
  bool established = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { established = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(established);
  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(3 * kSecond);
  ASSERT_TRUE(primed);

  bool started = false;
  std::map<VcId, std::int64_t> bases;
  w.llo().start(1, [&](bool o, const FlatMap<VcId, std::int64_t>& b) {
    started = o;
    for (const auto& [vc, base] : b) bases[vc] = base;
  });
  w.p->run_until(4 * kSecond);
  ASSERT_TRUE(started);
  // Start bases: the first OSDU each sink will deliver (0 for fresh VCs).
  ASSERT_EQ(bases.size(), 2u);
  EXPECT_EQ(bases.at(w.vcs()[0].vc), 0);
  EXPECT_EQ(bases.at(w.vcs()[1].vc), 0);

  w.p->run_until(6 * kSecond);
  EXPECT_GT(w.video_sink->stats().frames_rendered, 30);
  EXPECT_GT(w.audio_sink->stats().frames_rendered, 60);

  // Both started from frame 0 (no data lost while primed).
  EXPECT_EQ(w.video_sink->records().front().seq, 0u);
  EXPECT_EQ(w.audio_sink->records().front().seq, 0u);
  // And the two streams began within one video frame of each other.
  const Duration v0 = w.video_sink->records().front().true_time;
  const Duration a0 = w.audio_sink->records().front().true_time;
  EXPECT_LT(std::abs(v0 - a0), 40 * kMillisecond);
}

TEST(LloStop, FreezesBothStreamsAndDataSurvives) {
  OrchWorld w;
  bool est = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(3 * kSecond);
  ASSERT_TRUE(primed);
  w.llo().start(1, nullptr);
  w.p->run_until(6 * kSecond);
  const auto v_before = w.video_sink->stats().frames_rendered;
  ASSERT_GT(v_before, 0);

  bool stopped = false;
  w.llo().stop(1, [&](bool o, OrchReason) { stopped = o; });
  w.p->run_until(6500 * kMillisecond);
  ASSERT_TRUE(stopped);
  const auto v_at_stop = w.video_sink->stats().frames_rendered;
  const auto a_at_stop = w.audio_sink->stats().frames_rendered;
  w.p->run_until(9 * kSecond);
  // Nothing rendered while stopped.
  EXPECT_EQ(w.video_sink->stats().frames_rendered, v_at_stop);
  EXPECT_EQ(w.audio_sink->stats().frames_rendered, a_at_stop);

  // Restart: play-out resumes from the next frame, no data lost.
  const auto last_v = w.video_sink->records().back().seq;
  w.llo().start(1, nullptr);
  w.p->run_until(12 * kSecond);
  EXPECT_GT(w.video_sink->stats().frames_rendered, v_at_stop + 20);
  // First frame after restart continues the sequence.
  bool found_next = false;
  for (const auto& r : w.video_sink->records()) {
    if (r.true_time > 9 * kSecond) {
      EXPECT_EQ(r.seq, last_v + 1);
      found_next = true;
      break;
    }
  }
  EXPECT_TRUE(found_next);
}

TEST(LloSeek, FlushingPrimeDiscardsStaleMedia) {
  OrchWorld w;
  bool est = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(3 * kSecond);
  ASSERT_TRUE(primed);
  w.llo().start(1, nullptr);
  w.p->run_until(6 * kSecond);

  // Stop, seek both tracks to frame 500, re-prime with flush, start.
  w.llo().stop(1, nullptr);
  w.p->run_until(6500 * kMillisecond);
  w.server->seek(100, 500);
  w.server->seek(101, 500);
  bool reprimed = false;
  w.llo().prime(1, true, [&](bool o, OrchReason) { reprimed = o; });
  w.p->run_until(9 * kSecond);
  ASSERT_TRUE(reprimed);
  w.llo().start(1, nullptr);
  w.p->run_until(12 * kSecond);

  // §6.2.1: "a short burst of media buffered from the previous play would
  // be discernible" without the flush — with it, the first frame rendered
  // after restart is from the new position.
  bool checked = false;
  for (const auto& r : w.video_sink->records()) {
    if (r.true_time > 9 * kSecond) {
      EXPECT_GE(r.frame_index, 500u);
      checked = true;
      break;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(LloAddRemove, MembershipChanges) {
  OrchWorld w;
  bool est = false;
  // Start with only the video VC.
  w.llo().orch_request(1, {w.vcs()[0]}, [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);

  bool added = false;
  w.llo().add(1, w.vcs()[1], [&](bool o, OrchReason) { added = o; });
  w.p->run_until(2 * kSecond);
  EXPECT_TRUE(added);

  bool removed = false;
  w.llo().remove(1, w.vcs()[0].vc, [&](bool o, OrchReason) { removed = o; });
  w.p->run_until(3 * kSecond);
  EXPECT_TRUE(removed);

  // Removing a VC must not freeze it (§6.2.4): start the remaining group;
  // the removed video VC flows freely because its producer auto-runs on
  // space — here just verify no crash and the audio VC still works.
  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(5 * kSecond);
  EXPECT_TRUE(primed);
}

TEST(LloAddRemove, RefusedAddLeavesGroupUsable) {
  // A refused Orch.Add commits nothing: the group's later ops still reach
  // only its members, and no endpoint stays half-attached.
  OrchWorld w;
  bool est = false;
  w.llo().orch_request(1, {w.vcs()[0]}, [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  const std::size_t sink_attached = w.llo().local_vc_count();
  const std::size_t server_attached = w.server_host->llo.local_vc_count();

  // A VC with no endpoint anywhere, and one whose sink attaches while the
  // node it names as its source does not carry it.
  const OrchVcInfo ghost{0xdead, w.server_host->id, w.sink_host->id};
  OrchVcInfo misplaced = w.vcs()[1];
  misplaced.src_node = w.sink_host->id;
  for (const OrchVcInfo& vc : {ghost, misplaced}) {
    bool refused = false;
    OrchReason reason = OrchReason::kOk;
    w.llo().add(1, vc, [&](bool o, OrchReason r) {
      refused = !o;
      reason = r;
    });
    w.p->run_until(w.p->scheduler().now() + kSecond);
    EXPECT_TRUE(refused);
    EXPECT_EQ(reason, OrchReason::kNoSuchVc);
  }
  EXPECT_EQ(w.llo().local_vc_count(), sink_attached);
  EXPECT_EQ(w.server_host->llo.local_vc_count(), server_attached);
  // Re-adding a member is refused up front, so its refusal cannot release
  // the member's attachments.
  OrchReason again = OrchReason::kOk;
  w.llo().add(1, w.vcs()[0], [&](bool, OrchReason r) { again = r; });
  EXPECT_EQ(again, OrchReason::kIllegalTransition);

  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(w.p->scheduler().now() + 2 * kSecond);
  EXPECT_TRUE(primed);
}

TEST(LloAddRemove, AddHonoursTheSessionsNoCommonNodePermission) {
  // The hub carries neither end of either VC.  A session it establishes
  // with the §7 permission admits a joiner on the same terms; a session
  // without it still refuses one that misses the orchestrating node.
  OrchWorld w;
  orch::Llo& hub = w.star.hub->llo;
  bool est = false;
  hub.orch_request(1, {w.vcs()[0]}, [&](bool o, OrchReason) { est = o; },
                   /*allow_no_common_node=*/true);
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  bool added = false;
  OrchReason reason = OrchReason::kTimeout;
  hub.add(1, w.vcs()[1], [&](bool o, OrchReason r) {
    added = o;
    reason = r;
  });
  w.p->run_until(2 * kSecond);
  EXPECT_TRUE(added);
  EXPECT_EQ(reason, OrchReason::kOk);

  w.llo().orch_request(2, {w.vcs()[0]}, nullptr);
  w.p->run_until(3 * kSecond);
  ASSERT_EQ(w.llo().session_phase(2), orch::SessionPhase::kIdle);
  reason = OrchReason::kOk;
  w.llo().add(2, {0xdead, w.server_host->id, w.star.hub->id},
              [&](bool, OrchReason r) { reason = r; });
  EXPECT_EQ(reason, OrchReason::kNoCommonNode);
}

TEST(LloAddRemove, RemoveRetriedAfterAnEndpointRestartSucceeds) {
  // Remove is idempotent at the endpoint.  A Remove whose source end is
  // silent times out and keeps the VC in the group although its sink has
  // detached; once the source's LLO is back (with no attachment), a
  // retried Remove completes, and the VC can rejoin a usable group.
  OrchWorld w;
  const transport::VcId vc = w.vcs()[0].vc;
  bool est = false;
  w.llo().orch_request(1, {w.vcs()[0]}, [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  const Duration op_timeout = w.llo().op_timeout();
  w.llo().set_op_timeout(300 * kMillisecond);
  w.server_host->llo.crash();
  std::optional<OrchReason> first;
  w.llo().remove(1, vc, [&](bool, OrchReason r) { first = r; });
  w.p->run_until(2 * kSecond);
  EXPECT_EQ(first, OrchReason::kTimeout);
  w.llo().set_op_timeout(op_timeout);  // priming takes longer than 300 ms

  w.server_host->llo.restart();
  std::optional<OrchReason> stuck;
  w.llo().prime(1, false, [&](bool, OrchReason r) { stuck = r; });
  w.p->run_until(3 * kSecond);
  EXPECT_EQ(stuck, OrchReason::kNoSession);  // still a member, detached at both ends

  bool removed = false;
  w.llo().remove(1, vc, [&](bool o, OrchReason) { removed = o; });
  w.p->run_until(4 * kSecond);
  EXPECT_TRUE(removed);
  bool added = false;
  w.llo().add(1, w.vcs()[0], [&](bool o, OrchReason) { added = o; });
  w.p->run_until(5 * kSecond);
  EXPECT_TRUE(added);
  bool primed = false;
  w.llo().prime(1, false, [&](bool o, OrchReason) { primed = o; });
  w.p->run_until(7 * kSecond);
  EXPECT_TRUE(primed);
}

TEST(LloRemove, UnknownVcFails) {
  OrchWorld w;
  bool est = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  bool ok = true;
  OrchReason r = OrchReason::kOk;
  w.llo().remove(1, 0xabc, [&](bool o, OrchReason reason) {
    ok = o;
    r = reason;
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(r, OrchReason::kNoSuchVc);
}

TEST(LloEvent, PatternMatchRaisesIndication) {
  OrchWorld w;
  // Recreate the video track with an event every 100 frames.
  // (Simpler: new world with event_every configured.)
  StarPlatform star2(2, lan_link(), 7);
  platform::Platform& p = star2.platform;
  StoredMediaServer server(p, *star2.leaves[0], "s");
  TrackConfig t;
  t.track_id = 3;
  t.auto_start = true;
  t.event_every = 50;
  t.event_value = 0xbeef;
  t.vbr.base_bytes = 512;
  const auto src = server.add_track(100, t);
  RenderConfig rc;
  rc.expect_track = 3;
  RenderingSink sink(p, *star2.leaves[1], 200, rc);
  platform::Stream stream(p, *star2.leaves[1], "s");
  platform::VideoQos vq;
  vq.frames_per_second = 50;
  bool connected = false;
  stream.connect(src, {star2.leaves[1]->id, 200}, vq, {}, [&](bool ok, auto) { connected = ok; });
  p.run_until(500 * kMillisecond);
  ASSERT_TRUE(connected);

  auto& llo = star2.leaves[1]->llo;
  bool est = false;
  llo.orch_request(1, {stream.orch_spec().vc}, [&](bool o, OrchReason) { est = o; });
  p.run_until(kSecond);
  ASSERT_TRUE(est);

  std::vector<orch::EventIndication> events;
  llo.set_event_callback(1, [&](const orch::EventIndication& e) { events.push_back(e); });
  llo.register_event(1, stream.orch_spec().vc.vc, 0xbeef);
  p.run_until(6 * kSecond);

  ASSERT_GE(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.event_value, 0xbeefu);
    EXPECT_EQ(e.osdu_seq % 50, 0u);
    EXPECT_NE(e.osdu_seq, 0u);
  }
}

TEST(LloEvent, MaskedMatch) {
  // Pattern matching uses (event & mask) == pattern.
  StarPlatform star2(2, lan_link(), 8);
  platform::Platform& p = star2.platform;
  StoredMediaServer server(p, *star2.leaves[0], "s");
  TrackConfig t;
  t.track_id = 3;
  t.auto_start = true;
  t.event_every = 10;
  t.event_value = 0x1234;  // low 8 bits: 0x34
  t.vbr.base_bytes = 256;
  const auto src = server.add_track(100, t);
  RenderConfig rc;
  RenderingSink sink(p, *star2.leaves[1], 200, rc);
  platform::Stream stream(p, *star2.leaves[1], "s");
  platform::VideoQos vq;
  vq.frames_per_second = 50;
  stream.connect(src, {star2.leaves[1]->id, 200}, vq, {}, nullptr);
  p.run_until(500 * kMillisecond);

  auto& llo = star2.leaves[1]->llo;
  llo.orch_request(1, {stream.orch_spec().vc}, nullptr);
  p.run_until(kSecond);
  int matches = 0;
  llo.set_event_callback(1, [&](const orch::EventIndication&) { ++matches; });
  llo.register_event(1, stream.orch_spec().vc.vc, 0x34, 0xff);  // low byte only
  p.run_until(4 * kSecond);
  EXPECT_GT(matches, 5);
}

TEST(LloRegulate, ReportsPositionDropsAndBlockTimes) {
  OrchWorld w;
  bool est = false;
  w.llo().orch_request(1, w.vcs(), [&](bool o, OrchReason) { est = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(est);
  w.llo().prime(1, false, nullptr);
  w.p->run_until(3 * kSecond);
  w.llo().start(1, nullptr);
  w.p->run_until(3500 * kMillisecond);

  std::vector<orch::RegulateIndication> inds;
  w.llo().set_regulate_callback(1, [&](const orch::RegulateIndication& i) { inds.push_back(i); });

  // Video plays at 25/s; ask for a plausible target over 400 ms.
  auto* vconn = w.sink_host->entity.sink(w.vcs()[0].vc);
  const std::int64_t cur = vconn->last_delivered_seq();
  w.llo().regulate(1, w.vcs()[0].vc, 10, 2, 400 * kMillisecond, 77);
  w.p->run_until(5 * kSecond);

  ASSERT_EQ(inds.size(), 1u);
  EXPECT_EQ(inds[0].interval_id, 77u);
  EXPECT_EQ(inds[0].vc, w.vcs()[0].vc);
  EXPECT_FALSE(inds[0].partial);
  EXPECT_NEAR(static_cast<double>(inds[0].delivered_seq), static_cast<double>(cur + 10), 3.0);
  // The stored server pumps as fast as the ring accepts, so its producer
  // thread spent essentially the whole interval blocked on the full ring.
  EXPECT_GT(inds[0].src_app_blocked, 100 * kMillisecond);
}

TEST(LloRegulate, MaxDropZeroNeverDrops) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), nullptr);
  w.p->run_until(kSecond);
  w.llo().prime(1, false, nullptr);
  w.p->run_until(3 * kSecond);
  w.llo().start(1, nullptr);
  w.p->run_until(3500 * kMillisecond);

  std::vector<orch::RegulateIndication> inds;
  w.llo().set_regulate_callback(1, [&](const orch::RegulateIndication& i) { inds.push_back(i); });
  // Unreachable target (far ahead), but zero drop budget.
  w.llo().regulate(1, w.vcs()[0].vc, 1000, 0, 400 * kMillisecond, 1);
  w.p->run_until(5 * kSecond);
  ASSERT_EQ(inds.size(), 1u);
  EXPECT_EQ(inds[0].dropped, 0u);
  auto* src = w.server_host->entity.source(w.vcs()[0].vc);
  EXPECT_EQ(src->stats().osdus_dropped_at_source, 0);
}

TEST(LloRegulate, BehindTargetUsesBoundedDrops) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), nullptr);
  w.p->run_until(kSecond);
  w.llo().prime(1, false, nullptr);
  w.p->run_until(3 * kSecond);
  w.llo().start(1, nullptr);
  w.p->run_until(3500 * kMillisecond);

  std::vector<orch::RegulateIndication> inds;
  w.llo().set_regulate_callback(1, [&](const orch::RegulateIndication& i) { inds.push_back(i); });
  // Target far ahead with a budget of 5: exactly <=5 drops happen.
  w.llo().regulate(1, w.vcs()[0].vc, 1000, 5, 400 * kMillisecond, 2);
  w.p->run_until(5 * kSecond);
  ASSERT_EQ(inds.size(), 1u);
  EXPECT_GT(inds[0].dropped, 0u);
  EXPECT_LE(inds[0].dropped, 5u);
}

TEST(LloRegulate, AheadOfTargetHoldsDelivery) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), nullptr);
  w.p->run_until(kSecond);
  w.llo().prime(1, false, nullptr);
  w.p->run_until(3 * kSecond);
  w.llo().start(1, nullptr);
  w.p->run_until(3500 * kMillisecond);

  std::vector<orch::RegulateIndication> inds;
  w.llo().set_regulate_callback(1, [&](const orch::RegulateIndication& i) { inds.push_back(i); });
  auto* vconn = w.sink_host->entity.sink(w.vcs()[0].vc);
  const std::int64_t cur = vconn->last_delivered_seq();
  // Target: do not advance at all (hold).
  w.llo().regulate(1, w.vcs()[0].vc, 0, 0, 400 * kMillisecond, 3);
  w.p->run_until(4200 * kMillisecond);
  ASSERT_EQ(inds.size(), 1u);
  // Delivery was held to the target (1-2 frames of slack from slotting).
  EXPECT_LE(inds[0].delivered_seq, cur + 2);
  // After the interval the hold lifts and play-out resumes.
  w.p->run_until(6 * kSecond);
  EXPECT_GT(vconn->last_delivered_seq(), cur + 10);
}

// --- Session phase machine: every illegal primitive gets a distinct
// rejection reason (and the contract layer guards the transitions) --------

TEST(LloStateMachine, GroupOpBeforeEstablishmentIsNotEstablished) {
  OrchWorld w;
  // Issue the prime while Orch.request is still collecting acks: the
  // session object exists but is not yet established.
  w.llo().orch_request(1, w.vcs(), [](bool, OrchReason) {});
  bool done = false;
  w.llo().prime(1, false, [&](bool ok, OrchReason r) {
    done = true;
    EXPECT_FALSE(ok);
    EXPECT_EQ(r, OrchReason::kNotEstablished);
  });
  EXPECT_TRUE(done);  // rejected synchronously
  w.p->run_until(kSecond);  // establishment itself still completes
  EXPECT_TRUE(w.llo().has_session(1));
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kIdle);
}

TEST(LloStateMachine, FailedEstablishmentIsNotEstablished) {
  // One endpoint acks, another refuses: the session never leaves
  // kEstablishing, so a group primitive is refused as not established.
  OrchWorld w;
  auto vcs = w.vcs();
  vcs[1].vc = 0xdeadbeef;  // no such VC anywhere
  bool ok = true;
  w.llo().orch_request(1, vcs, [&](bool o, OrchReason) { ok = o; });
  w.p->run_until(kSecond);
  ASSERT_FALSE(ok);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kEstablishing);
  bool refused = false;
  OrchReason reason = OrchReason::kOk;
  w.llo().prime(1, false, [&](bool o, OrchReason r) {
    refused = !o;
    reason = r;
  });
  EXPECT_TRUE(refused);
  EXPECT_EQ(reason, OrchReason::kNotEstablished);
}

TEST(LloStateMachine, FailedOpRevertsPhaseAndMembership) {
  // Every group op against an endpoint that has lost its attachment fails,
  // reverts the phase it was issued in and leaves the membership as it
  // was.  The video source's LLO crashes: silent, the op times out;
  // restarted, the endpoint answers kNoSession.  A membership op succeeds
  // against a restarted endpoint (a joiner attaches afresh, a leaver has
  // nothing left to detach), so Add and Remove only have the silent case.
  using orch::SessionPhase;
  using Done = std::function<void(bool, std::optional<OrchReason>)>;
  struct Row {
    const char* name;
    SessionPhase from;
    bool membership;
    std::function<void(OrchWorld&, Done)> op;
  };
  const Row rows[] = {
      {"prime", SessionPhase::kIdle, false,
       [](OrchWorld& w, Done d) { w.llo().prime(1, false, d); }},
      {"start", SessionPhase::kIdle, false,
       [](OrchWorld& w, Done d) {
         w.llo().start(1, [d](bool ok, const auto&) { d(ok, std::nullopt); });
       }},
      {"stop", SessionPhase::kPrimed, false,
       [](OrchWorld& w, Done d) { w.llo().stop(1, d); }},
      {"add", SessionPhase::kIdle, true,
       [](OrchWorld& w, Done d) { w.llo().add(1, w.vcs()[1], d); }},
      {"remove", SessionPhase::kIdle, true,
       [](OrchWorld& w, Done d) { w.llo().remove(1, w.vcs()[0].vc, d); }},
  };
  for (const bool restarted : {false, true}) {
    for (const Row& row : rows) {
      if (restarted && row.membership) continue;
      SCOPED_TRACE(std::string(row.name) + (restarted ? " restarted" : " silent"));
      OrchWorld w;
      w.llo().orch_request(1, {w.vcs()[0]}, nullptr);
      w.p->run_until(kSecond);
      if (row.from == SessionPhase::kPrimed) {
        w.llo().prime(1, false, nullptr);
        w.p->run_until(3 * kSecond);
      }
      ASSERT_EQ(w.llo().session_phase(1), row.from);
      w.llo().set_op_timeout(300 * kMillisecond);
      w.server_host->llo.crash();
      if (restarted) w.server_host->llo.restart();

      bool failed = false;
      std::optional<OrchReason> reason;
      row.op(w, [&](bool ok, std::optional<OrchReason> r) {
        failed = !ok;
        reason = r;
      });
      w.p->run_until(w.p->scheduler().now() + kSecond);
      EXPECT_TRUE(failed);
      if (reason) {
        EXPECT_EQ(*reason, restarted ? OrchReason::kNoSession : OrchReason::kTimeout);
      }
      EXPECT_EQ(w.llo().session_phase(1), row.from);
      // Membership, read through admission: the video VC is still a member
      // (re-adding it is refused) and the audio VC is not (removing it is).
      OrchReason readd = OrchReason::kOk;
      OrchReason unknown = OrchReason::kOk;
      w.llo().add(1, w.vcs()[0], [&](bool, OrchReason r) { readd = r; });
      w.llo().remove(1, w.vcs()[1].vc, [&](bool, OrchReason r) { unknown = r; });
      EXPECT_EQ(readd, OrchReason::kIllegalTransition);
      EXPECT_EQ(unknown, OrchReason::kNoSuchVc);
    }
  }
}

TEST(LloStateMachine, GroupOpOverAnEmptyGroupConcludesAtOnce) {
  // The session's only stream is disconnected: its endpoints report
  // kVcDead and the group is left empty.  A group op over it has no ack to
  // wait for, so it concludes in the call instead of at the op timeout.
  OrchWorld w;
  bool established = false;
  w.llo().orch_request(1, {w.vcs()[0]}, [&](bool o, OrchReason) { established = o; });
  w.p->run_until(kSecond);
  ASSERT_TRUE(established);
  w.vstream->disconnect();
  w.p->run_until(2 * kSecond);

  std::optional<bool> primed;
  OrchReason reason = OrchReason::kTimeout;
  w.llo().prime(1, false, [&](bool ok, OrchReason r) {
    primed = ok;
    reason = r;
  });
  ASSERT_TRUE(primed.has_value());  // no simulated time passed
  EXPECT_TRUE(*primed);
  EXPECT_EQ(reason, OrchReason::kOk);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kPrimed);
}

TEST(LloStateMachine, OverlappingGroupOpsAreOpInProgress) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), [](bool, OrchReason) {});
  w.p->run_until(kSecond);
  w.llo().prime(1, false, [](bool, OrchReason) {});
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kPriming);
  bool done = false;
  w.llo().start(1, [&](bool ok, const auto&) {
    done = true;
    EXPECT_FALSE(ok);
  });
  EXPECT_TRUE(done);  // second op rejected while the first collects acks
}

TEST(LloStateMachine, StopWhenIdleIsIllegalTransition) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), [](bool, OrchReason) {});
  w.p->run_until(kSecond);
  ASSERT_EQ(w.llo().session_phase(1), orch::SessionPhase::kIdle);
  bool done = false;
  w.llo().stop(1, [&](bool ok, OrchReason r) {
    done = true;
    EXPECT_FALSE(ok);
    EXPECT_EQ(r, OrchReason::kIllegalTransition);
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kIdle);
}

TEST(LloStateMachine, AddOnReleasedSessionIsNoSession) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), [](bool, OrchReason) {});
  w.p->run_until(kSecond);
  w.llo().orch_release(1);
  w.p->run_until(2 * kSecond);
  ASSERT_FALSE(w.llo().has_session(1));
  bool done = false;
  w.llo().add(1, w.vcs()[0], [&](bool ok, OrchReason r) {
    done = true;
    EXPECT_FALSE(ok);
    EXPECT_EQ(r, OrchReason::kNoSession);
  });
  EXPECT_TRUE(done);
}

TEST(LloStateMachine, PhaseTracksPrimeStartStopLifecycle) {
  OrchWorld w;
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kEstablishing);  // unknown session
  w.llo().orch_request(1, w.vcs(), [](bool, OrchReason) {});
  w.p->run_until(kSecond);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kIdle);

  w.llo().prime(1, false, [](bool, OrchReason) {});
  w.p->run_until(3 * kSecond);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kPrimed);

  w.llo().start(1, [](bool, const auto&) {});
  w.p->run_until(4 * kSecond);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kRunning);

  w.llo().stop(1, [](bool, OrchReason) {});
  w.p->run_until(5 * kSecond);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kStopped);

  // Restart after stop needs no re-prime: data stayed buffered.
  w.llo().start(1, [](bool, const auto&) {});
  w.p->run_until(6 * kSecond);
  EXPECT_EQ(w.llo().session_phase(1), orch::SessionPhase::kRunning);
}

TEST(LloDelayed, ReachesApplicationThread) {
  OrchWorld w;
  w.llo().orch_request(1, w.vcs(), nullptr);
  w.p->run_until(kSecond);
  w.llo().delayed(1, w.vcs()[0].vc, true, 12);
  w.p->run_until(2 * kSecond);
  EXPECT_EQ(w.server->stats(100).delayed_indications, 1);
  w.llo().delayed(1, w.vcs()[0].vc, false, 5);
  w.p->run_until(3 * kSecond);
  EXPECT_EQ(w.video_sink->stats().delayed_indications, 1);
}

}  // namespace
}  // namespace cmtos::test
