// overload.cpp — closed-loop graceful-degradation rows.  Where the chaos
// rows prove the stack survives faults, these prove it survives overload:
// sustained QoS violations drive the QosManager down its degradation ladder
// and back up when conditions clear; admission under contention preempts
// the least important stream instead of refusing the most important one;
// and a stalled consumer sheds stale media instead of wedging the VC.
//
//   storm_recover   a jitter + loss storm hits the video path for 8 s; the
//                   manager walks the video ladder down (audio, coupled to
//                   the lagging video by lip-sync regulation, may ride down
//                   too); a stream whose floor still violates parks at the
//                   floor and keeps indicating, and after the storm the
//                   probes climb both streams back to the preferred rung
//   preempt         two low-importance streams fill a thin link; a
//                   high-importance connect preempts the least important
//                   one (kPreempted delivered to its manager) and is
//                   admitted at full preferred QoS
//   consumer_stall  the sink application stops consuming for 3 s; the
//                   watermark shedder drops stale OSDUs, the VC survives,
//                   and delivery resumes when the consumer returns

#include <memory>

#include "media/sink.h"
#include "media/stored_server.h"
#include "obs/metrics.h"
#include "platform/host.h"
#include "platform/qos_manager.h"
#include "platform/stream.h"
#include "net/chaos.h"
#include "soak.h"

namespace cmtos::soak {
namespace {

/// Small frame so every video OSDU is a single TPDU: per-packet link jitter
/// then shows up undamped in the monitor's OSDU delay spread, which is the
/// violation axis the storm scenario drives.
platform::VideoQos small_video() {
  platform::VideoQos vq;
  vq.width = 176;
  vq.height = 144;
  vq.frames_per_second = 25;
  vq.compression = 60;
  return vq;
}

// ====================================================================
// storm_recover
// ====================================================================

struct StormWorld {
  explicit StormWorld(std::uint64_t seed, unsigned threads) : platform(seed) {
    platform.set_threads(threads);
    hub = &platform.add_host("hub");
    vidsrv = &platform.add_host("vidsrv");
    audsrv = &platform.add_host("audsrv");
    ws = &platform.add_host("ws");
    net::LinkConfig link;
    link.bandwidth_bps = 10'000'000;
    link.propagation_delay = 1 * kMillisecond;
    for (auto* h : {vidsrv, audsrv, ws}) platform.network().add_link(hub->id, h->id, link);
    platform.network().finalize_routes();

    const platform::VideoQos vq = small_video();
    platform::AudioQos aq;  // 8 kHz / 50 blocks per second

    vserver = std::make_unique<media::StoredMediaServer>(platform, *vidsrv, "vidsrv");
    media::TrackConfig vt;
    vt.track_id = 1;
    vt.auto_start = false;
    vt.vbr.base_bytes = vq.frame_bytes();
    vt.vbr.gop = 0;
    vt.vbr.wobble = 0;
    const net::NetAddress va = vserver->add_track(100, vt);

    aserver = std::make_unique<media::StoredMediaServer>(platform, *audsrv, "audsrv");
    media::TrackConfig at;
    at.track_id = 2;
    at.auto_start = false;
    at.vbr.base_bytes = aq.block_bytes();
    at.vbr.gop = 0;
    at.vbr.wobble = 0;
    const net::NetAddress aa = aserver->add_track(101, at);

    media::RenderConfig r;
    r.expect_track = 1;
    vsink = std::make_unique<media::RenderingSink>(platform, *ws, 200, r);
    r.expect_track = 2;
    asink = std::make_unique<media::RenderingSink>(platform, *ws, 201, r);

    // Error control must correct: under indicate-only a loss storm thins
    // completions in proportion to the offered load at *every* rung, so no
    // amount of degradation clears the violation and the ladder can only
    // park at the floor and keep indicating.  With correction the storm is
    // survivable — jitter drives the ladder instead.
    transport::ServiceClass sc;
    sc.error_control = transport::ErrorControl::kCorrectAndIndicate;

    video = std::make_unique<platform::Stream>(platform, *vidsrv, "video");
    audio = std::make_unique<platform::Stream>(platform, *audsrv, "audio");
    int connected = 0;
    auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
    for (auto* s : {video.get(), audio.get()}) {
      s->set_buffer_osdus(8);
      s->set_sample_period(250 * kMillisecond);
    }
    video->connect(va, {ws->id, 200}, vq, sc, on_conn);
    audio->connect(aa, {ws->id, 201}, aq, sc, on_conn);
    platform.run_until(500 * kMillisecond);
    ok = connected == 2;
  }

  bool establish_and_start() {
    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    policy.allow_no_common_node = true;
    bool established = false;
    session = platform.orchestrator().orchestrate(
        {video->orch_spec(2), audio->orch_spec(2)}, policy,
        [&](bool est, orch::OrchReason) { established = est; });
    if (session == nullptr) return false;
    platform.run_until(platform.scheduler().now() + kSecond);
    if (!established) return false;
    bool primed = false, started = false;
    session->prime(false, [&](bool p, auto) { primed = p; });
    platform.run_until(platform.scheduler().now() + 2 * kSecond);
    if (!primed) return false;
    session->start([&](bool st, auto) { started = st; });
    platform.run_until(platform.scheduler().now() + kSecond);
    return started;
  }

  platform::Platform platform;
  platform::Host* hub = nullptr;
  platform::Host* vidsrv = nullptr;
  platform::Host* audsrv = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<media::StoredMediaServer> vserver, aserver;
  std::unique_ptr<media::RenderingSink> vsink, asink;
  std::unique_ptr<platform::Stream> video, audio;
  std::unique_ptr<orch::OrchSession> session;
  bool ok = false;
};

bool storm_recover(std::uint64_t seed, unsigned threads) {
  StormWorld w(seed, threads);
  if (!w.ok) return fail("world setup");
  if (!w.establish_and_start()) return fail("session setup");

  platform::QosManager mgr(w.platform);
  mgr.manage(*w.video);
  mgr.manage(*w.audio);
  mgr.attach_agent(w.session->agent());

  net::ChaosEngine engine(w.platform.network());
  net::ChaosPlan plan;
  plan.seed = seed;
  const Time t0 = w.platform.scheduler().now() + 2 * kSecond;
  // 80 ms per-packet jitter overwhelms the video ladder's 40 ms preferred
  // tolerance but stays inside its 80 ms floor, so a survivable rung
  // exists; the 5% loss rides along to exercise RN/NAK retransmission on
  // the renegotiation path (corrected, so it does not violate PER).
  plan.jitter_storm(t0, w.vidsrv->id, w.hub->id, 80 * kMillisecond, 8 * kSecond);
  plan.loss_storm(t0, w.vidsrv->id, w.hub->id, 0.05, 8 * kSecond);
  engine.arm(plan);

  // Through the storm...  Audio shares the orchestration session, so
  // regulation trades its fidelity for lip-sync with the delayed video
  // (drop-at-source shows up as jitter in its own contract): it may ride
  // its ladder down too, but must stay connected.
  w.platform.run_until(t0 + 8 * kSecond);
  if (engine.injected() < 2) return fail("storms not injected");
  if (mgr.totals().degrades < 1) return fail("no automatic degrade during the storm");
  if (!w.video->connected()) return fail("video did not survive the storm");
  if (mgr.ladder_level(*w.video) < 1) return fail("video ladder never left the preferred rung");
  if (!w.audio->connected()) return fail("audio did not survive the storm");

  // ...and out the other side: probes climb back to the preferred rung.
  const auto frames_before = w.vsink->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 20 * kSecond);
  if (mgr.totals().upgrades < 1) return fail("no automatic upgrade after the storm");
  if (mgr.ladder_level(*w.video) != 0) return fail("video did not recover to preferred QoS");
  if (mgr.ladder_level(*w.audio) != 0) return fail("audio did not recover to preferred QoS");
  if (!w.video->connected() || !w.audio->connected()) return fail("stream lost");
  if (w.vsink->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

// ====================================================================
// preempt
// ====================================================================

bool preempt(std::uint64_t seed, unsigned threads) {
  platform::Platform platform(seed);
  platform.set_threads(threads);
  auto& src1 = platform.add_host("src1");
  auto& src2 = platform.add_host("src2");
  auto& hub = platform.add_host("hub");
  auto& ws = platform.add_host("ws");
  net::LinkConfig fat;
  fat.bandwidth_bps = 10'000'000;
  fat.propagation_delay = 1 * kMillisecond;
  platform.network().add_link(src1.id, hub.id, fat);
  platform.network().add_link(src2.id, hub.id, fat);
  // The contended link: reservable capacity (90%) holds two default video
  // streams (~1.33 Mbit/s each incl. control) but not a third.
  net::LinkConfig thin = fat;
  thin.bandwidth_bps = 3'333'333;
  platform.network().add_link(hub.id, ws.id, thin);
  platform.network().finalize_routes();

  platform::VideoQos vq;  // default 352x288: ~5 fragments, ~1.2 Mbit/s
  vq.frames_per_second = 25;

  media::StoredMediaServer server1(platform, src1, "src1");
  media::StoredMediaServer server2(platform, src2, "src2");
  media::TrackConfig t;
  t.vbr.base_bytes = vq.frame_bytes();
  t.vbr.gop = 0;
  t.vbr.wobble = 0;
  t.track_id = 1;
  const net::NetAddress a1 = server1.add_track(100, t);
  t.track_id = 2;
  const net::NetAddress a2 = server2.add_track(101, t);
  t.track_id = 3;
  const net::NetAddress a3 = server1.add_track(102, t);

  media::RenderConfig r;
  r.expect_track = 1;
  media::RenderingSink sink1(platform, ws, 200, r);
  r.expect_track = 2;
  media::RenderingSink sink2(platform, ws, 201, r);
  r.expect_track = 3;
  media::RenderingSink sink3(platform, ws, 202, r);

  // Importance classes: background (0), normal (1), critical (5).  The
  // Streams live on the source hosts so the preemption indication reaches
  // the managing object directly.
  platform::Stream sa(platform, src1, "background");
  platform::Stream sb(platform, src2, "normal");
  platform::Stream sc(platform, src1, "critical");
  sa.set_importance(0);
  sb.set_importance(1);
  sc.set_importance(5);

  transport::DisconnectReason a_reason = transport::DisconnectReason::kUserInitiated;
  bool a_gone = false;
  sa.set_on_disconnected([&](transport::DisconnectReason reason) {
    a_gone = true;
    a_reason = reason;
  });
  bool b_gone = false;
  sb.set_on_disconnected([&](transport::DisconnectReason) { b_gone = true; });

  int connected = 0;
  auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
  sa.connect(a1, {ws.id, 200}, vq, {}, on_conn);
  sb.connect(a2, {ws.id, 201}, vq, {}, on_conn);
  platform.run_until(500 * kMillisecond);
  if (connected != 2) return fail("low-importance streams did not connect");

  bool c_ok = false;
  transport::QosParams c_agreed;
  sc.connect(a3, {ws.id, 202}, vq, {}, [&](bool conn_ok, transport::QosParams agreed) {
    c_ok = conn_ok;
    c_agreed = agreed;
  });
  platform.run_until(platform.scheduler().now() + kSecond);

  if (!c_ok) return fail("critical stream refused despite preemptable load");
  if (!a_gone || a_reason != transport::DisconnectReason::kPreempted)
    return fail("background stream not preempted");
  if (b_gone || !sb.connected()) return fail("normal stream should have survived");
  if (sa.connected()) return fail("preempted stream still reports connected");
  // Full preferred QoS: the freed reservation covered the new stream.
  if (c_agreed.osdu_rate < vq.frames_per_second - 1e-9)
    return fail("critical stream admitted degraded");
  if (obs::Registry::global().total("admission.preempt") < 1)
    return fail("admission.preempt not counted");

  // The survivors keep playing.
  const auto f2 = sink2.stats().frames_rendered;
  const auto f3 = sink3.stats().frames_rendered;
  platform.run_until(platform.scheduler().now() + 2 * kSecond);
  if (sink2.stats().frames_rendered <= f2) return fail("normal stream playback stalled");
  if (sink3.stats().frames_rendered <= f3) return fail("critical stream playback stalled");
  return true;
}

// ====================================================================
// consumer_stall
// ====================================================================

/// A sink application with an on/off switch: consumes at the contracted
/// rate until stalled, consumes nothing while stalled.  Models the §3.7
/// slow-consumer case the watermark shedder exists for.
class StallSink : public platform::DeviceUser {
 public:
  StallSink(platform::Platform& platform, platform::Host& host, net::Tsap tsap)
      : DeviceUser(host.entity, tsap), platform_(platform) {}

  void set_stalled(bool stalled) { stalled_ = stalled; }
  transport::Connection* conn() { return conn_; }
  std::int64_t consumed() const { return consumed_; }

 protected:
  void on_sink_ready(transport::VcId, transport::Connection& conn) override {
    conn_ = &conn;
    const double rate = conn.agreed_qos().osdu_rate;
    period_ = static_cast<Duration>(1e9 / (rate > 0 ? rate : 25.0));
    tick();
  }
  void on_disconnected(transport::VcId, transport::DisconnectReason) override {
    conn_ = nullptr;
    tick_.cancel();
  }

 private:
  void tick() {
    if (conn_ != nullptr && !stalled_) {
      if (conn_->receive()) ++consumed_;
    }
    tick_.after(platform_.scheduler(), period_, [this] { tick(); });
  }

  platform::Platform& platform_;
  transport::Connection* conn_ = nullptr;
  Duration period_ = 40 * kMillisecond;
  bool stalled_ = false;
  std::int64_t consumed_ = 0;
  sim::Timer tick_;
};

bool consumer_stall(std::uint64_t seed, unsigned threads) {
  platform::Platform platform(seed);
  platform.set_threads(threads);
  auto& src = platform.add_host("src");
  auto& ws = platform.add_host("ws");
  net::LinkConfig link;
  link.bandwidth_bps = 10'000'000;
  link.propagation_delay = 1 * kMillisecond;
  platform.network().add_link(src.id, ws.id, link);
  platform.network().finalize_routes();

  const platform::VideoQos vq = small_video();
  media::StoredMediaServer server(platform, src, "src");
  media::TrackConfig t;
  t.track_id = 1;
  t.vbr.base_bytes = vq.frame_bytes();
  t.vbr.gop = 0;
  t.vbr.wobble = 0;
  const net::NetAddress a = server.add_track(100, t);

  StallSink sink(platform, ws, 200);

  platform::Stream s(platform, src, "stalled");
  s.set_buffer_osdus(8);
  s.set_shed_watermark(50);  // shed when the ring is half full and stuck
  bool connected = false;
  s.connect(a, {ws.id, 200}, vq, {}, [&](bool conn_ok, auto) { connected = conn_ok; });
  platform.run_until(500 * kMillisecond);
  if (!connected || sink.conn() == nullptr) return fail("stream did not connect");

  // Normal consumption, then a 3 s stall, then recovery.
  platform.run_until(2 * kSecond);
  const auto consumed_before = sink.consumed();
  if (consumed_before <= 0) return fail("no delivery before the stall");

  sink.set_stalled(true);
  platform.run_until(5 * kSecond);
  const auto& stats = sink.conn()->stats();
  if (stats.osdus_shed <= 0) return fail("stalled consumer shed nothing");
  if (!s.connected()) return fail("VC did not survive the stall");

  sink.set_stalled(false);
  const auto consumed_at_resume = sink.consumed();
  platform.run_until(9 * kSecond);
  if (sink.consumed() <= consumed_at_resume) return fail("delivery did not resume");
  if (!s.connected()) return fail("VC lost after the stall");
  // Shedding is bounded staleness, not teardown: the stream buffer blocked
  // the producer during the stall and the episode shows in the stats.
  if (sink.conn()->stats().osdus_delivered <= 0) return fail("no post-stall delivery stats");
  return true;
}

}  // namespace

std::vector<Scenario> overload_scenarios() {
  return {
      {"storm_recover", storm_recover},
      {"preempt", preempt},
      {"consumer_stall", consumer_stall},
  };
}

}  // namespace cmtos::soak
