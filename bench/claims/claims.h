// claims.h — the claim table behind the `claims` driver, and the canned
// worlds its rows share.
//
// The paper is a design paper: its tables specify service primitives and
// its figures architecture and time sequences.  Every reproduced result is
// one row of the claim table: a name, the paper artifact it reproduces and
// a run function.  The row builds its own world, prints its table and
// checks its own oracles in C++ — exact where the simulated world is
// deterministic, a shape judged over a seed sweep where it draws
// randomness.  Wall-clock figures are printed and recorded as headline
// gauges but never gated.  Each area file contributes its rows (DESIGN.md
// §3 indexes them; EXPERIMENTS.md quotes their output).

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "media/live_source.h"
#include "obs/metrics.h"
#include "media/sink.h"
#include "media/stored_server.h"
#include "media/sync_meter.h"
#include "platform/host.h"
#include "platform/stream.h"

namespace cmtos::bench {

/// A row's oracles.  Every failed check prints one `claims: FAILED:` line
/// on stderr naming what was checked, the value measured and the bound;
/// passed() is the row's verdict.
class Oracle {
 public:
  /// `got` equals `want` to within `tol` (the printed precision).
  void near(const std::string& what, double got, double want, double tol = 1e-3) {
    expect(std::abs(got - want) <= tol, what, fmt(got), fmt(want));
  }
  // Bounds are round figures; skews and rates carry float noise from the
  // media timeline arithmetic, hence the relative slack.
  void at_most(const std::string& what, double got, double bound) {
    expect(got <= bound + 1e-9 * std::max(1.0, std::abs(bound)), what, fmt(got),
           "<= " + fmt(bound));
  }
  void at_least(const std::string& what, double got, double bound) {
    expect(got >= bound - 1e-9 * std::max(1.0, std::abs(bound)), what, fmt(got),
           ">= " + fmt(bound));
  }
  void holds(const std::string& what, bool ok) { expect(ok, what, "false", "true"); }
  bool passed() const { return passed_; }

 private:
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }
  void expect(bool ok, const std::string& what, const std::string& got, const std::string& want) {
    if (ok) return;
    std::fprintf(stderr, "claims: FAILED: %s: got %s, want %s\n", what.c_str(), got.c_str(),
                 want.c_str());
    passed_ = false;
  }

  bool passed_ = true;
};

struct Claim {
  const char* name;
  /// The paper artifact the row reproduces and what its table shows.
  const char* artifact;
  /// Seed of the committed run (the first seed of a sweep); --seed
  /// overrides it.
  std::uint64_t seed;
  /// Runs the row at `seed`, printing its table and checking its oracles.
  void (*run)(std::uint64_t seed, Oracle& check);
};

std::vector<Claim> regulation_claims();
std::vector<Claim> prime_start_claims();
std::vector<Claim> connect_claims();
std::vector<Claim> qos_monitor_claims();
std::vector<Claim> renegotiate_claims();
std::vector<Claim> orchestration_claims();
std::vector<Claim> event_claims();
std::vector<Claim> multiplex_claims();
std::vector<Claim> rate_vs_window_claims();
std::vector<Claim> admission_claims();
std::vector<Claim> failover_claims();
std::vector<Claim> scale_claims();

/// The data-plane pump: 64 KiB OSDUs at 250/s from `a` to `b`, a 1 s
/// warmup, then `timed` of measured pumping.  Over a clean pump_link() the
/// run is CPU-bound — segmentation, encoding, link transit, reassembly and
/// delivery, exactly what the zero-copy two-world split targets — so it
/// reports wall-clock throughput, cycles and heap allocations per OSDU.
struct PumpResult {
  std::int64_t delivered = 0;
  std::int64_t delivered_bytes = 0;
  double wall_s = 0;
  double cycles_per_osdu = 0;
  double allocs_per_osdu = 0;
};
PumpResult pump(platform::Platform& p, platform::Host& a, platform::Host& b,
                transport::ProtocolProfile profile, Duration timed);
/// pump() for 8 s on a fresh two-host world joined by a pump_link().
PumpResult pump(std::uint64_t seed, transport::ProtocolProfile profile);

/// 1 Gbit/s, 1 ms, batched media serialisation/delivery events.
inline net::LinkConfig pump_link() {
  net::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.propagation_delay = 1 * kMillisecond;
  link.media_batch_max = 32;
  return link;
}

/// Wall-clock seconds `fn` takes (for the printed, ungated figures).
template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// A loss rate as a whole percentage ("5%").
inline std::string pct(double rate) {
  return std::to_string(static_cast<int>(rate * 100 + 0.5)) + "%";
}

/// Records one headline metric in the snapshot --json writes.
inline void headline(const std::string& name, double value, const obs::Labels& labels = {}) {
  obs::Registry::global().set_gauge(name, value, labels);
}

inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

inline net::LinkConfig lan_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  cfg.propagation_delay = 1 * kMillisecond;
  return cfg;
}

/// Transport user that auto-accepts everything and records the outcomes.
class AutoUser : public transport::TransportUser {
 public:
  explicit AutoUser(transport::TransportEntity& entity) : entity_(&entity) {}
  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest&) override {
    entity_->connect_response(vc, true);
  }
  void t_connect_confirm(transport::VcId, const transport::QosParams& q) override {
    ++confirmed;
    agreed = q;
  }
  void t_disconnect_indication(transport::VcId, transport::DisconnectReason r) override {
    ++disconnected;
    reason = r;
  }
  void t_renegotiate_indication(transport::VcId vc, const transport::QosTolerance&) override {
    entity_->renegotiate_response(vc, true);
  }
  void t_renegotiate_confirm(transport::VcId, bool ok, const transport::QosParams& q) override {
    reneg_confirmed = ok;
    agreed = q;
  }

  int confirmed = 0;  // T-Connect.confirms, one per VC the user initiated
  int disconnected = 0;
  bool reneg_confirmed = false;
  transport::QosParams agreed;
  transport::DisconnectReason reason = transport::DisconnectReason::kUserInitiated;

 private:
  transport::TransportEntity* entity_;
};

inline transport::ConnectRequest basic_request(net::NetAddress src, net::NetAddress dst,
                                               double rate = 25.0, std::int64_t size = 4096) {
  transport::ConnectRequest req;
  req.initiator = src;
  req.src = src;
  req.dst = dst;
  req.qos.preferred.osdu_rate = rate;
  req.qos.preferred.max_osdu_bytes = size;
  req.qos.preferred.end_to_end_delay = 200 * kMillisecond;
  req.qos.preferred.delay_jitter = 50 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.02;
  req.qos.preferred.bit_error_rate = 1e-5;
  req.qos.worst = req.qos.preferred;
  req.qos.worst.osdu_rate = rate / 4;
  req.qos.worst.end_to_end_delay = kSecond;
  req.qos.worst.delay_jitter = 200 * kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

/// `n` 25 fps streams of 1 KiB frames from one media server to one
/// workstation, connected (not started), over one link or two via a hub.
struct GroupWorld {
  GroupWorld(std::size_t n, std::uint64_t seed, int hops, std::int64_t bandwidth_bps)
      : platform(seed) {
    server = &platform.add_host("server");
    platform::Host* hub = hops == 2 ? &platform.add_host("hub") : nullptr;
    ws = &platform.add_host("ws");
    net::LinkConfig fat = lan_link();
    fat.bandwidth_bps = bandwidth_bps;
    if (hub != nullptr) {
      platform.network().add_link(server->id, hub->id, fat);
      platform.network().add_link(hub->id, ws->id, fat);
    } else {
      platform.network().add_link(server->id, ws->id, fat);
    }
    platform.network().finalize_routes();
    store = std::make_unique<media::StoredMediaServer>(platform, *server, "s");
    for (std::size_t i = 0; i < n; ++i) {
      media::TrackConfig t;
      t.track_id = static_cast<std::uint32_t>(i + 1);
      t.auto_start = false;
      t.vbr.base_bytes = 1024;
      const auto src = store->add_track(static_cast<net::Tsap>(100 + i), t);
      media::RenderConfig rc;
      rc.expect_track = t.track_id;
      sinks.push_back(std::make_unique<media::RenderingSink>(
          platform, *ws, static_cast<net::Tsap>(200 + i), rc));
      streams.push_back(
          std::make_unique<platform::Stream>(platform, *ws, "s" + std::to_string(i)));
      platform::VideoQos vq;
      vq.frames_per_second = 25;
      streams.back()->connect(src, {ws->id, static_cast<net::Tsap>(200 + i)}, vq, {}, nullptr);
    }
    platform.run_until(kSecond);
  }
  std::vector<orch::OrchStreamSpec> specs() {
    std::vector<orch::OrchStreamSpec> v;
    for (auto& s : streams) v.push_back(s->orch_spec(0));
    return v;
  }
  platform::Platform platform;
  platform::Host* server = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<media::StoredMediaServer> store;
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
};

/// The film-playout world (the paper's motivating lip-sync example): video
/// and audio tracks on separate storage servers with opposite clock
/// drifts, rendered on one workstation, orchestration optional.
struct FilmWorld {
  FilmWorld(double differential_drift_ppm, std::uint64_t seed = 4242,
            net::LinkConfig link = lan_link())
      : platform(seed) {
    video_server_host =
        &platform.add_host("video-server", sim::LocalClock(0, differential_drift_ppm / 2));
    audio_server_host =
        &platform.add_host("audio-server", sim::LocalClock(0, -differential_drift_ppm / 2));
    ws = &platform.add_host("ws");
    platform.network().add_link(video_server_host->id, ws->id, link);
    platform.network().add_link(audio_server_host->id, ws->id, link);
    platform.network().finalize_routes();

    // Frame sizes match the negotiated maxima exactly, so the byte-based
    // rate pacer's OSDU rate equals the contract rate and the servers'
    // clock drift translates 1:1 into stream rate (the experiment's
    // independent variable).  VBR behaviour is exercised elsewhere.
    platform::VideoQos vq;
    vq.frames_per_second = 25;
    platform::AudioQos aq;
    aq.blocks_per_second = 50;

    video_server =
        std::make_unique<media::StoredMediaServer>(platform, *video_server_host, "video-store");
    media::TrackConfig video;
    video.track_id = 1;
    video.auto_start = false;
    video.vbr.base_bytes = vq.frame_bytes();
    video.vbr.gop = 0;
    video.vbr.wobble = 0;
    video_src = video_server->add_track(100, video);

    audio_server =
        std::make_unique<media::StoredMediaServer>(platform, *audio_server_host, "audio-store");
    media::TrackConfig audio;
    audio.track_id = 2;
    audio.auto_start = false;
    audio.vbr.base_bytes = aq.block_bytes();
    audio.vbr.gop = 0;
    audio.vbr.wobble = 0;
    audio_src = audio_server->add_track(101, audio);

    media::RenderConfig vr;
    vr.expect_track = 1;
    video_sink = std::make_unique<media::RenderingSink>(platform, *ws, 200, vr);
    media::RenderConfig ar;
    ar.expect_track = 2;
    audio_sink = std::make_unique<media::RenderingSink>(platform, *ws, 201, ar);

    vstream = std::make_unique<platform::Stream>(platform, *ws, "film-video");
    astream = std::make_unique<platform::Stream>(platform, *ws, "film-audio");
    vstream->set_buffer_osdus(8);
    astream->set_buffer_osdus(8);
    vstream->connect(video_src, {ws->id, 200}, vq, {}, nullptr);
    astream->connect(audio_src, {ws->id, 201}, aq, {}, nullptr);
    platform.run_until(500 * kMillisecond);
  }

  /// Starts the group atomically but with no continuous regulation — the
  /// free-running baseline (streams drift apart per their clocks).
  void start_free_running() {
    orch::OrchPolicy policy;
    policy.regulate = false;
    free_session = orchestrate(policy, 0);
  }

  /// Orchestrates (establish + prime + start) and returns the session.
  std::unique_ptr<orch::OrchSession> orchestrate(orch::OrchPolicy policy,
                                                 std::uint32_t max_drop = 2) {
    auto session = platform.orchestrator().orchestrate(
        {vstream->orch_spec(max_drop), astream->orch_spec(max_drop)}, policy, nullptr);
    platform.run_until(platform.scheduler().now() + 500 * kMillisecond);
    session->prime(false, nullptr);
    platform.run_until(platform.scheduler().now() + 1500 * kMillisecond);
    session->start(nullptr);
    platform.run_until(platform.scheduler().now() + 200 * kMillisecond);
    return session;
  }

  /// Measures skew over `dur` with 100 ms sampling; returns the meter.
  std::unique_ptr<media::SyncMeter> measure(Duration dur) {
    auto meter = std::make_unique<media::SyncMeter>(platform.scheduler());
    meter->add_stream("video", video_sink.get());
    meter->add_stream("audio", audio_sink.get());
    meter->begin(100 * kMillisecond);
    platform.run_until(platform.scheduler().now() + dur);
    return meter;
  }

  platform::Platform platform;
  platform::Host* video_server_host = nullptr;
  platform::Host* audio_server_host = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<media::StoredMediaServer> video_server, audio_server;
  std::unique_ptr<media::RenderingSink> video_sink, audio_sink;
  std::unique_ptr<platform::Stream> vstream, astream;
  std::unique_ptr<orch::OrchSession> free_session;
  net::NetAddress video_src, audio_src;
};

}  // namespace cmtos::bench
