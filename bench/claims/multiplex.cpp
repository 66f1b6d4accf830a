// A1 — §3.6 ablation: multiplexing related media onto one VC vs separate
// orchestrated VCs ([Tennenhouse,90]: "layered multiplexing considered
// harmful").  The paper's arguments against the single VC:
//   (a) "multiplexing leads to a combined QoS which must be sufficient for
//       the most demanding medium" — reserved bandwidth, and the loss
//       tolerance forced onto every medium;
//   (b) mux/demux overhead and lost parallelism;
//   (c) impossible when media originate from different sources.
// Plus the data-plane cost of moving media bytes through the stack.

#include <algorithm>
#include <chrono>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "alloc_hooks.h"
#include "claims.h"
#include "media/content.h"

namespace cmtos::bench {
namespace {

std::uint64_t cycle_counter() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// One server and one workstation over a lossy 10 Mbit/s link.
struct MuxWorld {
  MuxWorld(std::uint64_t seed, double loss) : platform(seed) {
    a = &platform.add_host("server");
    b = &platform.add_host("ws");
    net::LinkConfig link = lan_link();
    link.loss_rate = loss;
    platform.network().add_link(a->id, b->id, link);
    platform.network().finalize_routes();
  }
  platform::Platform platform;
  platform::Host* a = nullptr;
  platform::Host* b = nullptr;
};

struct MuxResult {
  bool connected = false;
  std::int64_t reserved_bps = 0;
  Duration audio_jitter_bound = 0;  // the jitter bound audio actually got
  double audio_loss_frac = 0;
  double video_loss_frac = 0;
};

/// Drives 30 s of interleaved media — per 40 ms one video frame and two
/// audio blocks — then drains for 2 s.  `video`/`audio` are the sources
/// and `drain(video_got, audio_got)` empties the sinks.
template <typename Drain>
void drive(MuxWorld& w, transport::Connection* video, transport::Connection* audio,
           std::uint64_t video_tag, std::uint64_t audio_tag, Drain drain, MuxResult& r) {
  platform::VideoQos vq;
  vq.frames_per_second = 25;
  platform::AudioQos aq;
  aq.blocks_per_second = 50;
  std::int64_t video_sent = 0, audio_sent = 0, video_got = 0, audio_got = 0;
  for (int tick = 0; tick < 750; ++tick) {
    video_sent += video->submit(media::make_frame(1, static_cast<std::uint32_t>(tick),
                                                  static_cast<std::size_t>(vq.frame_bytes())),
                                video_tag);
    for (int k = 0; k < 2; ++k)
      audio_sent += audio->submit(media::make_frame(2, static_cast<std::uint32_t>(tick * 2 + k),
                                                    static_cast<std::size_t>(aq.block_bytes())),
                                  audio_tag);
    w.platform.run_until(w.platform.scheduler().now() + 40 * kMillisecond);
    drain(video_got, audio_got);
  }
  w.platform.run_until(w.platform.scheduler().now() + 2 * kSecond);
  drain(video_got, audio_got);
  r.video_loss_frac = 1.0 - static_cast<double>(video_got) /
                                static_cast<double>(std::max<std::int64_t>(1, video_sent));
  r.audio_loss_frac = 1.0 - static_cast<double>(audio_got) /
                                static_cast<double>(std::max<std::int64_t>(1, audio_sent));
}

// Combined-QoS single VC: 75 OSDU/s (25 video + 50 audio interleaved),
// max OSDU = video frame size, jitter bound = audio's strict bound, loss
// tolerance = audio's strict bound (combined QoS must satisfy the most
// demanding medium on *every* axis).  The event field tags the medium.
MuxResult run_multiplexed(std::uint64_t seed, double loss) {
  MuxWorld w(seed, loss);
  AutoUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(1, &src_user);
  w.b->entity.bind(2, &dst_user);

  platform::VideoQos vq;
  vq.frames_per_second = 25;
  transport::ConnectRequest req;
  req.initiator = req.src = {w.a->id, 1};
  req.dst = {w.b->id, 2};
  req.qos.preferred.osdu_rate = 75;
  req.qos.preferred.max_osdu_bytes = vq.frame_bytes();
  req.qos.preferred.end_to_end_delay = 300 * kMillisecond;
  req.qos.preferred.delay_jitter = 10 * kMillisecond;  // audio's bound
  req.qos.preferred.packet_error_rate = 0.005;         // audio's bound
  req.qos.preferred.bit_error_rate = 1e-6;
  req.qos.worst = req.qos.preferred;
  req.buffer_osdus = 24;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);

  MuxResult r;
  auto* source = w.a->entity.source(vc);
  auto* sink = w.b->entity.sink(vc);
  if (source == nullptr || sink == nullptr) return r;
  r.connected = true;
  r.reserved_bps = w.platform.network().reserved_on(w.a->id, w.b->id);
  r.audio_jitter_bound = source->agreed_qos().delay_jitter;
  drive(w, source, source, 1, 2, [&](std::int64_t& video_got, std::int64_t& audio_got) {
    while (auto o = sink->receive()) {
      if (o->event == 1) ++video_got;
      if (o->event == 2) ++audio_got;
    }
  }, r);
  return r;
}

// Separate VCs, each with its own media-appropriate QoS: audio uses the
// error-correcting class (its loss tolerance is strict), video the
// detection-only class (it tolerates loss).
MuxResult run_separate(std::uint64_t seed, double loss) {
  MuxWorld w(seed, loss);
  AutoUser vsrc_user(w.a->entity), vdst_user(w.b->entity);
  AutoUser asrc_user(w.a->entity), adst_user(w.b->entity);
  w.a->entity.bind(1, &vsrc_user);
  w.b->entity.bind(2, &vdst_user);
  w.a->entity.bind(3, &asrc_user);
  w.b->entity.bind(4, &adst_user);

  platform::VideoQos vq;
  vq.frames_per_second = 25;
  platform::AudioQos aq;
  aq.blocks_per_second = 50;
  transport::ConnectRequest vreq;
  vreq.initiator = vreq.src = {w.a->id, 1};
  vreq.dst = {w.b->id, 2};
  vreq.qos = platform::to_transport_qos(vq);
  vreq.service_class.error_control = transport::ErrorControl::kIndicate;
  vreq.buffer_osdus = 16;
  transport::ConnectRequest areq;
  areq.initiator = areq.src = {w.a->id, 3};
  areq.dst = {w.b->id, 4};
  areq.qos = platform::to_transport_qos(aq);
  areq.service_class.error_control = transport::ErrorControl::kCorrect;
  areq.buffer_osdus = 16;
  const auto vvc = w.a->entity.t_connect_request(vreq);
  const auto avc = w.a->entity.t_connect_request(areq);
  w.platform.run_until(500 * kMillisecond);

  MuxResult r;
  auto* vsource = w.a->entity.source(vvc);
  auto* asource = w.a->entity.source(avc);
  auto* vsink = w.b->entity.sink(vvc);
  auto* asink = w.b->entity.sink(avc);
  if (!vsource || !asource || !vsink || !asink) return r;
  r.connected = true;
  r.reserved_bps = w.platform.network().reserved_on(w.a->id, w.b->id);
  r.audio_jitter_bound = asource->agreed_qos().delay_jitter;
  drive(w, vsource, asource, 0, 0, [&](std::int64_t& video_got, std::int64_t& audio_got) {
    while (vsink->receive()) ++video_got;
    while (asink->receive()) ++audio_got;
  }, r);
  return r;
}

void cost_row(std::uint64_t seed, Oracle& check) {
  const auto mux = run_multiplexed(seed, 0.0);
  const auto sep = run_separate(seed, 0.0);
  const double mux_mbps = static_cast<double>(mux.reserved_bps) / 1e6;
  const double sep_mbps = static_cast<double>(sep.reserved_bps) / 1e6;
  row("%-26s %18s %22s", "arrangement", "reserved Mbit/s", "audio jitter bound");
  row("%-26s %18.3f %22s", "single multiplexed VC", mux_mbps,
      format_time(mux.audio_jitter_bound).c_str());
  row("%-26s %18.3f %22s", "separate VCs (A/V)", sep_mbps,
      format_time(sep.audio_jitter_bound).c_str());
  headline("multiplex.reserved_mbps", mux_mbps, {{"arrangement", "multiplexed"}});
  headline("multiplex.reserved_mbps", sep_mbps, {{"arrangement", "separate"}});
  // The mux VC reserves for 75/s of *video-sized* OSDUs (audio blocks ride
  // in slots sized for frames): 2.6x the two tailored reservations.
  check.holds("both arrangements connect", mux.connected && sep.connected);
  check.near("multiplexed VC reservation (Mbit/s)", mux_mbps, 4.001);
  check.near("separate VCs reservation (Mbit/s)", sep_mbps, 1.543);
  check.near("audio keeps its 10 ms jitter bound either way (ms)",
             to_millis(mux.audio_jitter_bound) + to_millis(sep.audio_jitter_bound), 20.0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// Link loss draws randomness: the claim is a shape over 16 seeds.  There is
// no CR retransmission, so a lost CR fails the connect; such seeds are
// shown and left out of the shape.
void loss_row(std::uint64_t seed, Oracle& check) {
  constexpr std::uint64_t kSeeds = 16;
  row("%-10s %-6s %22s %22s %22s", "link loss", "seed", "mux video / audio %",
      "separate video %", "separate audio %");
  for (double loss : {0.02, 0.05}) {
    std::vector<double> separate_audio;
    int connected = 0;
    for (std::uint64_t s = seed; s < seed + kSeeds; ++s) {
      const auto mux = run_multiplexed(s, loss);
      const auto sep = run_separate(s, loss);
      if (!mux.connected || !sep.connected) {
        row("%-10.2f %-6llu %22s %22s %22s", loss, static_cast<unsigned long long>(s),
            mux.connected ? "" : "not connected", sep.connected ? "" : "not connected", "");
        continue;
      }
      ++connected;
      char mux_cell[32];
      std::snprintf(mux_cell, sizeof mux_cell, "%.2f / %.2f", mux.video_loss_frac * 100,
                    mux.audio_loss_frac * 100);
      row("%-10.2f %-6llu %22s %22.2f %22.2f", loss, static_cast<unsigned long long>(s),
          mux_cell, sep.video_loss_frac * 100, sep.audio_loss_frac * 100);
      separate_audio.push_back(sep.audio_loss_frac * 100);
      // On the mux VC audio sees the raw loss (one error-control class for
      // all); on its own correcting VC audio recovers nearly everything.
      check.at_most("separate audio loss below mux audio loss at " + pct(loss) + " loss, seed " +
                        std::to_string(s),
                    sep.audio_loss_frac, mux.audio_loss_frac - 1e-9);
    }
    const double med = median(separate_audio);
    row("%-10.2f %d of %llu seeds connected; separate audio loss median %.2f %%, max %.2f %%",
        loss, connected, static_cast<unsigned long long>(kSeeds), med,
        separate_audio.empty() ? 0.0
                               : *std::max_element(separate_audio.begin(), separate_audio.end()));
    row("%s", "");
    check.at_least("seeds connected at " + pct(loss) + " loss", connected, 12);
    if (loss == 0.05) check.at_most("separate audio loss median at 5% (%)", med, 1.2);
  }
}

void dataplane_row(std::uint64_t seed, Oracle& check) {
  const auto r = pump(seed, transport::ProtocolProfile::kRateBasedCm);
  const double osdus_per_s = static_cast<double>(r.delivered) / std::max(1e-9, r.wall_s);
  const double mb_per_s =
      static_cast<double>(r.delivered_bytes) / 1e6 / std::max(1e-9, r.wall_s);
  row("%-22s %14s %16s %16s", "delivered OSDUs", "OSDU/wall-s", "MB/wall-s", "allocs/OSDU");
  row("%-22lld %14.0f %16.1f %16.1f", static_cast<long long>(r.delivered), osdus_per_s,
      mb_per_s, r.allocs_per_osdu);
  headline("multiplex.dataplane_osdus_per_wall_s", osdus_per_s);
  headline("multiplex.dataplane_mbytes_per_wall_s", mb_per_s);
  headline("multiplex.dataplane_allocs_per_osdu", r.allocs_per_osdu);
  // 8 s at 250/s; a reintroduced per-fragment copy or allocation adds 47
  // per OSDU.  The bound is the 1.00 baseline (allocation-free DT path,
  // heartbeats and event queue: what remains is the sink's reassembly-window
  // node and control traffic) plus 25% and room for stdlib and container
  // differences across toolchains, never a per-fragment allocation.
  check.near("OSDUs delivered in 8 s", static_cast<double>(r.delivered), 2001, 0);
  check.at_most("data-plane allocations per OSDU", r.allocs_per_osdu, 1.00 * 1.25 + 5);
}

}  // namespace

PumpResult pump(platform::Platform& p, platform::Host& a, platform::Host& b,
                transport::ProtocolProfile profile, Duration timed) {
  constexpr std::size_t kOsduBytes = 64 * 1024;
  AutoUser src_user(a.entity), dst_user(b.entity);
  a.entity.bind(1, &src_user);
  b.entity.bind(2, &dst_user);
  auto req = basic_request({a.id, 1}, {b.id, 2}, 250.0, static_cast<std::int64_t>(kOsduBytes));
  req.service_class.profile = profile;
  req.service_class.error_control = transport::ErrorControl::kIndicate;
  req.buffer_osdus = 64;
  req.pacing_burst = 32;  // one pacing tick drains a fragment burst
  const auto vc = a.entity.t_connect_request(req);
  p.run_until(p.scheduler().now() + 500 * kMillisecond);

  PumpResult r;
  auto* source = a.entity.source(vc);
  auto* sink = b.entity.sink(vc);
  if (source == nullptr || sink == nullptr) return r;

  // One immutable template frame; every submission shares it by refcount.
  const auto frame = media::make_frame_view(1, 0, kOsduBytes);
  auto pump_for = [&](Duration dur) {
    const Time until = p.scheduler().now() + dur;
    while (p.scheduler().now() < until) {
      while (source->submit(frame)) {
      }
      p.run_until(p.scheduler().now() + 20 * kMillisecond);
      while (auto o = sink->receive()) {
        ++r.delivered;
        r.delivered_bytes += static_cast<std::int64_t>(o->data.size());
      }
    }
  };

  pump_for(kSecond);  // fill the pipeline before the clock starts
  r.delivered = 0;
  r.delivered_bytes = 0;
  const std::int64_t allocs0 = heap_allocs();
  const std::uint64_t cycles0 = cycle_counter();
  r.wall_s = wall_seconds([&] { pump_for(timed); });
  const double delivered = static_cast<double>(std::max<std::int64_t>(1, r.delivered));
  r.cycles_per_osdu = static_cast<double>(cycle_counter() - cycles0) / delivered;
  r.allocs_per_osdu = static_cast<double>(heap_allocs() - allocs0) / delivered;
  return r;
}

PumpResult pump(std::uint64_t seed, transport::ProtocolProfile profile) {
  platform::Platform p(seed);
  auto& a = p.add_host("src");
  auto& b = p.add_host("dst");
  p.network().add_link(a.id, b.id, pump_link());
  p.network().finalize_routes();
  return pump(p, a, b, profile, 8 * kSecond);
}

std::vector<Claim> multiplex_claims() {
  return {
      {"multiplex.cost", "§3.6 / [Tennenhouse,90]: combined-QoS cost of one multiplexed VC", 71,
       cost_row},
      {"multiplex.loss", "§3.4 + §3.6: per-medium error control on separate VCs (16-seed sweep)",
       71, loss_row},
      {"multiplex.dataplane", "data-plane cost per OSDU: 64 KiB at 250/s over 1 Gbit/s", 97,
       dataplane_row},
  };
}

}  // namespace cmtos::bench
