// T3 — T-Renegotiate (Table 3): dynamic QoS control.  The Stream maps
// §3.3's media-terms changes onto tolerance renegotiation, the handshake
// confirms in one RTT without disturbing the data path, and a rejected
// renegotiation leaves the VC intact (§4.1.3).  Loss-free links: the
// oracles are exact.

#include "claims.h"

namespace cmtos::bench {
namespace {

struct World {
  explicit World(std::uint64_t seed) : platform(seed) {
    a = &platform.add_host("src");
    b = &platform.add_host("dst");
    net::LinkConfig fat = lan_link();
    fat.bandwidth_bps = 100'000'000;
    platform.network().add_link(a->id, b->id, fat);
    platform.network().finalize_routes();
    server = std::make_unique<media::StoredMediaServer>(platform, *a, "s");
    media::TrackConfig t;
    t.track_id = 1;
    t.vbr.gop = 0;
    t.vbr.wobble = 0;
    t.vbr.base_bytes = 1024;
    src = server->add_track(100, t);
    media::RenderConfig rc;
    sink = std::make_unique<media::RenderingSink>(platform, *b, 200, rc);
  }
  platform::Platform platform;
  platform::Host* a = nullptr;
  platform::Host* b = nullptr;
  std::unique_ptr<media::StoredMediaServer> server;
  std::unique_ptr<media::RenderingSink> sink;
  net::NetAddress src;
};

void media_row(std::uint64_t seed, Oracle& check) {
  struct Scenario {
    const char* name;
    platform::MediaQos before;
    platform::MediaQos after;
    double rate_after;
    double mbps_after;
  };
  platform::VideoQos mono;
  mono.colour = false;
  mono.frames_per_second = 12.5;
  platform::VideoQos colour;
  colour.colour = true;
  colour.frames_per_second = 25;
  platform::VideoQos colour_compressed = colour;
  colour_compressed.compression = 200;
  platform::AudioQos phone;
  phone.sample_rate_hz = 8000;
  phone.bits_per_sample = 8;
  phone.channels = 1;
  platform::AudioQos cd;
  cd.sample_rate_hz = 44100;
  cd.bits_per_sample = 16;
  cd.channels = 2;
  // Upgrades raise the agreed rate or bandwidth; the compression module
  // cuts the bandwidth at the same frame rate; downgrades always succeed.
  const Scenario scenarios[] = {
      {"mono 12.5fps -> colour 25fps", mono, colour, 25.0, 1.312},
      {"colour -> +compression module", colour, colour_compressed, 25.0, 0.342},
      {"telephone -> CD quality audio", phone, cd, 50.0, 1.526},
      {"CD -> telephone (downgrade)", cd, phone, 50.0, 0.102},
  };

  row("%-34s %12s %12s %14s %12s", "change", "rate before", "rate after", "Mbit/s after",
      "outcome");
  for (const auto& sc : scenarios) {
    World w(seed);
    platform::Stream stream(w.platform, *w.b, "s");
    stream.connect(w.src, {w.b->id, 200}, sc.before, {}, nullptr);
    w.platform.run_until(kSecond);
    if (!stream.connected()) {
      row("%-34s %12s", sc.name, "CONNECT FAILED");
      check.holds(std::string(sc.name) + ": connected", false);
      continue;
    }
    const double rate_before = stream.agreed_qos().osdu_rate;
    bool ok = false;
    stream.change_qos(sc.after, [&](bool o, auto) { ok = o; });
    w.platform.run_until(w.platform.scheduler().now() + 3 * kSecond);
    const double mbps = static_cast<double>(stream.agreed_qos().required_bps()) / 1e6;
    if (ok) {
      row("%-34s %12.1f %12.1f %14.3f %12s", sc.name, rate_before, stream.agreed_qos().osdu_rate,
          mbps, "accepted");
      headline("renegotiate.rate_after", stream.agreed_qos().osdu_rate, {{"scenario", sc.name}});
    } else {
      row("%-34s %12.1f %12s %14s %12s", sc.name, rate_before, "-", "-", "rejected");
    }
    check.holds(std::string(sc.name) + ": accepted", ok);
    check.near(std::string(sc.name) + ": agreed rate after", stream.agreed_qos().osdu_rate,
               sc.rate_after);
    check.near(std::string(sc.name) + ": agreed Mbit/s after", mbps, sc.mbps_after, 0.0005);
  }
}

void latency_row(std::uint64_t seed, Oracle& check) {
  World w(seed);
  AutoUser src_user(w.a->entity), dst_user(w.b->entity);
  w.a->entity.bind(10, &src_user);
  w.b->entity.bind(20, &dst_user);
  auto req = basic_request({w.a->id, 10}, {w.b->id, 20}, 25.0, 1024);
  req.buffer_osdus = 32;
  const auto vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(500 * kMillisecond);
  auto* source = w.a->entity.source(vc);
  auto* sink_conn = w.b->entity.sink(vc);
  if (source == nullptr || sink_conn == nullptr) {
    check.holds("VC opened", false);
    return;
  }

  // Continuous feed; renegotiate mid-flow; look for any delivery gap.
  std::vector<Time> deliveries;
  Time reneg_at = 0, confirm_at = 0;
  for (int i = 0; i < 300; ++i) {
    (void)source->submit(std::vector<std::uint8_t>(1000, 1));
    w.platform.run_until(w.platform.scheduler().now() + 20 * kMillisecond);
    while (auto o = sink_conn->receive()) deliveries.push_back(w.platform.scheduler().now());
    if (i == 150) {
      reneg_at = w.platform.scheduler().now();
      auto tol = basic_request({w.a->id, 10}, {w.b->id, 20}, 50.0, 1024).qos;
      w.a->entity.t_renegotiate_request(vc, tol);
    }
    if (confirm_at == 0 && src_user.reneg_confirmed) confirm_at = w.platform.scheduler().now();
  }
  Duration max_gap = 0;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    if (deliveries[i] > reneg_at - kSecond && deliveries[i] < reneg_at + kSecond)
      max_gap = std::max(max_gap, deliveries[i] - deliveries[i - 1]);
  }
  row("renegotiate 25->50/s: confirm latency %.2f ms; max delivery gap around the",
      to_millis(confirm_at - reneg_at));
  row("renegotiation %.1f ms (nominal inter-OSDU gap before upgrade: 40 ms)",
      to_millis(max_gap));
  // The feed is polled every 20 ms, so the confirm lands on the first poll
  // after the one-RTT handshake.
  check.holds("renegotiation confirmed", confirm_at != 0);
  check.near("confirm latency (ms)", to_millis(confirm_at - reneg_at), 20.0);
  check.near("no delivery gap beyond the pre-upgrade spacing (ms)", to_millis(max_gap), 40.0);
}

void reject_row(std::uint64_t seed, Oracle& check) {
  World w(seed);
  AutoUser src_user(w.a->entity);
  w.a->entity.bind(10, &src_user);
  struct Rejecting : AutoUser {
    using AutoUser::AutoUser;
    transport::TransportEntity* e = nullptr;
    void t_renegotiate_indication(transport::VcId vc, const transport::QosTolerance&) override {
      e->renegotiate_response(vc, false);
    }
  };
  Rejecting dst_user(w.b->entity);
  dst_user.e = &w.b->entity;
  w.b->entity.bind(20, &dst_user);
  const auto vc =
      w.a->entity.t_connect_request(basic_request({w.a->id, 10}, {w.b->id, 20}, 25.0, 1024));
  w.platform.run_until(500 * kMillisecond);
  auto tol = basic_request({w.a->id, 10}, {w.b->id, 20}, 50.0, 1024).qos;
  w.a->entity.t_renegotiate_request(vc, tol);
  w.platform.run_until(w.platform.scheduler().now() + kSecond);
  const bool alive = w.a->entity.source(vc) != nullptr && w.b->entity.sink(vc) != nullptr;
  const bool notified = src_user.disconnected &&
                        src_user.reason == transport::DisconnectReason::kRenegotiationFailed;
  const bool rate_unchanged =
      alive && std::abs(w.a->entity.source(vc)->agreed_qos().osdu_rate - 25.0) < 1e-9;
  row("peer rejected: VC alive=%s, T-Disconnect.indication(renegotiation-failed)=%s,",
      alive ? "yes" : "NO", notified ? "yes" : "NO");
  row("contract unchanged=%s", rate_unchanged ? "yes" : "NO");
  check.holds("VC alive after a rejected renegotiation", alive);
  check.holds("initiator indicated renegotiation-failed", notified);
  check.holds("contract unchanged", rate_unchanged);
}

}  // namespace

std::vector<Claim> renegotiate_claims() {
  return {
      {"renegotiate.media", "Table 3 (T-Renegotiate) + §3.3: QoS changes in media terms", 5,
       media_row},
      {"renegotiate.latency", "Table 3 + §3.3: confirm latency and data continuity", 5,
       latency_row},
      {"renegotiate.reject", "Table 3 / §4.1.3: a rejected renegotiation leaves the VC intact", 5,
       reject_row},
  };
}

}  // namespace cmtos::bench
