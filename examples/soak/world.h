// world.h — the hub-and-four-leaves world the chaos and byzantine rows share.
//
// Topology: hub + srv1, wsB, wsC, srv2 on 10 Mbit/s, 1 ms star links.
// Three orchestrated streams — s1 srv1->wsB, s2 srv1->wsC, s3 srv2->wsC — so
// the elected orchestrating node (wsC) is an endpoint of only two of them
// and s1's regulation survives the loss of wsC or srv2.

#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>

#include "media/sink.h"
#include "media/stored_server.h"
#include "orch/failover.h"
#include "platform/host.h"
#include "platform/stream.h"
#include "net/chaos.h"
#include "soak.h"

namespace cmtos::soak {

struct World {
  explicit World(std::uint64_t seed, unsigned threads) : platform(seed) {
    platform.set_threads(threads);
    hub = &platform.add_host("hub");
    srv1 = &platform.add_host("srv1");
    wsB = &platform.add_host("wsB");
    wsC = &platform.add_host("wsC");
    srv2 = &platform.add_host("srv2");
    net::LinkConfig link;
    link.bandwidth_bps = 10'000'000;
    link.propagation_delay = 1 * kMillisecond;
    for (auto* h : {srv1, wsB, wsC, srv2}) platform.network().add_link(hub->id, h->id, link);
    platform.network().finalize_routes();

    transport::TransportConfig tc;
    tc.keepalive_interval = 200 * kMillisecond;
    tc.peer_dead_after = 800 * kMillisecond;
    for (auto* h : {hub, srv1, wsB, wsC, srv2}) h->entity.set_config(tc);

    platform::VideoQos vq;
    vq.frames_per_second = 25;

    server1 = std::make_unique<media::StoredMediaServer>(platform, *srv1, "srv1");
    media::TrackConfig t;
    t.auto_start = false;
    t.vbr.base_bytes = vq.frame_bytes();
    t.vbr.gop = 0;
    t.vbr.wobble = 0;
    t.track_id = 1;
    const net::NetAddress a1 = server1->add_track(100, t);
    t.track_id = 2;
    const net::NetAddress a2 = server1->add_track(101, t);
    server2 = std::make_unique<media::StoredMediaServer>(platform, *srv2, "srv2");
    t.track_id = 3;
    const net::NetAddress a3 = server2->add_track(102, t);

    media::RenderConfig r;
    r.expect_track = 1;
    sink1 = std::make_unique<media::RenderingSink>(platform, *wsB, 200, r);
    r.expect_track = 2;
    sink2 = std::make_unique<media::RenderingSink>(platform, *wsC, 201, r);
    r.expect_track = 3;
    sink3 = std::make_unique<media::RenderingSink>(platform, *wsC, 202, r);

    s1 = std::make_unique<platform::Stream>(platform, *srv1, "s1");
    s2 = std::make_unique<platform::Stream>(platform, *srv1, "s2");
    s3 = std::make_unique<platform::Stream>(platform, *srv2, "s3");
    int connected = 0;
    auto on_conn = [&](bool conn_ok, auto) { connected += conn_ok; };
    s1->set_buffer_osdus(8);
    s2->set_buffer_osdus(8);
    s3->set_buffer_osdus(8);
    s1->connect(a1, {wsB->id, 200}, vq, {}, on_conn);
    s2->connect(a2, {wsC->id, 201}, vq, {}, on_conn);
    s3->connect(a3, {wsC->id, 202}, vq, {}, on_conn);
    platform.run_until(500 * kMillisecond);
    ok = connected == 3;
  }

  /// Orch.request over all three streams (orchestrating node: wsC) and
  /// adoption by the failover supervisor.
  bool establish() {
    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    policy.allow_no_common_node = true;
    bool established = false;
    auto session = platform.orchestrator().orchestrate(
        {s1->orch_spec(2), s2->orch_spec(2), s3->orch_spec(2)}, policy,
        [&](bool est, orch::OrchReason) { established = est; });
    if (session == nullptr) return false;
    platform.run_until(platform.scheduler().now() + kSecond);
    if (!established) return false;
    orch::FailoverConfig fc;
    fc.check_interval = 200 * kMillisecond;
    fc.agent_dead_after = kSecond;
    supervisor = std::make_unique<orch::FailoverSupervisor>(
        platform.scheduler(), platform.orchestrator(),
        [this](net::NodeId n) { return &platform.host(n).llo; },
        [this](net::NodeId n) { return platform.node_alive(n); }, fc);
    supervisor->watch(std::move(session));
    return true;
  }

  bool prime_and_start() {
    bool primed = false, started = false;
    supervisor->session()->prime(false, [&](bool p, auto) { primed = p; });
    platform.run_until(platform.scheduler().now() + 2 * kSecond);
    if (!primed) return false;
    supervisor->session()->start([&](bool st, auto) { started = st; });
    platform.run_until(platform.scheduler().now() + kSecond);
    return started;
  }

  /// Toggles epoch fencing on every endpoint LLO.  Off reproduces the
  /// pre-fencing protocol for the split-brain contrast run.
  void set_fencing(bool on) {
    for (auto* h : {hub, srv1, wsB, wsC, srv2}) h->llo.set_fencing_enabled(on);
  }

  platform::Platform platform;
  platform::Host* hub = nullptr;
  platform::Host* srv1 = nullptr;
  platform::Host* wsB = nullptr;
  platform::Host* wsC = nullptr;
  platform::Host* srv2 = nullptr;
  std::unique_ptr<media::StoredMediaServer> server1, server2;
  std::unique_ptr<media::RenderingSink> sink1, sink2, sink3;
  std::unique_ptr<platform::Stream> s1, s2, s3;
  std::unique_ptr<orch::FailoverSupervisor> supervisor;
  bool ok = false;
};

/// A scenario body over one World and a ChaosEngine bound to it.
using WorldBody = bool (*)(World& w, net::ChaosEngine& engine, std::uint64_t seed);

/// Adapts a WorldBody into a table row: builds the world and its engine,
/// runs the body, then prints the engine's fault log (one `fault:` line per
/// injected fault) so any run replays from its stdout.
template <WorldBody Body>
bool in_world(std::uint64_t seed, unsigned threads) {
  World w(seed, threads);
  if (!w.ok) return fail("world setup");
  net::ChaosEngine engine(w.platform.network());
  const bool passed = Body(w, engine, seed);
  for (const auto& line : engine.log()) std::printf("fault: %s\n", line.c_str());
  return passed;
}

}  // namespace cmtos::soak
