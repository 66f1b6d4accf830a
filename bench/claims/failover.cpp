// R2 — orchestrator failover recovery, with and without epoch fencing.
//
// The orchestrating node dies outright or is partitioned away and later
// heals.  The recovery gap runs from detection to the survivors regulating
// under the replacement.  With fencing off (the "before" row) the healed
// stale orchestrator keeps issuing targets beside its successor; with
// fencing on it is nacked into self-retirement and applies nothing.  The
// chaos plan is scripted, not drawn: the oracles are exact.

#include "claims.h"
#include "orch/failover.h"
#include "net/chaos.h"

namespace cmtos::bench {
namespace {

/// The failover star: hub + srv1, wsB, wsC, srv2.  Streams s1 srv1->wsB
/// (the survivor), s2 srv1->wsC, s3 srv2->wsC; orchestrating node wsC.
struct FoWorld {
  explicit FoWorld(std::uint64_t seed) : platform(seed) {
    hub = &platform.add_host("hub");
    srv1 = &platform.add_host("srv1");
    wsB = &platform.add_host("wsB");
    wsC = &platform.add_host("wsC");
    srv2 = &platform.add_host("srv2");
    for (auto* h : {srv1, wsB, wsC, srv2})
      platform.network().add_link(hub->id, h->id, lan_link());
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
    for (auto* s : {s1.get(), s2.get(), s3.get()}) s->set_buffer_osdus(8);
    s1->connect(a1, {wsB->id, 200}, vq, {}, on_conn);
    s2->connect(a2, {wsC->id, 201}, vq, {}, on_conn);
    s3->connect(a3, {wsC->id, 202}, vq, {}, on_conn);
    platform.run_until(500 * kMillisecond);

    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    policy.allow_no_common_node = true;
    bool established = false;
    auto session = platform.orchestrator().orchestrate(
        {s1->orch_spec(2), s2->orch_spec(2), s3->orch_spec(2)}, policy,
        [&](bool est, orch::OrchReason) { established = est; });
    platform.run_until(platform.scheduler().now() + kSecond);
    orch::FailoverConfig fc;
    fc.check_interval = 200 * kMillisecond;
    fc.agent_dead_after = kSecond;
    supervisor = std::make_unique<orch::FailoverSupervisor>(
        platform.scheduler(), platform.orchestrator(),
        [this](net::NodeId n) { return &platform.host(n).llo; },
        [this](net::NodeId n) { return platform.node_alive(n); }, fc);
    supervisor->watch(std::move(session));
    bool primed = false;
    supervisor->session()->prime(false, [&](bool p, auto) { primed = p; });
    platform.run_until(platform.scheduler().now() + 2 * kSecond);
    supervisor->session()->start([](bool, auto) {});
    platform.run_until(platform.scheduler().now() + kSecond);
    ok = connected == 3 && established && primed;
  }

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

struct Outcome {
  double recovery_gap_s = 0;
  std::int64_t stale_applied = 0;
  std::int64_t stale_rejected = 0;
  std::int64_t superseded = 0;
  bool recovered = false;
};

/// One failover experiment: kill or partition the orchestrating node and
/// measure the gap plus the post-heal fencing behaviour.  Counters are
/// global and monotonic, so each case diffs its own before/after.
Outcome run_case(std::uint64_t seed, bool partition, bool fencing) {
  FoWorld w(seed);
  if (!w.ok) return {};
  w.set_fencing(fencing);
  auto& reg = obs::Registry::global();
  auto& applied =
      reg.counter("orch.stale_target_applied", {{"node", std::to_string(w.wsB->id)}});
  auto& rejected =
      reg.counter("orch.stale_epoch_rejected", {{"node", std::to_string(w.wsB->id)}});
  auto& superseded =
      reg.counter("orch.superseded", {{"node", std::to_string(w.wsC->id)}});
  const auto applied0 = applied.value();
  const auto rejected0 = rejected.value();
  const auto superseded0 = superseded.value();

  net::ChaosEngine engine(w.platform.network());
  net::ChaosPlan plan;
  plan.seed = seed;
  if (partition) {
    plan.isolate(w.platform.scheduler().now() + kSecond, w.wsC->id, 3 * kSecond);
  } else {
    plan.crash(w.platform.scheduler().now() + kSecond, w.wsC->id);
  }
  engine.arm(plan);
  w.platform.run_until(w.platform.scheduler().now() + 11 * kSecond);

  Outcome out;
  out.recovered = w.supervisor->failovers() == 1 && !w.supervisor->orphaned();
  out.recovery_gap_s = reg.gauge("orch.recovery_gap_s", {}).value();
  out.stale_applied = applied.value() - applied0;
  out.stale_rejected = rejected.value() - rejected0;
  out.superseded = superseded.value() - superseded0;
  return out;
}

void fencing_row(std::uint64_t seed, Oracle& check) {
  struct Case {
    const char* name;
    bool partition;
    bool fencing;
    std::int64_t stale_applied, stale_rejected, superseded;
  };
  const Case cases[] = {
      {"crash", false, true, 0, 0, 0},
      {"partition_heal_prefence", true, false, 70, 0, 0},  // the "before" row
      {"partition_heal_fenced", true, true, 0, 1, 1},      // the "after" row
  };
  row("%-26s %8s %14s %14s %14s %10s", "case", "fencing", "recovery_gap_s", "stale_applied",
      "stale_rejected", "superseded");
  for (const Case& c : cases) {
    const Outcome o = run_case(seed, c.partition, c.fencing);
    row("%-26s %8s %14.3f %14lld %14lld %10lld", c.name, c.fencing ? "on" : "off",
        o.recovery_gap_s, static_cast<long long>(o.stale_applied),
        static_cast<long long>(o.stale_rejected), static_cast<long long>(o.superseded));
    const obs::Labels labels = {{"case", c.name}, {"fencing", c.fencing ? "on" : "off"}};
    headline("failover.recovery_gap_s", o.recovery_gap_s, labels);
    headline("failover.stale_targets_applied", static_cast<double>(o.stale_applied), labels);
    headline("failover.stale_epoch_rejected", static_cast<double>(o.stale_rejected), labels);
    headline("failover.recovered", o.recovered ? 1.0 : 0.0, labels);
    const std::string at = std::string(" (") + c.name + ")";
    check.holds("one failover, session not orphaned" + at, o.recovered);
    check.near("recovery gap (s)" + at, o.recovery_gap_s, 0.152);
    check.near("stale targets applied" + at, static_cast<double>(o.stale_applied),
               static_cast<double>(c.stale_applied), 0);
    check.near("stale-epoch OPDUs rejected" + at, static_cast<double>(o.stale_rejected),
               static_cast<double>(c.stale_rejected), 0);
    check.near("stale orchestrator superseded" + at, static_cast<double>(o.superseded),
               static_cast<double>(c.superseded), 0);
  }
}

}  // namespace

std::vector<Claim> failover_claims() {
  return {
      {"failover.fencing", "failover recovery gap and epoch fencing of a healed partition",
       20260807, fencing_row},
  };
}

}  // namespace cmtos::bench
