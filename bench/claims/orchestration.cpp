// T4/F5 — orchestration session management (Table 4) and orchestrating-
// node selection (Fig 5), plus the sharded executor the orchestrated
// worlds run on.  Loss-free links: the oracles are exact.

#include <algorithm>
#include <map>
#include <thread>

#include "claims.h"

namespace cmtos::bench {
namespace {

void establish_row(std::uint64_t seed, Oracle& check) {
  row("%-12s %20s %20s", "group size", "establish (ms)", "release");
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
    GroupWorld w(n, seed, 2, 500'000'000);
    const Time t0 = w.platform.scheduler().now();
    Time established_at = 0;
    auto session = w.platform.orchestrator().orchestrate(w.specs(), {}, [&](bool ok, auto) {
      if (ok) established_at = w.platform.scheduler().now();
    });
    w.platform.run_until(w.platform.scheduler().now() + kSecond);
    session->release();
    // Release has no confirm; verify by endpoint-state teardown.
    w.platform.run_until(w.platform.scheduler().now() + kSecond);
    const bool released = w.server->llo.local_vc_count() == 0;
    const double ms = established_at != 0 ? to_millis(established_at - t0) : -1;
    row("%-12zu %20.3f %20s", n, ms, released ? "clean" : "LEAKED");
    headline("orchestration.establish_ms", ms, {{"group_size", std::to_string(n)}});
    // One control RTT over two hops (~4 ms) plus a few µs of fan-out per
    // VC: flat in the group size.
    const std::string at = " with " + std::to_string(n) + " VCs";
    check.holds("established" + at, established_at != 0);
    check.at_most("establish within one control RTT" + at, ms, 4.2);
    check.holds("release leaves no endpoint LLO state" + at, released);
  }
}

void node_select_row(std::uint64_t, Oracle& check) {
  using orch::OrchStreamSpec;
  auto spec = [](transport::VcId vc, net::NodeId s, net::NodeId k) {
    OrchStreamSpec sp;
    sp.vc = {vc, s, k};
    return sp;
  };
  struct Case {
    const char* name;
    std::vector<OrchStreamSpec> specs;
    net::NodeId expect;
    const char* why;
  };
  const Case cases[] = {
      {"film: 2 servers (10,20) -> 1 ws (30)", {spec(1, 10, 30), spec(2, 20, 30)}, 30,
       "common sink"},
      {"language lab: server 10 -> ws 31,32,33",
       {spec(1, 10, 31), spec(2, 10, 32), spec(3, 10, 33)},
       10,
       "common source"},
      {"A/V pair both 10 -> 20 (tie)", {spec(1, 10, 20), spec(2, 10, 20)}, 20, "sink preferred"},
      {"disjoint pairs 10->20, 30->40", {spec(1, 10, 20), spec(2, 30, 40)}, net::kInvalidNode,
       "no common node"},
  };
  row("%-44s %12s  %s", "topology", "chosen node", "rule");
  for (const auto& c : cases) {
    const auto chosen = orch::Orchestrator::choose_orchestrating_node(c.specs);
    const std::string shown = chosen == net::kInvalidNode ? "none" : std::to_string(chosen);
    row("%-44s %12s  %s", c.name, shown.c_str(), c.why);
    check.holds(std::string(c.name) + ": chosen node is the " + c.why, chosen == c.expect);
  }
}

void loop_local_row(std::uint64_t seed, Oracle& check) {
  // Film topology: orchestrated from the common sink, the regulate ->
  // report loop is node-local; only source-side stats cross the network.
  FilmWorld world(0.0, seed);
  orch::OrchPolicy policy;
  policy.interval = 100 * kMillisecond;
  auto session = world.orchestrate(policy, 0);
  std::map<transport::VcId, Time> last_reg;
  SampleSet excess;
  session->agent().set_interval_callback([&](const orch::RegulateIndication& ind, std::int64_t) {
    const Time now = world.platform.scheduler().now();
    if (auto it = last_reg.find(ind.vc); it != last_reg.end())
      excess.add(to_millis(now - it->second) - 100.0);
    last_reg[ind.vc] = now;
  });
  world.platform.run_until(world.platform.scheduler().now() + 10 * kSecond);
  row("per-VC report cadence over the 100 ms interval: %zu reports, mean excess %.3f ms",
      excess.count(), excess.mean());
  check.at_least("reports arrived", static_cast<double>(excess.count()), 100);
  check.near("report cadence exceeds the interval by nothing (ms)", excess.mean(), 0.0);
}

struct ShardedRun {
  std::size_t events = 0;
  std::uint64_t serial_rounds = 0;
  std::uint64_t parallel_rounds = 0;
  double wall_s = 0;
};

/// Sixteen orchestrated sessions on sixteen *disjoint* node pairs: every
/// stream, its regulation loop and its HLO tick stay on the two shards that
/// own the pair, so steady state has no global events and the executor can
/// run every round in parallel.  Times 30 simulated seconds of steady state.
ShardedRun run_sharded(std::uint64_t seed, unsigned threads) {
  constexpr std::size_t kPairs = 16;
  platform::Platform platform(seed);
  platform.set_threads(threads);
  std::vector<platform::Host*> srcs, dsts;
  std::vector<std::unique_ptr<media::StoredMediaServer>> servers;
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  // Campus-scale links: the 10 ms propagation delay is the executor's
  // lookahead, so every round spans 10 ms of simulated time and each shard
  // drains a full pacer/regulation burst per round instead of one event.
  net::LinkConfig link = lan_link();
  link.propagation_delay = 10 * kMillisecond;
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto& src = platform.add_host("src" + std::to_string(i));
    auto& dst = platform.add_host("dst" + std::to_string(i));
    srcs.push_back(&src);
    dsts.push_back(&dst);
    platform.network().add_link(src.id, dst.id, link);
  }
  platform.network().finalize_routes();
  for (std::size_t i = 0; i < kPairs; ++i) {
    servers.push_back(
        std::make_unique<media::StoredMediaServer>(platform, *srcs[i], "s" + std::to_string(i)));
    media::TrackConfig t;
    t.track_id = static_cast<std::uint32_t>(i + 1);
    t.auto_start = false;
    t.vbr.base_bytes = 1024;
    const auto addr = servers.back()->add_track(100, t);
    media::RenderConfig rc;
    rc.expect_track = t.track_id;
    sinks.push_back(std::make_unique<media::RenderingSink>(platform, *dsts[i], 200, rc));
    streams.push_back(
        std::make_unique<platform::Stream>(platform, *dsts[i], "p" + std::to_string(i)));
    platform::VideoQos vq;
    vq.frames_per_second = 100;
    streams.back()->connect(addr, {dsts[i]->id, 200}, vq, {}, nullptr);
  }
  platform.run_until(500 * kMillisecond);
  std::vector<std::unique_ptr<orch::OrchSession>> sessions;
  orch::OrchPolicy policy;
  policy.interval = 100 * kMillisecond;
  for (std::size_t i = 0; i < kPairs; ++i)
    sessions.push_back(
        platform.orchestrator().orchestrate({streams[i]->orch_spec(2)}, policy, nullptr));
  platform.run_until(platform.scheduler().now() + 500 * kMillisecond);
  for (auto& s : sessions) s->prime(false, nullptr);
  platform.run_until(platform.scheduler().now() + kSecond);
  for (auto& s : sessions) s->start(nullptr);
  platform.run_until(platform.scheduler().now() + 200 * kMillisecond);

  ShardedRun r;
  const auto& exec = platform.scheduler().executor();
  const std::uint64_t serial0 = exec.serial_rounds(), par0 = exec.parallel_rounds();
  const Time until = platform.scheduler().now() + 30 * kSecond;
  r.wall_s = wall_seconds([&] { r.events = platform.scheduler().run_until(until); });
  r.serial_rounds = exec.serial_rounds() - serial0;
  r.parallel_rounds = exec.parallel_rounds() - par0;
  return r;
}

void sharded_row(std::uint64_t seed, Oracle& check) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  row("hardware threads available: %u", hw);
  row("%-10s %12s %14s %16s %14s %10s", "threads", "events", "serial rounds", "parallel rounds",
      "events/sec", "speedup");
  const ShardedRun base = run_sharded(seed, 1);
  const double base_eps = static_cast<double>(base.events) / base.wall_s;
  for (unsigned threads : {1u, 4u}) {
    const ShardedRun r = threads == 1 ? base : run_sharded(seed, threads);
    const double eps = static_cast<double>(r.events) / r.wall_s;
    row("%-10u %12zu %14llu %16llu %14.0f %9.2fx", threads, r.events,
        static_cast<unsigned long long>(r.serial_rounds),
        static_cast<unsigned long long>(r.parallel_rounds), eps, eps / base_eps);
    const obs::Labels labels = {{"threads", std::to_string(threads)},
                                {"hw_threads", std::to_string(hw)}};
    headline("orchestration.sharded_events_per_sec", eps, labels);
    if (threads == 1) continue;
    headline("orchestration.sharded_speedup", eps / base_eps, labels);
    // Wall-clock speedup is capped by the host; the determinism half of the
    // contract is not: same events, same round structure at any worker count.
    const std::string at = " at " + std::to_string(threads) + " threads";
    check.holds("same event count" + at, r.events == base.events);
    check.holds("same serial rounds" + at, r.serial_rounds == base.serial_rounds);
    check.holds("same parallel rounds" + at, r.parallel_rounds == base.parallel_rounds);
  }
  // Steady state has no global events: all but a couple of rounds run in
  // parallel.
  check.at_most("serial rounds in steady state", static_cast<double>(base.serial_rounds), 2);
}

}  // namespace

std::vector<Claim> orchestration_claims() {
  return {
      {"orchestration.establish", "Table 4 (Orch.request / Orch.Release) latency vs group size",
       31, establish_row},
      {"orchestration.node_select", "Fig 5: orchestrating-node selection", 0, node_select_row},
      {"orchestration.loop_local", "Fig 5: the regulate -> report loop at the common sink", 4242,
       loop_local_row},
      {"orchestration.sharded", "sharded runtime: identical events and rounds at 1 and 4 threads",
       97, sharded_row},
  };
}

}  // namespace cmtos::bench
