// T5/F7 — Orch.Prime / Orch.Start / Orch.Stop (Table 5, Fig 7): a primed
// group starts together, a stop freezes rendering, a seek with a flushing
// prime leaks no stale media, and the group primitives do not grow with
// the group.  The worlds draw no randomness: the oracles are exact.

#include "claims.h"

namespace cmtos::bench {
namespace {

struct StartResult {
  double start_skew_ms = -1;
  double prime_fill_ms = -1;
};

StartResult run_start(std::uint64_t seed, bool primed) {
  FilmWorld world(0.0, seed);
  orch::OrchPolicy policy;
  policy.regulate = false;
  auto session = world.platform.orchestrator().orchestrate(
      {world.vstream->orch_spec(0), world.astream->orch_spec(0)}, policy, nullptr);
  world.platform.run_until(world.platform.scheduler().now() + 500 * kMillisecond);

  StartResult r;
  if (primed) {
    const Time prime_at = world.platform.scheduler().now();
    bool prime_ok = false;
    Time primed_at = 0;
    session->prime(false, [&](bool ok, auto) {
      prime_ok = ok;
      primed_at = world.platform.scheduler().now();
    });
    world.platform.run_until(world.platform.scheduler().now() + 3 * kSecond);
    if (!prime_ok) return r;
    r.prime_fill_ms = to_millis(primed_at - prime_at);
  }
  session->start(nullptr);
  world.platform.run_until(world.platform.scheduler().now() + 5 * kSecond);

  if (world.video_sink->records().empty() || world.audio_sink->records().empty()) return r;
  const Time v0 = world.video_sink->records().front().true_time;
  const Time a0 = world.audio_sink->records().front().true_time;
  r.start_skew_ms = to_millis(v0 > a0 ? v0 - a0 : a0 - v0);
  return r;
}

void start_row(std::uint64_t seed, Oracle& check) {
  row("%-12s %-10s %18s %18s", "start mode", "trial", "start skew (ms)", "prime fill (ms)");
  for (bool primed : {false, true}) {
    const char* mode = primed ? "primed" : "cold";
    for (int trial = 0; trial < 3; ++trial) {
      const auto r = run_start(seed, primed);
      char fill[32] = "-";
      if (primed) std::snprintf(fill, sizeof fill, "%.1f", r.prime_fill_ms);
      row("%-12s %-10d %18.2f %18s", mode, trial, r.start_skew_ms, fill);
      headline("prime_start.start_skew_ms", r.start_skew_ms,
               {{"mode", mode}, {"trial", std::to_string(trial)}});
      // A cold start skews by the difference in pipeline fill times: one
      // video frame period (video's bigger frames fill slower).  A primed
      // start releases every sink at once.
      const std::string what = std::string(mode) + " start skew, trial " + std::to_string(trial);
      check.near(what, r.start_skew_ms, primed ? 0.0 : 40.0);
      if (primed) check.near("prime fill time (ms)", r.prime_fill_ms, 347.5, 0.05);
    }
  }
}

void stop_seek_row(std::uint64_t seed, Oracle& check) {
  FilmWorld world(0.0, seed);
  orch::OrchPolicy policy;
  auto session = world.orchestrate(policy, 0);
  world.platform.run_until(world.platform.scheduler().now() + 5 * kSecond);

  const Time stop_req = world.platform.scheduler().now();
  bool stopped = false;
  session->stop([&](bool ok, auto) { stopped = ok; });
  world.platform.run_until(world.platform.scheduler().now() + 2 * kSecond);
  Time last_render = 0;
  for (const auto& rec : world.video_sink->records())
    last_render = std::max(last_render, rec.true_time);
  row("stop confirmed: %s; last frame rendered %+0.1f ms relative to Orch.Stop.request",
      stopped ? "yes" : "NO", to_millis(last_render - stop_req));
  check.holds("Orch.Stop confirmed", stopped);
  check.near("last frame relative to Orch.Stop.request (ms)", to_millis(last_render - stop_req),
             -17.5, 0.05);

  // Seek both tracks to frame 1500 and restart with a flushing prime.
  world.video_server->seek(100, 1500);
  world.audio_server->seek(101, 3000);  // 2 blocks per frame
  bool reprimed = false;
  session->prime(true, [&](bool ok, auto) { reprimed = ok; });
  world.platform.run_until(world.platform.scheduler().now() + 3 * kSecond);
  const Time restart = world.platform.scheduler().now();
  session->start(nullptr);
  world.platform.run_until(world.platform.scheduler().now() + 3 * kSecond);

  std::uint32_t first_after = 0;
  for (const auto& rec : world.video_sink->records()) {
    if (rec.true_time > restart) {
      first_after = rec.frame_index;
      break;
    }
  }
  row("re-primed after seek: %s; first frame after restart: %u (%s)", reprimed ? "yes" : "NO",
      first_after, first_after < 1500 ? "STALE MEDIA LEAKED" : "clean -- no stale media");
  check.holds("flushing prime after seek confirmed", reprimed);
  check.near("first frame after restart", first_after, 1500, 0);
}

void group_row(std::uint64_t seed, Oracle& check) {
  row("%-12s %20s %20s %20s", "group size", "establish (ms)", "prime (ms)", "start (ms)");
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
    GroupWorld w(n, seed, 1, 200'000'000);
    platform::Platform& p = w.platform;
    orch::OrchPolicy policy;
    policy.regulate = false;
    Time t0 = p.scheduler().now();
    Time t_est = 0, t_prime = 0, t_start = 0;
    auto session = p.orchestrator().orchestrate(
        w.specs(), policy, [&](bool, auto) { t_est = p.scheduler().now(); });
    p.run_until(p.scheduler().now() + kSecond);
    Time t1 = p.scheduler().now();
    session->prime(false, [&](bool, auto) { t_prime = p.scheduler().now(); });
    p.run_until(p.scheduler().now() + 5 * kSecond);
    Time t2 = p.scheduler().now();
    session->start([&](bool, auto) { t_start = p.scheduler().now(); });
    p.run_until(p.scheduler().now() + kSecond);
    row("%-12zu %20.2f %20.2f %20.2f", n, to_millis(t_est - t0), to_millis(t_prime - t1),
        to_millis(t_start - t2));
    // Establish and start cost one control RTT (2 ms here) plus a few µs
    // of fan-out per VC; prime waits for the slowest pipeline fill (a
    // 16-OSDU ring at 25/s, ~700 ms) whatever the group size.
    const std::string at = " with " + std::to_string(n) + " VCs";
    check.at_most("establish within one control RTT" + at, to_millis(t_est - t0), 2.2);
    check.at_most("start within one control RTT" + at, to_millis(t_start - t2), 2.2);
    check.near("prime set by the pipeline fill" + at, to_millis(t_prime - t1), 700.0, 0.5);
  }
}

}  // namespace

std::vector<Claim> prime_start_claims() {
  return {
      {"prime_start.start", "Table 5 / Fig 7 (Orch.Prime, Orch.Start): primed vs cold start skew",
       4242, start_row},
      {"prime_start.stop_seek", "Table 5 (Orch.Stop) + §6.2.1: stop, seek, flushing prime, restart",
       4242, stop_seek_row},
      {"prime_start.group", "Table 4/5: establish/prime/start confirm latency vs group size", 7,
       group_row},
  };
}

}  // namespace cmtos::bench
