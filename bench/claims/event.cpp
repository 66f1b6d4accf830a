// T6 (Orch.Event) — event-driven synchronisation (§6.3.4): the LLO matches
// the per-OSDU OPDU event field at arrival, ahead of an application-level
// polling baseline ("it would be possible to implement such a scheme in an
// ad-hoc manner in the application layer, but this would require that
// application threads examine each incoming OSDU"), and masked matching
// fires on exactly the flagged OSDUs.  Also the scheduler hot path the
// event machinery runs on.

#include <functional>
#include <map>

#include "claims.h"

namespace cmtos::bench {
namespace {

struct EventWorld {
  explicit EventWorld(std::uint64_t seed) : platform(seed) {
    server_host = &platform.add_host("server");
    ws = &platform.add_host("ws");
    platform.network().add_link(server_host->id, ws->id, lan_link());
    platform.network().finalize_routes();
    server = std::make_unique<media::StoredMediaServer>(platform, *server_host, "s");
    media::TrackConfig t;
    t.track_id = 1;
    t.auto_start = true;
    t.event_every = 100;  // flag a "change of encoding" every 100 frames
    t.event_value = 0xc0dec;
    t.vbr.base_bytes = 1024;
    src = server->add_track(100, t);
    media::RenderConfig rc;
    rc.expect_track = 1;
    sink = std::make_unique<media::RenderingSink>(platform, *ws, 200, rc);
    stream = std::make_unique<platform::Stream>(platform, *ws, "s");
    platform::VideoQos vq;
    vq.frames_per_second = 50;
    stream->connect(src, {ws->id, 200}, vq, {}, nullptr);
    platform.run_until(500 * kMillisecond);
  }
  platform::Platform platform;
  platform::Host* server_host = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<media::StoredMediaServer> server;
  std::unique_ptr<media::RenderingSink> sink;
  std::unique_ptr<platform::Stream> stream;
  net::NetAddress src;
};

void latency_row(std::uint64_t seed, Oracle& check) {
  EventWorld w(seed);
  auto& llo = w.ws->llo;
  const transport::VcId vc = w.stream->orch_spec().vc.vc;
  llo.orch_request(1, {w.stream->orch_spec().vc}, nullptr);
  w.platform.run_until(kSecond);

  // Mechanism: LLO matching at OSDU *arrival*; the indication records the
  // arrival time, which the baseline below reuses.
  SampleSet llo_ms, poll_ms;
  std::map<std::uint32_t, Time> flagged_arrivals;
  llo.set_event_callback(1, [&](const orch::EventIndication& e) {
    llo_ms.add(to_millis(w.platform.scheduler().now() - e.matched_at));
    flagged_arrivals[e.osdu_seq] = e.matched_at;
  });
  llo.register_event(1, vc, 0xc0dec);
  // Baseline: the application only sees the event when the *renderer*
  // reads the flagged OSDU — arrival-to-application-read latency.
  w.ws->entity.sink(vc)->set_on_osdu_delivered([&](const transport::Osdu& o, Time) {
    if (o.event == 0xc0dec)
      poll_ms.add(to_millis(w.platform.scheduler().now() - flagged_arrivals[o.seq]));
  });

  w.platform.run_until(25 * kSecond);
  row("%-34s %10s %10s %10s %10s", "mechanism", "events", "mean ms", "p95 ms", "max ms");
  row("%-34s %10zu %10.3f %10.3f %10.3f", "Orch.Event (LLO at arrival)", llo_ms.count(),
      llo_ms.mean(), llo_ms.percentile(95), llo_ms.max());
  row("%-34s %10zu %10.3f %10.3f %10.3f", "app polling (read at render)", poll_ms.count(),
      poll_ms.mean(), poll_ms.percentile(95), poll_ms.max());
  headline("event.latency_mean_ms", llo_ms.mean(), {{"mechanism", "orch_event"}});
  headline("event.latency_mean_ms", poll_ms.mean(), {{"mechanism", "app_polling"}});
  // 24 s of 50 fps media flags 12 OSDUs.  LLO matching is node-local at
  // the sink; polling waits for the render thread to reach the OSDU.
  check.near("Orch.Event indications", static_cast<double>(llo_ms.count()), 12, 0);
  check.near("polled events", static_cast<double>(poll_ms.count()), 12, 0);
  check.near("Orch.Event latency, max (ms)", llo_ms.max(), 0.0);
  check.near("polling latency, mean (ms)", poll_ms.mean(), 13.613);
  check.near("polling latency, max (ms)", poll_ms.max(), 17.106);
}

void scheduler_row(std::uint64_t, Oracle& check) {
  // Throughput: self-rearming chains, the shape of pacer and heartbeat
  // timers.
  constexpr int kChains = 64;
  constexpr std::size_t kTotal = 2'000'000;
  sim::Scheduler s;
  std::size_t fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired < kTotal) s.after(10, tick);
  };
  for (int i = 0; i < kChains; ++i) s.after(i + 1, tick);
  const double chain_secs = wall_seconds([&] { s.run(); });
  const double eps = static_cast<double>(fired) / chain_secs;

  // Cancel churn: arm-and-cancel cycles, the shape of retransmit timers
  // that almost never fire.
  constexpr std::size_t kCancelRounds = 200'000;
  sim::Scheduler cs;
  std::size_t churned = 0;
  const double cancel_secs = wall_seconds([&] {
    for (std::size_t i = 0; i < kCancelRounds; ++i) {
      sim::EventHandle keep = cs.after(1000, [] {});
      sim::EventHandle retx = cs.after(2000, [] {});
      cs.after(1, [&] { ++churned; });
      keep.cancel();
      retx.cancel();
      cs.run();
    }
  });
  const double cps = static_cast<double>(kCancelRounds) / cancel_secs;

  row("%-34s %14s %14s", "workload", "events", "events/sec");
  row("%-34s %14zu %14.0f", "self-rearming chains", fired, eps);
  row("%-34s %14zu %14.0f", "arm+cancel cycles", kCancelRounds, cps);
  row("pending() after cancel storm: %zu (live events only)", cs.pending());
  headline("event.sched_events_per_sec", eps, {{"workload", "chain"}});
  headline("event.sched_events_per_sec", cps, {{"workload", "cancel"}});
  headline("event.sched_pending_after_cancel", static_cast<double>(cs.pending()));
  // Every chain stops once the total is reached: the 63 other chains each
  // fire once more after the one that reaches it.
  check.near("chain events fired", static_cast<double>(fired), kTotal + kChains - 1, 0);
  check.near("each round's live timer fires once", static_cast<double>(churned), kCancelRounds, 0);
  check.near("pending() after cancel storm", static_cast<double>(cs.pending()), 0, 0);
}

void mask_row(std::uint64_t seed, Oracle& check) {
  EventWorld w(seed);
  auto& llo = w.ws->llo;
  llo.orch_request(1, {w.stream->orch_spec().vc}, nullptr);
  w.platform.run_until(kSecond);

  int matches = 0, spurious = 0;
  llo.set_event_callback(1, [&](const orch::EventIndication& e) {
    if (e.event_value == 0xc0dec) {
      ++matches;
    } else {
      ++spurious;
    }
  });
  llo.register_event(1, w.stream->orch_spec().vc.vc, 0xdec, 0xfff);  // low 12 bits of 0xc0dec
  w.platform.run_until(21 * kSecond);

  const auto produced = w.server->stats(100).frames_produced;
  const auto flagged = (produced - 1) / 100;  // every 100th frame, skipping frame 0
  row("frames produced: %lld; flagged every 100th (skipping frame 0): %lld",
      static_cast<long long>(produced), static_cast<long long>(flagged));
  row("masked matches on flagged OSDUs: %d; spurious matches: %d", matches, spurious);
  check.near("every flagged OSDU matches through the 12-bit mask", matches,
             static_cast<double>(flagged), 0);
  check.near("spurious matches", spurious, 0, 0);
}

}  // namespace

std::vector<Claim> event_claims() {
  return {
      {"event.latency", "Table 6 (Orch.Event) + §6.3.4: LLO matching vs application polling", 61,
       latency_row},
      {"event.scheduler", "event engine hot path (wall-clock) and cancel hygiene", 0,
       scheduler_row},
      {"event.mask", "Table 6: masked event matching, uninterpreted by the LLO", 61, mask_row},
  };
}

}  // namespace cmtos::bench
