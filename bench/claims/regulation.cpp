// F6/T6 — the HLO-agent/LLO regulation loop (Fig 6, Orch.Regulate of
// Table 6), the paper's central claim: orchestrated groups of CM
// connections keep their temporal relationship (lip sync) despite clock
// rate discrepancies, by per-interval rate targets with drop/hold
// compensation, while free-running groups drift apart.
//
// Every row plays 300 s of film (FilmWorld): deep receive rings mask
// differential drift for minutes, so the contrast needs several minutes.
// The film world draws no randomness: its oracles are exact.

#include "claims.h"

namespace cmtos::bench {
namespace {

const Duration kPlay = 300 * kSecond;

struct RunResult {
  double max_skew_ms = 0;
  double p95_skew_ms = 0;
  double final_skew_ms = 0;
  std::int64_t drops = 0;
  std::int64_t video_holds = 0;
  std::int64_t audio_holds = 0;
  std::uint64_t reports = 0;
};

/// One play-out at `drift_ppm`; `interval` 0 runs free (no regulation).
RunResult play(std::uint64_t seed, double drift_ppm, Duration interval,
               std::uint32_t max_drop = 2) {
  FilmWorld world(drift_ppm, seed);
  std::unique_ptr<orch::OrchSession> session;
  if (interval > 0) {
    orch::OrchPolicy policy;
    policy.interval = interval;
    session = world.orchestrate(policy, max_drop);
  } else {
    world.start_free_running();
  }
  auto meter = world.measure(kPlay);

  RunResult r;
  r.max_skew_ms = meter->max_abs_skew_seconds() * 1000;
  SampleSet abs;
  for (const auto& s : meter->samples()) {
    if (s.positions_s[0] >= 0 && s.positions_s[1] >= 0)
      abs.add(std::abs(s.positions_s[0] - s.positions_s[1]) * 1000);
  }
  if (abs.count() > 0) {
    r.p95_skew_ms = abs.percentile(95);
    r.final_skew_ms = std::abs(meter->samples().back().positions_s[0] -
                               meter->samples().back().positions_s[1]) *
                      1000;
  }
  if (session) {
    for (const auto& [vc, st] : session->agent().status()) r.drops += st.drops_total;
    r.reports = session->agent().reports_processed();
  }
  r.video_holds = world.video_sink->stats().starvation_events;
  r.audio_holds = world.audio_sink->stats().starvation_events;
  return r;
}

std::string ppm_label(double drift) { return std::to_string(static_cast<int>(drift)); }

void drift_row(std::uint64_t seed, Oracle& check) {
  row("%-18s %-14s %14s %14s %14s", "drift (ppm)", "mode", "max|skew| ms", "p95|skew| ms",
      "final skew ms");
  // drift -> {free-running max, orchestrated max, orchestrated final}.
  struct Expect {
    double drift, free_max, orch_max, orch_final;
  };
  const Expect expect[] = {{0, 0, 0, 0},         {200, 0, 0, 0},       {500, 0, 0, 0},
                           {1000, 80, 80, 40},   {2000, 220, 80, 60},  {4000, 540, 80, 60}};
  double prev_free = 0;
  for (const Expect& e : expect) {
    const auto free_run = play(seed, e.drift, 0);
    const auto orch_run = play(seed, e.drift, 100 * kMillisecond);
    row("%-18.0f %-14s %14.1f %14.1f %14.1f", e.drift, "free-running", free_run.max_skew_ms,
        free_run.p95_skew_ms, free_run.final_skew_ms);
    row("%-18.0f %-14s %14.1f %14.1f %14.1f", e.drift, "orchestrated", orch_run.max_skew_ms,
        orch_run.p95_skew_ms, orch_run.final_skew_ms);
    const std::string at = " at " + ppm_label(e.drift) + " ppm";
    check.near("free-running max|skew|" + at, free_run.max_skew_ms, e.free_max);
    check.near("orchestrated max|skew|" + at, orch_run.max_skew_ms, e.orch_max);
    check.near("orchestrated final skew" + at, orch_run.final_skew_ms, e.orch_final);
    check.at_least("free-running skew grows with drift" + at, free_run.max_skew_ms, prev_free);
    prev_free = free_run.max_skew_ms;
    headline("regulation.max_skew_ms", free_run.max_skew_ms,
             {{"drift_ppm", ppm_label(e.drift)}, {"mode", "free-running"}});
    headline("regulation.max_skew_ms", orch_run.max_skew_ms,
             {{"drift_ppm", ppm_label(e.drift)}, {"mode", "orchestrated"}});
    headline("regulation.final_skew_ms", orch_run.final_skew_ms,
             {{"drift_ppm", ppm_label(e.drift)}, {"mode", "orchestrated"}});
  }
}

// The interval is the §5 policy knob: it sets how often the HLO agent
// issues targets and collects reports.  At 2000 ppm one interval of even
// 1000 ms accumulates only 2 ms of drift, so the skew is set by the
// loop's frame-granular drop/hold actions, not by the interval: what the
// knob buys is control traffic, which falls as 1/interval while the skew
// stays bounded.
void interval_row(std::uint64_t seed, Oracle& check) {
  const auto free_run = play(seed, 2000.0, 0);
  row("free-running at 2000 ppm: max|skew| %.1f ms", free_run.max_skew_ms);
  row("%s", "");
  row("%-18s %14s %14s %12s %14s", "interval (ms)", "max|skew| ms", "p95|skew| ms", "drops",
      "reports");
  const Duration intervals[] = {50 * kMillisecond, 100 * kMillisecond, 200 * kMillisecond,
                                500 * kMillisecond, 1000 * kMillisecond};
  for (Duration interval : intervals) {
    const auto r = play(seed, 2000.0, interval);
    row("%-18.0f %14.1f %14.1f %12lld %14llu", to_millis(interval), r.max_skew_ms,
        r.p95_skew_ms, static_cast<long long>(r.drops),
        static_cast<unsigned long long>(r.reports));
    const std::string at = " at " + std::to_string(static_cast<int>(to_millis(interval))) + " ms";
    check.at_most("max|skew| within 3 video frames" + at, r.max_skew_ms, 120.0);
    check.at_most("p95|skew| within 2 video frames" + at, r.p95_skew_ms, 80.0);
    check.at_most("regulated skew below free-running" + at, r.max_skew_ms,
                  free_run.max_skew_ms / 1.5);
    // One report per VC per interval over the play-out, within 5 %.
    const double per_vc = to_seconds(kPlay) / to_seconds(interval);
    check.near("reports per VC fall as 1/interval" + at, static_cast<double>(r.reports) / 2,
               per_vc, per_vc * 0.05);
  }
}

void compensation_row(std::uint64_t seed, Oracle& check) {
  row("%-18s %10s %12s %16s %16s", "drift (ppm)", "max-drop", "drops", "video holds",
      "audio holds");
  for (double drift : {1000.0, 2000.0}) {
    for (std::uint32_t max_drop : {0u, 2u, 8u}) {
      const auto r = play(seed, drift, 100 * kMillisecond, max_drop);
      row("%-18.0f %10u %12lld %16lld %16lld", drift, max_drop,
          static_cast<long long>(r.drops), static_cast<long long>(r.video_holds),
          static_cast<long long>(r.audio_holds));
      const std::string at =
          " at " + ppm_label(drift) + " ppm, max-drop " + std::to_string(max_drop);
      if (max_drop == 0) {
        check.near("no-loss media is never dropped" + at, static_cast<double>(r.drops), 0);
        check.at_least("correction by holds" + at,
                       static_cast<double>(r.video_holds + r.audio_holds), 1);
      } else {
        check.at_least("a drop budget sheds OSDUs" + at, static_cast<double>(r.drops), 1);
        check.near("the faster (video) stream sheds instead of holding" + at,
                   static_cast<double>(r.video_holds), 0);
      }
    }
  }
}

}  // namespace

std::vector<Claim> regulation_claims() {
  return {
      {"regulation.drift",
       "Fig 6 / Table 6 (Orch.Regulate): lip sync over 300 s of film vs drift", 4242, drift_row},
      {"regulation.interval",
       "Fig 6 / §5 policy: skew and control traffic vs regulation interval", 4242, interval_row},
      {"regulation.compensation", "Table 6 (max-drop#): drop at the source vs hold delivery",
       4242, compensation_row},
  };
}

}  // namespace cmtos::bench
