// cmtos_perf — the cmtos benchmark driver.
//
//   cmtos_perf --workload bulk_64k|resident_10k|city_orch --seed N
//              --seconds S --trace 0|1 [--out DIR] [--revision R]
//
// One process runs one workload: it sets the world up several times (the
// median is setup_s; the last world is kept), then measures a timed window
// of S wall seconds in which the simulator runs as fast as the CPU allows.
// The window opens with a fixed-length simulated epoch whose outcomes
// (delays, loss, failed operations, skew, starvation) depend only on the
// seed.  --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (counts, spans, probes, a same-seed replay).  The last
// stdout line is one JSON object {correct, attempted, failed, metrics}; the
// exit status is non-zero when a correctness check fails.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/metrics.h"
#include "util/frame_pool.h"

namespace perf {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string revision = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cmtos_perf: %s\nusage: cmtos_perf --workload bulk_64k|resident_10k|city_orch "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--revision R]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--revision") {
      a.revision = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "bulk_64k" && a.workload != "resident_10k" && a.workload != "city_orch")
    usage("unknown workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<World> make_world(const Args& a, unsigned threads) {
  if (a.workload == "bulk_64k") return make_bulk(a.seed);
  if (a.workload == "resident_10k") return make_resident(a.seed);
  return make_city(a.seed, threads);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Process, simulator and library counters at one instant.
struct Snap {
  double wall = 0, cpu = 0, busy = 0;
  Time sim = 0;
  std::int64_t events = 0, allocs = 0;
  std::uint64_t serial_rounds = 0, parallel_rounds = 0;
  cmtos::FramePoolStats pool;
  LayerCounts lc;
};

Snap snap(World& w) {
  Snap s;
  s.wall = wall_s();
  s.cpu = cpu_s();
  s.busy = w.sim().busy_s();
  s.sim = w.sim().now();
  s.events = w.sim().events();
  s.allocs = heap_allocs();
  const auto& ex = w.platform().scheduler().executor();
  s.serial_rounds = ex.serial_rounds();
  s.parallel_rounds = ex.parallel_rounds();
  s.pool = cmtos::FramePool::global().stats();
  s.lc = w.counts();
  return s;
}

std::vector<std::pair<std::string, double>> snap_values(const Snap& s) {
  return {{"wall_s", s.wall},
          {"cpu_s", s.cpu},
          {"run_until_busy_s", s.busy},
          {"sim_s", cmtos::to_seconds(s.sim)},
          {"sim_events", static_cast<double>(s.events)},
          {"heap_allocs", static_cast<double>(s.allocs)},
          {"exec_serial_rounds", static_cast<double>(s.serial_rounds)},
          {"exec_parallel_rounds", static_cast<double>(s.parallel_rounds)},
          {"pool_hits", static_cast<double>(s.pool.pool_hits)},
          {"pool_misses", static_cast<double>(s.pool.pool_misses)},
          {"pool_copied_bytes", static_cast<double>(s.pool.copied_bytes)},
          {"osdus_delivered", static_cast<double>(s.lc.delivered)},
          {"payload_bytes_delivered", static_cast<double>(s.lc.delivered_bytes)},
          {"data_tpdus_sent", static_cast<double>(s.lc.tpdus_sent)},
          {"data_tpdus_retransmitted", static_cast<double>(s.lc.tpdus_retx)},
          {"link_packets", static_cast<double>(s.lc.link_packets)},
          {"link_bytes", static_cast<double>(s.lc.link_bytes)},
          {"link_queue_drops", static_cast<double>(s.lc.queue_drops)},
          {"obs_series", static_cast<double>(cmtos::obs::Registry::global().size())}};
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// A named value, or 0 when the workload does not report it.
double lookup(const Extras& values, const std::string& name) {
  for (const auto& [k, v] : values)
    if (k == name) return v;
  return 0;
}

/// One measurement point of the timed window.
struct Sample {
  double wall, cpu;
  std::int64_t delivered;
};

/// Splits the window into blocks of equal delivered-OSDU count and returns
/// the median block throughput (OSDU/s) and CPU per OSDU (us).
std::pair<double, double> block_medians(const std::vector<Sample>& s, int blocks) {
  if (s.size() < 2) return {0, 0};
  const std::int64_t total = s.back().delivered - s.front().delivered;
  if (total <= 0) return {0, 0};
  std::vector<double> rates, cpus;
  std::size_t prev = 0;
  for (int b = 1; b <= blocks; ++b) {
    const std::int64_t target = s.front().delivered + total * b / blocks;
    std::size_t k = prev;
    while (k + 1 < s.size() && s[k].delivered < target) ++k;
    const double n = static_cast<double>(s[k].delivered - s[prev].delivered);
    const double dw = s[k].wall - s[prev].wall;
    if (n > 0 && dw > 0) {
      rates.push_back(n / dw);
      cpus.push_back((s[k].cpu - s[prev].cpu) / n * 1e6);
    }
    prev = k;
  }
  std::printf("blocks (OSDU/s):");
  for (const double r : rates) std::printf(" %.1f", r);
  std::printf("\n");
  return {median(rates), median(cpus)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  const Args a = parse(argc, argv);
  // At most 2 executor threads: city_orch is the multi-core case.
  const unsigned threads = a.workload == "city_orch" ? 2 : 1;
  if (a.trace) track_heap_bytes(true);

  const std::string meta =
      "{\"workload\": \"" + a.workload + "\", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + std::to_string(a.seconds) + ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"threads\": " + std::to_string(threads) + ", \"revision\": \"" +
      json_escape(a.revision) + "\", \"cpu\": \"" + json_escape(cpu_model()) +
      "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" PERF_BUILD_TYPE "\", \"compiler\": \"" PERF_COMPILER "\"}";
  std::printf("meta %s\n", meta.c_str());

  Spans& spans = Spans::get();

  // --- setup, repeated; the last world is kept for the timed window -------
  const int setups = a.trace ? 1 : (a.workload == "resident_10k" ? 3 : 9);
  std::vector<double> setup_times;
  SetupPhases phases;
  std::unique_ptr<World> w;
  for (int k = 0; k < setups; ++k) {
    if (w) {
      w.reset();
      cmtos::obs::Registry::global().clear();
    }
    spans.set_run(k + 1, "setup " + std::to_string(k + 1));
    spans.set_enabled(a.trace);
    const double t0 = wall_s();
    w = make_world(a, threads);
    w->setup(phases);
    setup_times.push_back(wall_s() - t0);
  }

  // --- timed window -------------------------------------------------------
  // Traced runs measure the first half untraced and the second half
  // traced; the throughput ratio of the halves is the tracing overhead.
  spans.set_run(setups + 1, "window");
  spans.set_enabled(false);
  const Snap s0 = snap(*w);
  if (a.trace) spans.snapshot("window_start", snap_values(s0));
  w->open_epoch();
  const Time epoch_end = s0.sim + w->epoch();
  const Time grace_end = epoch_end + w->grace();
  std::vector<Sample> samples{{s0.wall, s0.cpu, s0.lc.delivered}};
  SimMetrics sim;
  bool epoch_closed = false;
  double epoch_wall = 0;
  double peak_rss = 0;
  Snap mid;
  std::size_t mid_sample = 0;
  for (;;) {
    w->step();
    const double now_w = wall_s();
    const Time now = w->sim().now();
    if (now_w - samples.back().wall >= 1e-3) samples.push_back({now_w, cpu_s(), w->delivered()});
    if (epoch_wall == 0 && now >= epoch_end) epoch_wall = now_w - s0.wall;
    if (!epoch_closed && now >= grace_end) {
      sim = w->close_epoch();
      epoch_closed = true;
      // Peak RSS at a fixed simulated point: later in the window a faster
      // run simulates (and accumulates) more, which would couple memory to
      // speed.
      peak_rss = peak_rss_mib();
    }
    if (a.trace && mid_sample == 0 && now_w - s0.wall >= a.seconds / 2) {
      samples.push_back({now_w, cpu_s(), w->delivered()});
      mid_sample = samples.size() - 1;
      mid = snap(*w);
      spans.snapshot("traced_half_start", snap_values(mid));
      spans.set_enabled(true);
    }
    if (epoch_closed && now_w - s0.wall >= a.seconds) break;
  }
  samples.push_back({wall_s(), cpu_s(), w->delivered()});
  spans.set_enabled(false);
  const Snap s1 = snap(*w);
  if (a.trace) spans.snapshot("window_end", snap_values(s1));
  const auto series = static_cast<double>(cmtos::obs::Registry::global().size());
  const auto live_vcs = static_cast<double>(w->live_vcs());
  const auto pending = static_cast<double>(w->platform().scheduler().pending());

  Checks checks;
  w->finish(checks);
  const Extras extras = w->extras();

  // --- end-to-end metrics -------------------------------------------------
  const std::int64_t attempted = sim.ops + sim.accepted;
  const std::int64_t failed = sim.ops_failed + (sim.accepted - sim.delivered) + sim.late;
  std::vector<Metric> out;
  if (!a.trace) {
    const auto [rate, cpu_us] = block_medians(samples, 10);
    out = {
        {"setup_s", median(setup_times), "s"},
        {"osdu_per_wall_s", rate, "1/s"},
        {"cpu_us_per_osdu", cpu_us, "us"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"delay_p50_ms", quantile(sim.delay_ms, 0.5), "ms"},
        {"delay_p99_ms", quantile(sim.delay_ms, 0.99), "ms"},
        {"osdu_delivered_ratio", ratio(static_cast<double>(sim.delivered),
                                       static_cast<double>(sim.accepted)), "ratio"},
        {"ops_ok_ratio", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"connect_p50_ms", quantile(sim.connect_ms, 0.5), "ms"},
        {"connect_p99_ms", quantile(sim.connect_ms, 0.99), "ms"},
        {"skew_max_ms", sim.skew_max_ms, "ms"},
        {"render_ok_ratio", 1.0 - ratio(static_cast<double>(sim.empty_ticks),
                                        static_cast<double>(sim.ticks)), "ratio"},
    };
  } else {
    // --- per-layer metrics (traced run) -----------------------------------
    const Snap& u = mid;  // end of the untraced half
    const double osdus = static_cast<double>(s1.lc.delivered - s0.lc.delivered);
    const double osdus_u = static_cast<double>(u.lc.delivered - s0.lc.delivered);
    const double osdus_t = static_cast<double>(s1.lc.delivered - u.lc.delivered);
    const double sim_s = cmtos::to_seconds(s1.sim - s0.sim);
    const double rate_u = ratio(osdus_u, u.wall - s0.wall);
    const double rate_t = ratio(osdus_t, s1.wall - u.wall);
    const std::vector<Sample> untraced(samples.begin(),
                                       samples.begin() + static_cast<long>(mid_sample) + 1);
    const double cpu_us_u = block_medians(untraced, 10).second;
    const double rounds = static_cast<double>((s1.serial_rounds - s0.serial_rounds) +
                                              (s1.parallel_rounds - s0.parallel_rounds));
    auto d = [&](std::int64_t LayerCounts::*f) { return static_cast<double>(s1.lc.*f - s0.lc.*f); };
    auto extra = [&](const std::string& name) { return lookup(extras, name); };

    ProbeShapes shapes;
    shapes.fragment_bytes = a.workload == "city_orch" ? 512 : 1400;
    shapes.live_timers = static_cast<std::size_t>(pending);
    const Extras probes = run_probes(shapes);
    auto probe = [&](const std::string& name) { return lookup(probes, name); };

    // Same-seed replay of setup + epoch: the simulated-time metrics must be
    // identical.  city_orch replays at 1 thread, which also gives the
    // parallel speedup of the epoch.
    const unsigned replay_threads = a.workload == "city_orch" ? 1 : threads;
    w.reset();
    cmtos::obs::Registry::global().clear();
    spans.set_run(setups + 2, "replay at " + std::to_string(replay_threads) + " thread(s)");
    SetupPhases replay_phases;
    auto r = make_world(a, replay_threads);
    r->setup(replay_phases);
    const double r0 = wall_s();
    r->open_epoch();
    const Time r_end = r->sim().now() + r->epoch();
    const Time r_grace = r_end + r->grace();
    double replay_epoch_wall = 0;
    while (r->sim().now() < r_grace) {
      r->step();
      if (replay_epoch_wall == 0 && r->sim().now() >= r_end) replay_epoch_wall = wall_s() - r0;
    }
    const SimMetrics replay = r->close_epoch();
    const bool replay_match = replay == sim;
    checks.expect(replay_match, "same-seed replay reproduces every simulated-time metric");

    const double crc_ns_per_osdu =
        2.0 * static_cast<double>(64 * 1024) / 1024.0 * probe("util.crc32_ns_per_kib");
    out = {
        {"util.crc32_ns_per_kib", probe("util.crc32_ns_per_kib"), "ns"},
        {"util.allocs_per_osdu", ratio(static_cast<double>(u.allocs - s0.allocs), osdus_u), "count"},
        {"util.pool_hit_ratio",
         ratio(static_cast<double>(s1.pool.pool_hits - s0.pool.pool_hits),
               static_cast<double>((s1.pool.pool_hits - s0.pool.pool_hits) +
                                   (s1.pool.pool_misses - s0.pool.pool_misses))), "ratio"},
        {"util.pool_copied_bytes_per_osdu",
         ratio(static_cast<double>(s1.pool.copied_bytes - s0.pool.copied_bytes), osdus), "B"},
        {"util.crc_share_of_cpu",
         a.workload == "bulk_64k" ? ratio(crc_ns_per_osdu, cpu_us_u * 1e3) : 0.0, "ratio"},
        {"sim.events_per_osdu", ratio(static_cast<double>(s1.events - s0.events), osdus), "count"},
        {"sim.ns_per_event",
         ratio((u.busy - s0.busy) * 1e9, static_cast<double>(u.events - s0.events)), "ns"},
        {"sim.live_events_per_vc", ratio(pending, live_vcs), "count"},
        {"sim.timer_arm_ns", probe("sim.timer_arm_ns"), "ns"},
        {"sim.timer_fire_ns", probe("sim.timer_fire_ns"), "ns"},
        {"sim.parallel_round_share",
         ratio(static_cast<double>(s1.parallel_rounds - s0.parallel_rounds), rounds), "ratio"},
        {"sim.events_per_round", ratio(static_cast<double>(s1.events - s0.events), rounds), "count"},
        {"sim.parallel_speedup",
         replay_threads != threads ? ratio(replay_epoch_wall, epoch_wall) : 0.0, "ratio"},
        {"net.packets_per_osdu", ratio(d(&LayerCounts::link_packets), osdus), "count"},
        {"net.wire_bytes_per_payload_byte",
         ratio(d(&LayerCounts::link_bytes), d(&LayerCounts::delivered_bytes)), "ratio"},
        {"net.forward_ns_per_packet", probe("net.forward_ns_per_packet"), "ns"},
        {"net.forward_ns_per_ctrl_packet", probe("net.forward_ns_per_ctrl_packet"), "ns"},
        {"net.queue_drops", d(&LayerCounts::queue_drops), "count"},
        {"transport.tpdus_per_osdu", ratio(d(&LayerCounts::tpdus_sent), osdus), "count"},
        {"transport.submit_ns", spans.mean_ns("submit"), "ns"},
        {"transport.receive_ns", spans.mean_ns("receive"), "ns"},
        {"transport.dt_encode_ns", probe("transport.dt_encode_ns"), "ns"},
        {"transport.dt_decode_ns", probe("transport.dt_decode_ns"), "ns"},
        {"transport.control_tpdus_per_vc_s",
         ratio(d(&LayerCounts::link_packets) - d(&LayerCounts::data_link_tx), live_vcs * sim_s),
         "1/s"},
        {"transport.ctrl_encode_ns", probe("transport.ctrl_encode_ns"), "ns"},
        {"transport.ctrl_decode_ns", probe("transport.ctrl_decode_ns"), "ns"},
        {"transport.heap_bytes_per_vc", extra("transport.heap_bytes_per_vc"), "B"},
        {"transport.connect_call_us", spans.mean_ns("t_connect_request") / 1e3, "us"},
        {"transport.disconnect_call_us", spans.mean_ns("t_disconnect_request") / 1e3, "us"},
        {"transport.retx_ratio", ratio(d(&LayerCounts::tpdus_retx), d(&LayerCounts::tpdus_sent)),
         "ratio"},
        {"orch.reports_per_interval",
         ratio(d(&LayerCounts::domain_reports), d(&LayerCounts::root_aggregates)), "count"},
        {"orch.root_aggregates_per_s", ratio(d(&LayerCounts::root_aggregates), sim_s), "1/s"},
        {"orch.opdu_encode_ns", probe("orch.opdu_encode_ns"), "ns"},
        {"orch.opdu_decode_ns", probe("orch.opdu_decode_ns"), "ns"},
        {"orch.regulation_drop_ratio",
         ratio(extra("orch.regulation_drops"), static_cast<double>(s1.lc.frames_produced)),
         "ratio"},
        {"orch.establish_sim_ms", extra("orch.establish_sim_ms"), "ms"},
        {"orch.prime_sim_ms", extra("orch.prime_sim_ms"), "ms"},
        {"media.integrity_failures", extra("media.integrity_failures"), "count"},
        {"media.producer_blocked_ratio",
         ratio(d(&LayerCounts::producer_blocked),
               d(&LayerCounts::producer_blocked) + d(&LayerCounts::frames_produced)), "ratio"},
        {"setup.build_s", phases.build_s, "s"},
        {"setup.connect_s", phases.connect_s, "s"},
        {"setup.orchestrate_s", phases.orchestrate_s, "s"},
        {"setup.warmup_s", phases.warmup_s, "s"},
        {"obs.series_count", series, "count"},
        {"driver.run_until_share", ratio(u.busy - s0.busy, u.wall - s0.wall), "ratio"},
        {"driver.trace_overhead", rate_t > 0 ? rate_u / rate_t - 1.0 : 0.0, "ratio"},
        {"driver.delay_samples", static_cast<double>(sim.delay_ms.size()), "count"},
        {"driver.connect_samples", static_cast<double>(sim.connect_ms.size()), "count"},
        {"driver.replay_match", replay_match ? 1.0 : 0.0, "count"},
    };
  }

  // --- report -------------------------------------------------------------
  const bool correct = checks.failures.empty();
  for (const auto& f : checks.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("samples: delay=%zu connect=%zu accepted=%lld delivered=%lld late=%lld ops=%lld "
              "ops_failed=%lld\n",
              sim.delay_ms.size(), sim.connect_ms.size(), static_cast<long long>(sim.accepted),
              static_cast<long long>(sim.delivered), static_cast<long long>(sim.late),
              static_cast<long long>(sim.ops), static_cast<long long>(sim.ops_failed));
  std::string metrics_json;
  for (const auto& m : out) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    metrics_json += buf;
  }
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
                             metrics_json + "}}";

  ::mkdir(a.out.c_str(), 0755);
  const std::string stem = a.out + "/" + a.workload + "_seed" + std::to_string(a.seed) +
                           (a.trace ? "_traced" : "");
  if (std::FILE* f = std::fopen((stem + ".result.json").c_str(), "w")) {
    std::fprintf(f, "{\"meta\": %s,\n\"result\": %s}\n", meta.c_str(), result.c_str());
    std::fclose(f);
  }
  if (a.trace && !spans.write(stem + ".trace.json", meta))
    std::fprintf(stderr, "warning: cannot write %s.trace.json\n", stem.c_str());

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
