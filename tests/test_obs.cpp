// Observability layer tests: JSON helpers, the metrics registry and its
// collectors, the per-VC series the transport entity publishes, the
// Chrome-trace tracer, the QoS monitor's BER estimator and warmup flag,
// and an end-to-end orchestrated session traced to disk.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "fixtures.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/monitor.h"

namespace cmtos::test {
namespace {

using obs::json_escape;
using obs::json_number;
using obs::json_valid;
using obs::Labels;
using obs::Registry;
using obs::Tracer;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- JSON helpers ---

TEST(ObsJson, EscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ObsJson, NumberIsAlwaysAValidToken) {
  EXPECT_TRUE(json_valid(json_number(0.0)));
  EXPECT_TRUE(json_valid(json_number(-12.5)));
  EXPECT_TRUE(json_valid(json_number(4.96e-4)));
  EXPECT_TRUE(json_valid(json_number(1e300)));
  // JSON has no NaN/Inf: the writer must degrade to null.
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(1.0 / 0.0 * 1.0), "null");
}

TEST(ObsJson, ValidatorAcceptsWellFormed) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null}} "));
  EXPECT_TRUE(json_valid("\"just a string\""));
  EXPECT_TRUE(json_valid("true"));
}

TEST(ObsJson, ValidatorRejectsMalformed) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));   // trailing comma
  EXPECT_FALSE(json_valid("{'a': 1}"));      // single quotes
  EXPECT_FALSE(json_valid("{a: 1}"));        // unquoted key
  EXPECT_FALSE(json_valid("[1, 2] trailing"));
  EXPECT_FALSE(json_valid("[01]"));          // leading zero
}

// --- metrics registry ---

TEST(ObsRegistry, LabelsAreIdentity) {
  Registry reg;
  auto& a = reg.counter("x", {{"vc", "1"}});
  auto& b = reg.counter("x", {{"vc", "2"}});
  auto& a2 = reg.counter("x", {{"vc", "1"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  EXPECT_EQ(a2.value(), 3);
  EXPECT_EQ(b.value(), 0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), std::logic_error);
}

TEST(ObsRegistry, GaugeAndSetGauge) {
  Registry reg;
  reg.set_gauge("g", 2.5, {{"k", "v"}});
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"k", "v"}}).value(), 2.5);
  reg.set_gauge("g", -1.0, {{"k", "v"}});
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"k", "v"}}).value(), -1.0);
}

TEST(ObsRegistry, HistogramStats) {
  Registry reg;
  auto& h = reg.histogram("lat");
  for (double v : {1.0, 2.0, 4.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 26.75);
  // Quantiles return bucket upper bounds: p50 of {1,2,4,100} <= 4.
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_GE(h.quantile(0.99), 100.0);
}

TEST(ObsRegistry, SnapshotIsValidJson) {
  Registry reg;
  reg.counter("c", {{"vc", "1"}, {"node", "2"}}).add(7);
  reg.set_gauge("g \"quoted\"", 1.5);
  reg.histogram("h").observe(3.0);
  const std::string snap = reg.to_json({{"bench", "unit"}});
  EXPECT_TRUE(json_valid(snap)) << snap;
  EXPECT_NE(snap.find("\"bench\""), std::string::npos);
  EXPECT_NE(snap.find("\"vc\""), std::string::npos);
}

TEST(ObsRegistry, WriteJsonRoundTrips) {
  Registry reg;
  reg.counter("written").add(42);
  const std::string path = ::testing::TempDir() + "obs_registry_roundtrip.json";
  ASSERT_TRUE(reg.write_json(path, {{"run", "t"}}));
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("written"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsRegistry, PulledSeriesAddToOwnedSeriesOfTheSameIdentity) {
  Registry reg;
  reg.counter("c", {{"vc", "1"}}).add(3);
  reg.set_gauge("g", 1.5);
  const auto hook = reg.attach([](obs::Emitter& out) {
    out.counter("c", {{"vc", "1"}}, 4);
    out.counter("c", {{"vc", "2"}}, 5);
    out.gauge("g", {}, 2.0);
  });
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.total("c"), 12);
  const std::string snap = reg.to_json();
  EXPECT_TRUE(json_valid(snap)) << snap;
  const auto c1 = snap.find(
      R"({"name": "c", "labels": {"vc": "1"}, "type": "counter", "value": 7})");
  const auto c2 = snap.find(
      R"({"name": "c", "labels": {"vc": "2"}, "type": "counter", "value": 5})");
  const auto g = snap.find(R"({"name": "g", "labels": {}, "type": "gauge", "value": 3.5})");
  ASSERT_NE(c1, std::string::npos) << snap;
  ASSERT_NE(c2, std::string::npos) << snap;
  ASSERT_NE(g, std::string::npos) << snap;
  // One key order for owned and pulled series.
  EXPECT_LT(c1, c2);
  EXPECT_LT(c2, g);
}

TEST(ObsRegistry, DetachedCollectorSeriesAreGone) {
  Registry reg;
  reg.counter("owned").add(1);
  {
    const auto hook =
        reg.attach([](obs::Emitter& out) { out.counter("pulled", {{"vc", "9"}}, 2); });
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.total("pulled"), 2);
    EXPECT_NE(reg.to_json().find("pulled"), std::string::npos);
  }
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.total("pulled"), 0);
  EXPECT_EQ(reg.to_json().find("pulled"), std::string::npos);
}

// --- per-VC series published by the transport entity ---

constexpr const char* kVcCounterNames[] = {
    "transport.tpdus_sent", "transport.tpdus_received", "transport.tpdus_lost",
    "transport.tpdus_corrupt", "transport.dup_dropped", "transport.osdus_delivered",
    "buffer.shed", "qos.violation_periods"};

/// The eight per-VC counters, each as the endpoint's stats define it.
std::map<std::string, std::int64_t> vc_counters(const transport::Connection& c) {
  const auto& s = c.stats();
  const auto* m = c.monitor();
  return {{"transport.tpdus_sent", s.tpdus_sent + s.tpdus_retransmitted},
          {"transport.tpdus_received", s.tpdus_received},
          {"transport.tpdus_lost", s.tpdus_lost},
          {"transport.tpdus_corrupt", s.tpdus_corrupt},
          {"transport.dup_dropped", s.tpdus_dup_dropped},
          {"transport.osdus_delivered", s.osdus_delivered},
          {"buffer.shed", s.osdus_shed},
          {"qos.violation_periods", m != nullptr ? m->violation_periods() : 0}};
}

/// A bound pair whose link duplicates packets, and also drops and
/// corrupts them while noisy, so every counter but buffer.shed moves.
struct NoisyPair {
  NoisyPair() : w(dup_link(), 7) {
    w.a->entity.bind(1, &src_user);
    w.b->entity.bind(2, &dst_user);
  }
  static net::LinkConfig dup_link() {
    net::LinkConfig cfg = lan_link();
    cfg.dup_rate = 0.05;
    return cfg;
  }
  void noisy(bool on) {
    for (auto [x, y] : {std::pair{w.a->id, w.b->id}, std::pair{w.b->id, w.a->id}}) {
      w.platform.network().link(x, y)->set_loss_rate(on ? 0.1 : 0.0);
      w.platform.network().link(x, y)->set_bit_error_rate(on ? 2e-6 : 0.0);
    }
  }
  void run_for(Duration d) { w.platform.run_until(w.platform.scheduler().now() + d); }
  /// Opens VC number `i` from a to b and streams 12 two-fragment OSDUs
  /// over the noisy link (odd VCs also repair losses); returns once the
  /// link is clean again and the sink has read everything.
  transport::VcId stream(int i) {
    auto req = basic_request({w.a->id, 1}, {w.b->id, 2}, 100.0, 2400);
    req.service_class.error_control = i % 2 == 0
                                          ? transport::ErrorControl::kIndicate
                                          : transport::ErrorControl::kCorrectAndIndicate;
    req.sample_period = 100 * kMillisecond;
    const transport::VcId vc = w.a->entity.t_connect_request(req);
    run_for(100 * kMillisecond);
    transport::Connection* src = w.a->entity.source(vc);
    if (src == nullptr) return vc;
    noisy(true);
    for (int k = 0; k < 12; ++k) src->submit(std::vector<std::uint8_t>(2400, 1));
    run_for(400 * kMillisecond);
    noisy(false);
    run_for(200 * kMillisecond);
    if (transport::Connection* sink = w.b->entity.sink(vc))
      while (sink->receive()) {
      }
    return vc;
  }

  PairPlatform w;
  ScriptedUser src_user{w.a->entity};
  ScriptedUser dst_user{w.b->entity};
};

/// Opens, streams over and closes `n` VCs one after another on one pair.
/// Adds each endpoint's counters, read just before its close, to `closed`
/// and returns the registry's series count once all are closed.
std::size_t churn_pair(int n, std::map<std::string, std::int64_t>& closed) {
  NoisyPair p;
  for (int i = 0; i < n; ++i) {
    const transport::VcId vc = p.stream(i);
    const transport::Connection* src = p.w.a->entity.source(vc);
    const transport::Connection* sink = p.w.b->entity.sink(vc);
    EXPECT_NE(src, nullptr) << "VC " << i;
    EXPECT_NE(sink, nullptr) << "VC " << i;
    if (src == nullptr || sink == nullptr) continue;
    for (const auto* c : {src, sink})
      for (const auto& [name, v] : vc_counters(*c)) closed[name] += v;
    // The sink releases: its endpoint goes at once, and the idle source,
    // whose counters no longer move, when the DR arrives.
    p.w.b->entity.t_disconnect_request(vc);
    p.run_for(50 * kMillisecond);
    EXPECT_EQ(p.w.a->entity.source(vc), nullptr) << "VC " << i;
  }
  return Registry::global().size();
}

TEST(ObsVcMetrics, ClosedVcsFoldIntoNodeTotalsAndLeaveNoSeries) {
  const Registry& reg = Registry::global();
  // The registry is process-wide and keeps owned series, so the larger run
  // goes first: any fault-labelled series it creates exist before the
  // smaller run measures, and only per-VC series could tell them apart.
  std::vector<std::size_t> series;
  for (const int n : {200, 50}) {
    std::map<std::string, std::int64_t> before;
    for (const char* name : kVcCounterNames) before[name] = reg.total(name);
    std::map<std::string, std::int64_t> closed;
    series.push_back(churn_pair(n, closed));
    for (const char* name : kVcCounterNames)
      EXPECT_EQ(reg.total(name) - before[name], closed[name]) << name << " at N=" << n;
    for (const char* name : {"transport.tpdus_lost", "transport.tpdus_corrupt",
                             "transport.dup_dropped", "qos.violation_periods"})
      EXPECT_GT(closed[name], 0) << name << " never moved at N=" << n;
  }
  EXPECT_EQ(series[0], series[1]);
}

/// The snapshot line of one pulled series.
std::string series_line(const std::string& name, const Labels& labels, const std::string& type,
                        const std::string& value) {
  std::string line = "{\"name\": \"" + name + "\", \"labels\": {";
  for (std::size_t i = 0; i < labels.size(); ++i)
    line += (i ? ", \"" : "\"") + labels[i].first + "\": \"" + labels[i].second + "\"";
  return line + "}, \"type\": \"" + type + "\", \"value\": " + value + "}";
}

TEST(ObsVcMetrics, OpenVcSeriesMatchStatsAndLastReport) {
  NoisyPair p;
  const transport::VcId vc = p.stream(1);
  const transport::Connection* src = p.w.a->entity.source(vc);
  const transport::Connection* sink = p.w.b->entity.sink(vc);
  ASSERT_NE(src, nullptr);
  ASSERT_NE(sink, nullptr);
  ASSERT_GT(src->stats().tpdus_retransmitted, 0);

  const std::string snap = Registry::global().to_json();
  ASSERT_TRUE(json_valid(snap));
  const std::string id = std::to_string(vc);
  for (const auto* c : {src, sink}) {
    const Labels labels = {{"vc", id},
                           {"node", std::to_string(c->local_node())},
                           {"role", c == src ? "source" : "sink"}};
    for (const auto& [name, v] : vc_counters(*c)) {
      if (name == "qos.violation_periods") continue;
      const std::string line = series_line(name, labels, "counter", std::to_string(v));
      EXPECT_NE(snap.find(line), std::string::npos) << line;
    }
  }
  const transport::QosMonitor& m = *sink->monitor();
  const transport::QosReport& rep = m.last_report();
  EXPECT_GT(rep.sample_period, 0);
  const Labels vc_only = {{"vc", id}};
  const std::pair<const char*, double> gauges[] = {
      {"qos.osdu_rate", rep.measured_osdu_rate},
      {"qos.mean_delay_ms", to_millis(rep.measured_mean_delay)},
      {"qos.jitter_ms", to_millis(rep.measured_jitter)},
      {"qos.packet_error_rate", rep.measured_packet_error_rate},
      {"qos.bit_error_rate", rep.measured_bit_error_rate}};
  for (const auto& [name, v] : gauges) {
    const std::string line = series_line(name, vc_only, "gauge", json_number(v));
    EXPECT_NE(snap.find(line), std::string::npos) << line;
  }
  const std::string violations = series_line("qos.violation_periods", vc_only, "counter",
                                             std::to_string(m.violation_periods()));
  EXPECT_NE(snap.find(violations), std::string::npos) << violations;
  // The source has no monitor: the sink's six are the only per-VC qos series.
  std::istringstream lines(snap);
  std::size_t qos_series = 0;
  for (std::string line; std::getline(lines, line);)
    if (line.find("\"name\": \"qos.") != std::string::npos &&
        line.find("\"labels\": {\"vc\": ") != std::string::npos)
      ++qos_series;
  EXPECT_EQ(qos_series, 6u);
}

// --- tracer ---

TEST(ObsTracer, WritesValidChromeTrace) {
  auto& tr = Tracer::global();
  const std::string path = ::testing::TempDir() + "obs_tracer_unit.json";
  ASSERT_TRUE(tr.start(path));
  EXPECT_TRUE(tr.enabled());
  tr.begin("work", 1, 2);
  tr.end("work", 1, 2);
  const auto id = tr.next_async_id();
  tr.async_begin("span", id, 1, 2);
  tr.async_end("span", id, 1, 2);
  tr.instant("mark", 1, 2, "{\"k\": 1}");
  tr.counter("track", 3.5, 1, 2);
  tr.stop();
  EXPECT_FALSE(tr.enabled());

  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"span\""), std::string::npos);
  EXPECT_NE(text.find("\"mark\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTracer, DisabledTracerWritesNothing) {
  auto& tr = Tracer::global();
  ASSERT_FALSE(tr.enabled());
  const auto before = tr.events_written();
  tr.instant("ignored");
  EXPECT_EQ(tr.events_written(), before);
}

// --- QoS monitor: BER estimator (regression) and warmup flag ---

transport::QosParams monitor_contract() {
  transport::QosParams p;
  p.osdu_rate = 50;
  p.max_osdu_bytes = 1024;
  p.end_to_end_delay = 100 * kMillisecond;
  p.delay_jitter = 20 * kMillisecond;
  p.packet_error_rate = 0.01;
  p.bit_error_rate = 1e-6;
  return p;
}

TEST(QosMonitorBer, HighCorruptionStaysInPerBitMagnitude) {
  // Regression for the BER unit mismatch: 993 of 1000 TPDUs of 1250 bytes
  // (10^4 bits) corrupt corresponds, under iid bit errors, to a per-bit
  // rate of p = 1 - (1-0.993)^(1/10^4) ~ 4.96e-4.  The old computation
  // divided the corrupt *packet* count by the received-only *bit* count
  // (993 / 7e4 ~ 1.4e-2), a factor ~30 off and trending to infinity as the
  // good-packet count shrinks.
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  const transport::QosReport& rep = m.last_report();
  m.begin(0);
  for (int i = 0; i < 7; ++i) m.on_tpdu_received(1250);
  for (int i = 0; i < 993; ++i) m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_GT(rep.measured_bit_error_rate, 1e-4);
  EXPECT_LT(rep.measured_bit_error_rate, 1e-3);
  EXPECT_NEAR(rep.measured_bit_error_rate, 4.96e-4, 5e-5);
}

TEST(QosMonitorBer, LowCorruptionMatchesOneFlippedBitPerTpdu) {
  // Small-f limit: f/B, i.e. ~one flipped bit per corrupt TPDU.
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  const transport::QosReport& rep = m.last_report();
  m.begin(0);
  for (int i = 0; i < 999; ++i) m.on_tpdu_received(1250);
  m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_NEAR(rep.measured_bit_error_rate, 1e-7, 2e-8);
}

TEST(QosMonitorBer, AllCorruptPeriodStaysFinite) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  const transport::QosReport& rep = m.last_report();
  m.begin(0);
  for (int i = 0; i < 50; ++i) m.on_tpdu_corrupt(1250);
  m.end_period(1 * kSecond);
  EXPECT_GT(rep.measured_bit_error_rate, 0.0);
  EXPECT_LT(rep.measured_bit_error_rate, 1e-2);
}

TEST(QosMonitorBer, CleanPeriodIsZero) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  const transport::QosReport& rep = m.last_report();
  m.begin(0);
  for (int i = 0; i < 50; ++i) m.on_tpdu_received(1250);
  m.end_period(1 * kSecond);
  EXPECT_DOUBLE_EQ(rep.measured_bit_error_rate, 0.0);
}

TEST(QosMonitorWarmup, ReportsAreFlaggedAndSuppressed) {
  transport::QosMonitor m(1, monitor_contract(), 1 * kSecond);
  m.set_warmup_periods(1);
  std::vector<transport::QosReport> samples;
  int violations = 0;
  m.set_on_violation([&](const transport::QosReport&) { ++violations; });
  m.begin(0);

  auto violate = [&] {
    for (std::uint32_t s = 0; s < 50; ++s) m.on_osdu_seen(s);
    for (int i = 0; i < 10; ++i) m.on_osdu_completed(10 * kMillisecond);
  };
  violate();
  m.end_period(1 * kSecond);  // warmup period: flagged, not indicated
  samples.push_back(m.last_report());
  violate();
  m.end_period(2 * kSecond);  // live period: indicated
  samples.push_back(m.last_report());

  ASSERT_EQ(samples.size(), 2u);
  EXPECT_TRUE(samples[0].warmup);
  EXPECT_TRUE(samples[0].violations.any());
  EXPECT_FALSE(samples[1].warmup);
  EXPECT_EQ(violations, 1);
}

// --- end-to-end: an orchestrated two-VC session traced to disk ---

TEST(ObsIntegration, OrchestratedSessionEmitsTraceSpans) {
  auto& tr = Tracer::global();
  const std::string path = ::testing::TempDir() + "obs_orch_session.json";
  ASSERT_TRUE(tr.start(path));

  {
    // The film scenario: video + audio servers, one workstation sink.
    platform::Platform platform(4242);
    auto& vhost = platform.add_host("video-server");
    auto& ahost = platform.add_host("audio-server");
    auto& ws = platform.add_host("ws");
    platform.network().add_link(vhost.id, ws.id, lan_link());
    platform.network().add_link(ahost.id, ws.id, lan_link());
    platform.network().finalize_routes();

    platform::VideoQos vq;
    vq.frames_per_second = 25;
    platform::AudioQos aq;
    aq.blocks_per_second = 50;

    media::StoredMediaServer vserver(platform, vhost, "film-video");
    media::TrackConfig video;
    video.track_id = 1;
    video.auto_start = false;
    video.vbr.base_bytes = vq.frame_bytes();
    video.vbr.gop = 0;
    video.vbr.wobble = 0;
    const auto vsrc = vserver.add_track(100, video);
    media::StoredMediaServer aserver(platform, ahost, "film-audio");
    media::TrackConfig audio;
    audio.track_id = 2;
    audio.auto_start = false;
    audio.vbr.base_bytes = aq.block_bytes();
    audio.vbr.gop = 0;
    audio.vbr.wobble = 0;
    const auto asrc = aserver.add_track(101, audio);

    media::RenderConfig vr;
    vr.expect_track = 1;
    media::RenderingSink vsink(platform, ws, 200, vr);
    media::RenderConfig ar;
    ar.expect_track = 2;
    media::RenderingSink asink(platform, ws, 201, ar);

    platform::Stream vstream(platform, ws, "v");
    platform::Stream astream(platform, ws, "a");
    vstream.set_buffer_osdus(6);
    astream.set_buffer_osdus(6);
    vstream.connect(vsrc, {ws.id, 200}, vq, {}, nullptr);
    astream.connect(asrc, {ws.id, 201}, aq, {}, nullptr);
    platform.run_until(500 * kMillisecond);
    ASSERT_TRUE(vstream.connected());
    ASSERT_TRUE(astream.connected());

    orch::OrchPolicy policy;
    policy.interval = 100 * kMillisecond;
    bool established = false;
    auto session = platform.orchestrator().orchestrate(
        {vstream.orch_spec(2), astream.orch_spec(2)}, policy,
        [&](bool ok, orch::OrchReason) { established = ok; });
    platform.run_until(kSecond);
    ASSERT_TRUE(established);

    bool primed = false, started = false;
    session->prime(false, [&](bool ok, auto) { primed = ok; });
    platform.run_until(2 * kSecond);
    ASSERT_TRUE(primed);
    session->start([&](bool ok, auto) { started = ok; });
    platform.run_until(2500 * kMillisecond);
    ASSERT_TRUE(started);
    // Several regulation intervals.
    platform.run_until(platform.scheduler().now() + 3 * kSecond);
  }

  tr.stop();
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(json_valid(text)) << "trace is not valid JSON";
  EXPECT_NE(text.find("\"Orch.Prime\""), std::string::npos);
  EXPECT_NE(text.find("\"Orch.Start\""), std::string::npos);
  EXPECT_NE(text.find("\"Orch.Regulate\""), std::string::npos);
  EXPECT_NE(text.find("\"TPDU.tx\""), std::string::npos);
  EXPECT_NE(text.find("\"HLO.interval_tick\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmtos::test
