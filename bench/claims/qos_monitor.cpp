// T2 — T-QoS.indication (Table 2): the per-VC monitor detects contracted
// QoS degradation within one sample period of its onset, and the
// indication names which tolerance levels were violated.

#include <array>
#include <functional>

#include "claims.h"

namespace cmtos::bench {
namespace {

using Fault = std::function<void(net::Network&, net::NodeId, net::NodeId)>;

struct Detection {
  Duration latency = -1;
  transport::QosReport first;
};

/// Runs a monitored live stream (500 ms sample period), applies `degrade`
/// at t = 5 s and reports the first indication.
Detection run(std::uint64_t seed, const Fault& degrade) {
  platform::Platform p(seed);
  auto& a = p.add_host("src");
  auto& b = p.add_host("dst");
  p.network().add_link(a.id, b.id, lan_link());
  p.network().finalize_routes();

  // A live source paces at the contract rate (delay QoS is meaningful for
  // live feeds; a prefetching stored server deliberately runs its buffers
  // full, which distorts submit-to-render delay).
  media::LiveConfig cam;
  cam.track_id = 1;
  cam.rate = 25.0;
  cam.frame_bytes = 2048;
  media::LiveSource camera(p, a, 100, cam);
  const net::NetAddress src{a.id, 100};
  media::RenderConfig rc;
  rc.expect_track = 1;
  media::RenderingSink sink(p, b, 200, rc);

  platform::Stream stream(p, b, "v");
  platform::VideoQos vq;
  vq.frames_per_second = 25;
  vq.compression = 148.5;  // -> 2048-byte frames, matching the camera
  vq.interactive = true;   // tight delay budget: the delay fault must register
  Detection det;
  int indications = 0;
  stream.set_on_qos_degraded([&](const transport::QosReport& rep) {
    if (indications++ == 0) det.first = rep;
  });
  stream.connect(src, {b.id, 200}, vq, {}, nullptr);
  p.run_until(kSecond);
  if (!stream.connected()) return det;

  p.run_until(5 * kSecond);
  const Time onset = p.scheduler().now();
  degrade(p.network(), a.id, b.id);
  while (p.scheduler().now() < 30 * kSecond && indications == 0) {
    p.run_until(p.scheduler().now() + 50 * kMillisecond);
    if (indications > 0) det.latency = p.scheduler().now() - onset;
  }
  return det;
}

/// The injected fault lands mid-sample; the first full 500 ms sample after
/// it reports the violation.
constexpr double kDetectMs = 550.0;

constexpr const char* kLevels[] = {"throughput", "delay", "jitter", "packet-errors",
                                   "bit-errors"};

std::array<bool, 5> levels(const transport::QosViolation& v) {
  return {v.throughput, v.delay, v.jitter, v.packet_errors, v.bit_errors};
}

// Loss, jitter and bit errors are drawn per packet, and one 500 ms sample
// carries only ~25 TPDUs: at a 3e-5 bit error rate a sample can hold too
// few corrupt TPDUs to estimate past the 1e-5 tolerance.  So each fault is
// judged over a seed sweep: its signature levels are named on all but at
// most two seeds, and a level that is neither signature nor incidental to
// the fault is never named.
void indication_row(std::uint64_t seed, Oracle& check) {
  constexpr int kSeeds = 16;
  using transport::QosViolation;
  auto set = [](bool throughput, bool delay, bool jitter, bool packet_errors, bool bit_errors) {
    return QosViolation{throughput, delay, jitter, packet_errors, bit_errors};
  };
  struct Case {
    const char* name;
    Fault apply;
    QosViolation signature;
    QosViolation incidental;
  };
  const Case cases[] = {
      {"30% packet loss",
       [](net::Network& n, net::NodeId a, net::NodeId b) { n.link(a, b)->set_loss_rate(0.3); },
       set(true, false, false, true, false), {}},
      // The live camera sheds at capture, so a bandwidth cut shows as a
      // throughput shortfall plus queueing jitter.
      {"bandwidth cut to 300k",
       [](net::Network& n, net::NodeId a, net::NodeId b) { n.link(a, b)->set_bandwidth(300'000); },
       set(true, false, true, false, false), {}},
      // Reordering reads as gaps, hence packet-errors beside the jitter;
      // late OSDUs can also dip a sample's throughput.
      {"+/-80ms jitter",
       [](net::Network& n, net::NodeId a, net::NodeId b) {
         n.link(a, b)->set_jitter(80 * kMillisecond);
       },
       set(false, false, true, true, false), set(true, false, false, false, false)},
      // Corruption hits the data direction; control TPDUs ignore it.
      {"bit errors 3e-5",
       [](net::Network& n, net::NodeId a, net::NodeId b) {
         n.link(a, b)->set_bit_error_rate(3e-5);
       },
       set(true, false, false, true, true), {}},
      {"+300ms extra delay",
       [](net::Network& n, net::NodeId a, net::NodeId b) {
         n.link(a, b)->set_propagation_delay(301 * kMillisecond);
       },
       set(false, true, false, false, false), {}},
  };
  row("%-22s %14s   seeds naming each level (of %d)", "induced fault", "detect (ms)", kSeeds);
  row("%-22s %14s %12s %8s %8s %14s %11s", "", "", kLevels[0], kLevels[1], kLevels[2],
      kLevels[3], kLevels[4]);
  for (const Case& c : cases) {
    double worst_ms = 0;
    int named[5] = {};
    for (std::uint64_t s = seed; s < seed + kSeeds; ++s) {
      const auto det = run(s, c.apply);
      worst_ms = std::max(worst_ms, to_millis(det.latency));
      check.near(std::string(c.name) + " detected one sample period after onset, seed " +
                     std::to_string(s),
                 to_millis(det.latency), kDetectMs);
      const auto got = levels(det.first.violations);
      for (int l = 0; l < 5; ++l) named[l] += got[static_cast<std::size_t>(l)] ? 1 : 0;
      if (s == seed)
        headline("qos_monitor.detect_latency_ms", to_millis(det.latency), {{"fault", c.name}});
    }
    row("%-22s %14.1f %12d %8d %8d %14d %11d", c.name, worst_ms, named[0], named[1], named[2],
        named[3], named[4]);
    const auto signature = levels(c.signature);
    const auto incidental = levels(c.incidental);
    for (std::size_t l = 0; l < 5; ++l) {
      const std::string what = std::string(c.name) + ": seeds naming " + kLevels[l];
      if (signature[l]) {
        check.at_least(what, named[l], kSeeds - 2);
      } else if (!incidental[l]) {
        check.near(what, named[l], 0, 0);
      }
    }
  }
}

}  // namespace

std::vector<Claim> qos_monitor_claims() {
  return {
      {"qos_monitor.indication",
       "Table 2 (T-QoS.indication): detection and violated levels per fault", 21, indication_row},
  };
}

}  // namespace cmtos::bench
