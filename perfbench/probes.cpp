// Layer probes for traced runs: each times one public operation of a layer
// in isolation, on the workload's real shapes, so a per-layer cost can be
// set against the end-to-end cost per OSDU.

#include <algorithm>
#include <functional>

#include "harness.h"
#include "media/content.h"
#include "orch/opdu.h"
#include "transport/tpdu.h"
#include "util/checksum.h"

namespace perf {
namespace {

/// Median over 5 rounds of the per-iteration wall time of `fn`, in ns.
double ns_per(std::size_t iters, const std::function<void()>& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const double t0 = wall_s();
    for (std::size_t i = 0; i < iters; ++i) fn();
    rounds.push_back((wall_s() - t0) * 1e9 / static_cast<double>(iters));
  }
  return median(rounds);
}

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

/// Sends `count` packets built by `make` through a bare two-hop network
/// (a -> r -> b, so every packet is forwarded once) and returns wall ns
/// per delivered packet.
double forward_ns(std::size_t count, const std::function<cmtos::net::Packet()>& make) {
  cmtos::sim::Scheduler sched;
  cmtos::net::Network net(sched, cmtos::Rng(7));
  const auto a = net.add_node("a");
  const auto r = net.add_node("r");
  const auto b = net.add_node("b");
  cmtos::net::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.media_batch_max = 32;
  cfg.queue_limit_packets = 1024;
  net.add_link(a, r, cfg);
  net.add_link(r, b, cfg);
  net.finalize_routes();
  std::size_t delivered = 0;
  for (auto p : {cmtos::net::Proto::kTransportData, cmtos::net::Proto::kTransportControl})
    net.node(b).set_handler(p, [&delivered](cmtos::net::Packet&&) { ++delivered; });
  constexpr std::size_t kBurst = 64;
  const double t0 = wall_s();
  for (std::size_t sent = 0; sent < count; sent += kBurst) {
    for (std::size_t k = 0; k < kBurst; ++k) {
      auto pkt = make();
      pkt.src = a;
      pkt.dst = b;
      net.send(std::move(pkt));
    }
    sched.run_until(sched.now() + 4 * cmtos::kMillisecond);
  }
  return (wall_s() - t0) * 1e9 / static_cast<double>(std::max<std::size_t>(1, delivered));
}

}  // namespace

Extras run_probes(const ProbeShapes& shapes) {
  Extras out;
  const std::size_t frag = shapes.fragment_bytes;
  const auto frame = cmtos::media::make_frame_view(1, 0, 64 * 1024);
  const auto fragment = frame.subview(0, frag);

  // util: CRC-32 over one fragment.
  const double crc_ns = ns_per(20'000, [&] { g_sink = g_sink + cmtos::crc32(fragment.span()); });
  out.emplace_back("util.crc32_ns_per_kib", crc_ns * 1024.0 / static_cast<double>(frag));

  // transport: DT header + frame-body CRC encode, and its verifying decode.
  cmtos::transport::DataTpdu dt;
  dt.vc = 42;
  dt.tpdu_seq = 1000;
  dt.osdu_seq = 21;
  dt.frag_count = 47;
  dt.frag_index = 3;
  dt.payload = fragment;
  out.emplace_back("transport.dt_encode_ns", ns_per(20'000, [&] {
                     cmtos::net::Packet pkt;
                     dt.encode_onto(pkt);
                     g_sink = g_sink + pkt.payload.size();
                   }));
  cmtos::net::Packet dt_pkt;
  dt.encode_onto(dt_pkt);
  out.emplace_back("transport.dt_decode_ns", ns_per(20'000, [&] {
                     const auto got = cmtos::transport::DataTpdu::decode_packet(dt_pkt);
                     g_sink = g_sink + (got ? got->payload.size() : 0);
                   }));

  // transport: the per-VC periodic control TPDU (rate feedback).
  cmtos::transport::FeedbackTpdu fb;
  fb.vc = 42;
  fb.free_slots = 3;
  fb.capacity = 4;
  fb.highest_osdu = 77;
  out.emplace_back("transport.ctrl_encode_ns", ns_per(100'000, [&] {
                     g_sink = g_sink + fb.encode().size();
                   }));
  const auto fb_wire = fb.encode();
  out.emplace_back("transport.ctrl_decode_ns", ns_per(100'000, [&] {
                     const auto got = cmtos::transport::FeedbackTpdu::decode(fb_wire);
                     g_sink = g_sink + (got ? got->free_slots : 0);
                   }));

  // orch: an end-of-interval regulation report.
  cmtos::orch::Opdu op;
  op.type = cmtos::orch::OpduType::kRegInd;
  op.session = 9;
  op.vc = 42;
  op.orch_node = 3;
  op.interval_id = 120;
  op.delivered_seq = 1234;
  op.dropped = 1;
  op.app_blocked = 5 * cmtos::kMillisecond;
  out.emplace_back("orch.opdu_encode_ns", ns_per(100'000, [&] {
                     g_sink = g_sink + op.encode().size();
                   }));
  const auto op_wire = op.encode();
  out.emplace_back("orch.opdu_decode_ns", ns_per(100'000, [&] {
                     const auto got = cmtos::orch::Opdu::decode(op_wire);
                     g_sink = g_sink + (got ? got->interval_id : 0);
                   }));

  // net: forwarding a DT-sized packet and the smallest control PDU.
  out.emplace_back("net.forward_ns_per_packet", forward_ns(50'000, [&] {
                     cmtos::net::Packet p;
                     p.payload.assign(dt_pkt.payload.begin(), dt_pkt.payload.end());
                     p.frame = fragment;
                     return p;
                   }));
  out.emplace_back("net.forward_ns_per_ctrl_packet", forward_ns(50'000, [&] {
                     cmtos::net::Packet p;
                     p.proto = cmtos::net::Proto::kTransportControl;
                     p.priority = cmtos::net::Priority::kControl;
                     p.payload = fb_wire;
                     return p;
                   }));

  // sim: arm and fire with the workload's live timer population parked
  // beyond the probe horizon.
  {
    cmtos::sim::Scheduler sched;
    cmtos::Rng rng(11);
    for (std::size_t i = 0; i < shapes.live_timers; ++i)
      sched.after(10 * cmtos::kSecond + rng.uniform(0, 10'000) * cmtos::kMillisecond, [] {});
    constexpr std::size_t kTimers = 100'000;
    std::size_t fired = 0;
    const double t0 = wall_s();
    for (std::size_t i = 0; i < kTimers; ++i)
      sched.after(cmtos::kMillisecond + rng.uniform(0, 249'000) * cmtos::kMicrosecond,
                  [&fired] { ++fired; });
    const double t1 = wall_s();
    sched.run_until(300 * cmtos::kMillisecond);
    const double t2 = wall_s();
    out.emplace_back("sim.timer_arm_ns", (t1 - t0) * 1e9 / kTimers);
    out.emplace_back("sim.timer_fire_ns",
                     (t2 - t1) * 1e9 / static_cast<double>(std::max<std::size_t>(1, fired)));
  }
  return out;
}

}  // namespace perf
