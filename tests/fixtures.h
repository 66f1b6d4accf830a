// Shared test fixtures: canned topologies over the full platform stack.

#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "media/sink.h"
#include "media/stored_server.h"
#include "media/sync_meter.h"
#include "platform/host.h"
#include "platform/stream.h"
#include "transport/tpdu.h"

namespace cmtos::test {

/// Default link between workstation-class hosts: 10 Mbit/s, 1 ms.
inline net::LinkConfig lan_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  cfg.propagation_delay = 1 * kMillisecond;
  return cfg;
}

/// A star topology: N hosts around a switch node (the switch runs a full
/// host stack too, but typically only forwards).
struct StarPlatform {
  explicit StarPlatform(std::size_t leaf_count, net::LinkConfig link = lan_link(),
                        std::uint64_t seed = 42)
      : platform(seed) {
    hub = &platform.add_host("hub");
    for (std::size_t i = 0; i < leaf_count; ++i) {
      auto& h = platform.add_host("leaf" + std::to_string(i));
      platform.network().add_link(hub->id, h.id, link);
      leaves.push_back(&h);
    }
    platform.network().finalize_routes();
  }

  platform::Platform platform;
  platform::Host* hub = nullptr;
  std::vector<platform::Host*> leaves;
};

/// Two hosts with a direct link — the minimal source->sink world.
struct PairPlatform {
  explicit PairPlatform(net::LinkConfig link = lan_link(), std::uint64_t seed = 42,
                        sim::LocalClock clock_a = {}, sim::LocalClock clock_b = {})
      : platform(seed) {
    a = &platform.add_host("a", clock_a);
    b = &platform.add_host("b", clock_b);
    platform.network().add_link(a->id, b->id, link);
    platform.network().finalize_routes();
  }

  platform::Platform platform;
  platform::Host* a = nullptr;
  platform::Host* b = nullptr;
};

/// Hands a crafted data TPDU of VC `vc` to `w.b`'s transport entity as if
/// it had just come in from `w.a`: one fragment (`frag_index` of
/// `frag_count`) of OSDU `osdu_seq`, carrying 100 bytes in a frame of its
/// own.  Sink tests use it to place fragments exactly.
inline void inject_dt(PairPlatform& w, transport::VcId vc, std::uint32_t tpdu_seq,
                      std::uint32_t osdu_seq, std::uint16_t frag_index,
                      std::uint16_t frag_count) {
  transport::DataTpdu dt;
  dt.vc = vc;
  dt.tpdu_seq = tpdu_seq;
  dt.osdu_seq = osdu_seq;
  dt.frag_index = frag_index;
  dt.frag_count = frag_count;
  dt.payload = PayloadView::adopt(std::vector<std::uint8_t>(100, 0x6b));
  net::Packet pkt;
  pkt.src = w.a->id;
  pkt.dst = w.b->id;
  dt.encode_onto(pkt);
  w.platform.network().node(w.b->id).handler(net::Proto::kTransportData)(std::move(pkt));
}

/// A scripted transport user for control-plane tests: records every
/// indication it receives and applies a configurable accept policy.
class ScriptedUser : public transport::TransportUser {
 public:
  explicit ScriptedUser(transport::TransportEntity& entity) : entity_(&entity) {}

  // Policy knobs.
  bool accept_connects = true;
  bool accept_renegotiations = true;
  std::optional<transport::QosParams> narrow;

  // Recorded history.
  struct ConnectInd {
    transport::VcId vc;
    transport::ConnectRequest req;
  };
  std::vector<ConnectInd> connect_indications;
  std::vector<std::pair<transport::VcId, transport::QosParams>> confirms;
  std::vector<std::pair<transport::VcId, transport::DisconnectReason>> disconnects;
  std::vector<transport::QosReport> qos_reports;
  std::vector<std::pair<transport::VcId, transport::QosTolerance>> reneg_indications;
  std::vector<std::pair<bool, transport::QosParams>> reneg_confirms;

  void t_connect_indication(transport::VcId vc, const transport::ConnectRequest& req) override {
    connect_indications.push_back({vc, req});
    entity_->connect_response(vc, accept_connects, narrow);
  }
  void t_connect_confirm(transport::VcId vc, const transport::QosParams& agreed) override {
    confirms.emplace_back(vc, agreed);
  }
  void t_disconnect_indication(transport::VcId vc,
                               transport::DisconnectReason reason) override {
    disconnects.emplace_back(vc, reason);
  }
  void t_qos_indication(transport::VcId, const transport::QosReport& report) override {
    qos_reports.push_back(report);
  }
  void t_renegotiate_indication(transport::VcId vc,
                                const transport::QosTolerance& proposed) override {
    reneg_indications.emplace_back(vc, proposed);
    entity_->renegotiate_response(vc, accept_renegotiations);
  }
  void t_renegotiate_confirm(transport::VcId, bool accepted,
                             const transport::QosParams& agreed) override {
    reneg_confirms.emplace_back(accepted, agreed);
  }

 private:
  transport::TransportEntity* entity_;
};

/// A plain QoS request: `rate` OSDUs/s of `size`-byte OSDUs, generous
/// delay budget, conventional (initiator == source) addressing.
inline transport::ConnectRequest basic_request(net::NetAddress src, net::NetAddress dst,
                                               double rate = 25.0, std::int64_t size = 4096) {
  transport::ConnectRequest req;
  req.initiator = src;
  req.src = src;
  req.dst = dst;
  req.qos.preferred.osdu_rate = rate;
  req.qos.preferred.max_osdu_bytes = size;
  req.qos.preferred.end_to_end_delay = 200 * kMillisecond;
  req.qos.preferred.delay_jitter = 50 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.02;
  req.qos.preferred.bit_error_rate = 1e-5;
  req.qos.worst = req.qos.preferred;
  req.qos.worst.osdu_rate = rate / 4;
  req.qos.worst.end_to_end_delay = kSecond;
  req.qos.worst.delay_jitter = 200 * kMillisecond;
  req.qos.worst.packet_error_rate = 0.1;
  req.qos.worst.bit_error_rate = 1e-3;
  return req;
}

/// Two source hosts funnelled through a thin shared link to the sink: one
/// full-rate VC fits, a second does not, even degraded (worst == preferred
/// in rigid_request), so contention is decided purely by importance.
struct ContendedWorld {
  ContendedWorld() : platform(42) {
    s1 = &platform.add_host("s1");
    s2 = &platform.add_host("s2");
    hub = &platform.add_host("hub");
    ws = &platform.add_host("ws");
    platform.network().add_link(s1->id, hub->id, lan_link());
    platform.network().add_link(s2->id, hub->id, lan_link());
    net::LinkConfig thin = lan_link();
    thin.bandwidth_bps = 1'400'000;  // reservable 1.26 Mbit/s: one VC only
    platform.network().add_link(hub->id, ws->id, thin);
    platform.network().finalize_routes();

    u1 = std::make_unique<ScriptedUser>(s1->entity);
    u2 = std::make_unique<ScriptedUser>(s2->entity);
    w1 = std::make_unique<ScriptedUser>(ws->entity);
    w2 = std::make_unique<ScriptedUser>(ws->entity);
    s1->entity.bind(10, u1.get());
    s2->entity.bind(11, u2.get());
    ws->entity.bind(20, w1.get());
    ws->entity.bind(21, w2.get());
  }

  /// ~0.88 Mbit/s with no degradation room: admission is all-or-nothing.
  transport::ConnectRequest rigid_request(net::NetAddress src, net::NetAddress dst,
                                          std::uint8_t importance) {
    auto req = basic_request(src, dst, 25.0, 4096);
    req.qos.worst = req.qos.preferred;
    req.importance = importance;
    return req;
  }

  std::int64_t reserved_to_ws() {
    return platform.network().reserved_on(hub->id, ws->id);
  }

  platform::Platform platform;
  platform::Host* s1 = nullptr;
  platform::Host* s2 = nullptr;
  platform::Host* hub = nullptr;
  platform::Host* ws = nullptr;
  std::unique_ptr<ScriptedUser> u1, u2, w1, w2;
};

}  // namespace cmtos::test
