#include "platform/stream.h"

#include <cmath>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace cmtos::platform {

Stream::Stream(Platform& platform, Host& home, std::string name)
    : platform_(platform), home_(home), name_(std::move(name)), tsap_(home.alloc_tsap()) {
  home_.entity.bind(tsap_, this);
}

Stream::~Stream() {
  home_.entity.unbind(tsap_);
}

void Stream::connect(const net::NetAddress& src, const net::NetAddress& dst,
                     const MediaQos& media, transport::ServiceClass service_class,
                     ConnectFn done) {
  src_ = src;
  dst_ = dst;
  media_ = media;
  connect_done_ = std::move(done);
  connecting_ = true;

  transport::ConnectRequest req;
  req.initiator = {home_.id, tsap_};
  // A Stream whose home node *is* the source node still goes through the
  // conventional path: the initiator address equals the source address
  // only when the Stream itself owns the sending endpoint, which it never
  // does (devices do) — so this is always a §3.5 remote connect unless the
  // caller wired the device's own TSAP as initiator.
  req.src = src;
  req.dst = dst;
  req.service_class = service_class;
  req.qos = to_transport_qos(media);
  req.buffer_osdus = buffer_osdus_;
  req.sample_period = sample_period_;
  req.importance = importance_;
  req.shed_watermark_pct = shed_watermark_pct_;
  vc_ = home_.entity.t_connect_request(req);
}

void Stream::disconnect() {
  if (!connected_) return;
  connected_ = false;
  // Remote release (§4.1.1): ask the source endpoint's application to
  // release; device users honour it by default.  When the home node holds
  // the endpoint this degenerates to a local release.
  if (src_.node == home_.id) {
    home_.entity.t_disconnect_request(vc_);
  } else {
    home_.entity.t_remote_disconnect_request(vc_, src_);
  }
}

void Stream::change_qos(const MediaQos& media, QosChangeFn done) {
  change_qos(media, to_transport_qos(media), std::move(done));
}

// Sanctioned control-shard escape: change_qos runs inside a control-shard
// (global) event, so every node shard is quiescent and the cross-node reach
// into the source entity cannot race shard execution.  The CMTOS_CONTROL_PLANE
// annotation is what tools/analyze/cmtos_analyze.py checks — replacing the
// old per-line lint allow() tags.
CMTOS_CONTROL_PLANE
void Stream::change_qos(const MediaQos& media, const transport::QosTolerance& tol,
                        QosChangeFn done) {
  if (!connected_) {
    if (done) done(false, agreed_);
    return;
  }
  media_ = media;
  qos_change_done_ = std::move(done);
  qos_change_goal_ = tol.preferred;
  // Renegotiation is driven from the source entity (which owns the
  // reservation).  The Stream is a management object: it reaches the
  // source entity through the platform, standing in for the management
  // RPC the paper's platform would use.
  Host& src_host = platform_.host(src_.node);
  // Runs in a control-shard (global) event, so the source shard is quiescent.
  src_host.entity.t_renegotiate_request(vc_, tol);
  // The confirm is delivered to the *source device* user; observe the
  // outcome by polling the contract (bounded, RTT-scaled).
  poll_qos_change(10);
}

// Sanctioned control-shard escape (see change_qos above): Scheduler::after
// events are global, so the poll lambda never races the source shard.
CMTOS_CONTROL_PLANE
void Stream::poll_qos_change(int tries_left) {
  qos_poll_.after(platform_.scheduler(), 50 * kMillisecond, [this, tries_left] {
    Host& src_host = platform_.host(src_.node);
    transport::Connection* conn = src_host.entity.source(vc_);
    if (conn == nullptr) {
      if (qos_change_done_) {
        auto done = std::move(qos_change_done_);
        done(false, agreed_);
      }
      return;
    }
    const auto& now_agreed = conn->agreed_qos();
    const bool changed = std::abs(now_agreed.osdu_rate - agreed_.osdu_rate) > 1e-9 ||
                         now_agreed.max_osdu_bytes != agreed_.max_osdu_bytes;
    if (changed) {
      agreed_ = now_agreed;
      if (qos_change_done_) {
        auto done = std::move(qos_change_done_);
        done(true, agreed_);
      }
      return;
    }
    if (tries_left <= 0) {
      if (qos_change_done_) {
        auto done = std::move(qos_change_done_);
        done(false, agreed_);
      }
      return;
    }
    poll_qos_change(tries_left - 1);
  });
}

orch::OrchStreamSpec Stream::orch_spec(std::uint32_t max_drop_per_interval) const {
  orch::OrchStreamSpec spec;
  spec.vc.vc = vc_;
  spec.vc.src_node = src_.node;
  spec.vc.sink_node = dst_.node;
  spec.osdu_rate = connected_ ? agreed_.osdu_rate : nominal_osdu_rate(media_);
  spec.max_drop_per_interval = max_drop_per_interval;
  return spec;
}

void Stream::t_connect_indication(transport::VcId, const transport::ConnectRequest&) {
  // Streams initiate; they never own a device TSAP, so no connects arrive.
  CMTOS_WARN("stream", "%s: unexpected T-Connect.indication", name_.c_str());
}

void Stream::t_connect_confirm(transport::VcId vc, const transport::QosParams& agreed) {
  if (vc != vc_) return;
  agreed_ = agreed;
  connected_ = true;
  connecting_ = false;
  if (connect_done_) {
    auto done = std::move(connect_done_);
    done(true, agreed);
  }
}

void Stream::t_disconnect_indication(transport::VcId vc, transport::DisconnectReason reason) {
  if (vc != vc_) return;
  if (connecting_) {
    connecting_ = false;
    if (connect_done_) {
      auto done = std::move(connect_done_);
      done(false, {});
    }
    return;
  }
  if (reason == transport::DisconnectReason::kRenegotiationFailed) {
    // The VC survives (§4.1.3); report the failed change.
    if (qos_change_done_) {
      auto done = std::move(qos_change_done_);
      qos_poll_.cancel();
      done(false, agreed_);
    }
    return;
  }
  connected_ = false;
  if (on_disconnected_) on_disconnected_(reason);
}

void Stream::t_qos_indication(transport::VcId vc, const transport::QosReport& report) {
  if (vc != vc_) return;
  if (on_qos_degraded_) on_qos_degraded_(report);
}

}  // namespace cmtos::platform
