// cmtos/platform/stream.h
//
// The Stream abstraction (§2.2): "Streams are the primary extension we have
// made to the basic ANSA model.  They represent underlying CM connections
// but ... appear as ADT services with first class status ...  users at the
// platform level are isolated from the complexity of the protocol service
// interface.  Streams contain operations to manipulate QoS in media
// specific terms."
//
// A Stream is a management object: it may live on a node that is neither
// the source nor the sink of the connection it manages — establishing the
// VC then uses the transport's remote connection facility (§3.5, Fig 2).

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "platform/host.h"
#include "platform/media_qos.h"
#include "transport/service.h"

namespace cmtos::platform {

class Stream : public transport::TransportUser {
 public:
  using ConnectFn = std::function<void(bool ok, transport::QosParams agreed)>;
  using QosChangeFn = std::function<void(bool ok, transport::QosParams agreed)>;

  /// `home` is the host the Stream object (the management entity) runs on.
  Stream(Platform& platform, Host& home, std::string name);
  ~Stream() override;

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  const std::string& name() const { return name_; }

  /// Establishes the underlying simplex VC from the device at `src` to the
  /// device at `dst` with media-specific QoS.  When the home node differs
  /// from the source node this is a genuine three-party remote connect.
  void connect(const net::NetAddress& src, const net::NetAddress& dst, const MediaQos& media,
               transport::ServiceClass service_class, ConnectFn done);

  /// Releases the VC (remotely if the home node holds no endpoint).
  void disconnect();

  /// Changes the QoS "in media specific terms": maps the new description
  /// to transport tolerances and drives T-Renegotiate at the source
  /// entity.  E.g. upgrading monochrome to colour video, or inserting a
  /// compression module (§3.3).
  void change_qos(const MediaQos& media, QosChangeFn done);

  /// Variant with an explicit transport tolerance (used by the QoS manager,
  /// whose degradation ladder interpolates error/jitter tolerances as well
  /// as the media description — to_transport_qos(media) alone would reset
  /// those to the media defaults).
  void change_qos(const MediaQos& media, const transport::QosTolerance& tol, QosChangeFn done);

  // --- introspection ---
  bool connected() const { return connected_; }
  transport::VcId vc() const { return vc_; }
  const transport::QosParams& agreed_qos() const { return agreed_; }
  const MediaQos& media() const { return media_; }
  net::NetAddress source_address() const { return src_; }
  net::NetAddress sink_address() const { return dst_; }

  /// Geometry + rate for handing this Stream to the orchestrator.
  orch::OrchStreamSpec orch_spec(std::uint32_t max_drop_per_interval = 0) const;

  /// Ring capacity (in OSDUs) for the underlying VC; call before connect.
  void set_buffer_osdus(std::uint32_t n) { buffer_osdus_ = n; }

  /// QoS-monitor sample period for the underlying VC; call before connect.
  /// Shorter periods tighten the closed degradation loop's reaction time.
  void set_sample_period(Duration d) { sample_period_ = d; }

  /// Importance class for preemptive admission (call before connect;
  /// strictly-lower classes may be preempted to admit this stream).
  void set_importance(std::uint8_t importance) { importance_ = importance; }
  std::uint8_t importance() const { return importance_; }

  /// Arms sink-side load shedding: when the receive ring fills, stale
  /// OSDUs are shed down to `pct`% of capacity (0 disables; call before
  /// connect).
  void set_shed_watermark(std::uint8_t pct) { shed_watermark_pct_ = pct; }

  // --- notifications ---
  void set_on_qos_degraded(std::function<void(const transport::QosReport&)> fn) {
    on_qos_degraded_ = std::move(fn);
  }
  void set_on_disconnected(std::function<void(transport::DisconnectReason)> fn) {
    on_disconnected_ = std::move(fn);
  }

  // --- TransportUser (the Stream is the initiator-side user) ---
  void t_connect_indication(transport::VcId, const transport::ConnectRequest&) override;
  void t_connect_confirm(transport::VcId vc, const transport::QosParams& agreed) override;
  void t_disconnect_indication(transport::VcId vc,
                               transport::DisconnectReason reason) override;
  void t_qos_indication(transport::VcId vc, const transport::QosReport& report) override;

 private:
  void poll_qos_change(int tries_left);

  Platform& platform_;
  Host& home_;
  std::string name_;
  net::Tsap tsap_;

  bool connecting_ = false;
  bool connected_ = false;
  transport::VcId vc_ = transport::kInvalidVc;
  net::NetAddress src_, dst_;
  std::uint32_t buffer_osdus_ = 16;
  Duration sample_period_ = 500 * kMillisecond;
  std::uint8_t importance_ = 1;
  std::uint8_t shed_watermark_pct_ = 0;
  MediaQos media_{VideoQos{}};
  transport::QosParams agreed_;
  ConnectFn connect_done_;
  QosChangeFn qos_change_done_;
  transport::QosParams qos_change_goal_;
  sim::Timer qos_poll_;

  std::function<void(const transport::QosReport&)> on_qos_degraded_;
  std::function<void(transport::DisconnectReason)> on_disconnected_;
};

}  // namespace cmtos::platform
