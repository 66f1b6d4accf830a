#include "media/stored_server.h"

#include "util/logging.h"

namespace cmtos::media {

using platform::DeviceUser;
using transport::Connection;
using transport::VcId;

class StoredMediaServer::TrackEndpoint : public DeviceUser, public orch::OrchAppHandler {
 public:
  TrackEndpoint(StoredMediaServer& server, net::Tsap tsap, TrackConfig config)
      : DeviceUser(server.host_.entity, tsap),
        server_(server),
        config_(config) {}

  ~TrackEndpoint() override {
    if (vc_ != transport::kInvalidVc) server_.host_.app_mux.detach(vc_);
  }

  TrackStats stats;
  std::int64_t index = 0;

  void seek(std::int64_t frame_index) {
    index = frame_index;
    stats.end_of_track = index >= config_.frame_count;
  }

 protected:
  void on_source_ready(VcId vc, Connection& conn) override {
    vc_ = vc;
    conn_ = &conn;
    server_.host_.app_mux.attach(vc, this);
    // The application thread retries a blocked push when the protocol
    // frees a slot (the semaphore signal of §3.7).
    conn.buffer().set_space_available([this] {
      if (producing_ && config_.paced_rate <= 0) pump();
    });
    if (config_.auto_start) start_producing();
  }

  void on_disconnected(VcId vc, transport::DisconnectReason reason) override {
    if (vc != vc_) return;
    // Honour remote-release requests (§4.1.1): a T-Disconnect.indication
    // for an open VC asks this endpoint to release it.
    if (reason == transport::DisconnectReason::kUserInitiated && conn_ != nullptr &&
        entity().source(vc) != nullptr) {
      entity().t_disconnect_request(vc);
    }
    producing_ = false;
    conn_ = nullptr;
    tick_.cancel();
  }

  // --- OrchAppHandler (the source application thread of Fig 7) ---
  bool orch_prime_indication(orch::OrchSessionId, VcId, bool is_source) override {
    if (!is_source) return true;
    if (stats.end_of_track) return false;  // nothing to play: Orch.Deny
    start_producing();
    return true;
  }
  void orch_start_indication(orch::OrchSessionId, VcId, bool is_source) override {
    if (is_source) start_producing();
  }
  void orch_stop_indication(orch::OrchSessionId, VcId, bool) override {
    // Keep producing until the ring fills; the protocol's flow control has
    // already frozen the wire (§6.2.3), so the thread simply blocks.
  }
  bool orch_delayed_indication(orch::OrchSessionId, VcId, bool is_source,
                               std::int64_t) override {
    if (is_source) ++stats.delayed_indications;
    return true;
  }

 private:
  void start_producing() {
    if (producing_ || conn_ == nullptr) return;
    producing_ = true;
    if (config_.paced_rate > 0) {
      schedule_paced_tick();
    } else {
      pump();
    }
  }

  /// Unpaced mode: fill the ring until it pushes back.
  void pump() {
    while (producing_ && conn_ != nullptr && !stats.end_of_track) {
      if (!submit_next()) {
        ++stats.production_blocked_events;
        return;  // space_available will call pump() again
      }
    }
  }

  void schedule_paced_tick() {
    // Paced production is node-local, like the live-source capture tick.
    auto& node = server_.platform_.network().node(server_.host_.id);
    const auto& clock = node.clock();
    const Duration local_period = static_cast<Duration>(1e9 / config_.paced_rate);
    tick_.after(node.runtime(), clock.true_duration(local_period), [this] {
      if (!producing_ || conn_ == nullptr || stats.end_of_track) return;
      if (!submit_next()) ++stats.production_blocked_events;  // frame skipped this period
      schedule_paced_tick();
    });
  }

  bool submit_next() {
    if (index >= config_.frame_count) {
      stats.end_of_track = true;
      producing_ = false;
      return false;
    }
    const auto idx32 = static_cast<std::uint32_t>(index);
    std::uint64_t event = 0;
    if (config_.event_every > 0 && idx32 % config_.event_every == 0 && index > 0)
      event = config_.event_value;
    auto frame = make_frame_view(config_.track_id, idx32, config_.vbr.frame_bytes(idx32));
    if (!conn_->submit(std::move(frame), event)) return false;
    ++index;
    ++stats.frames_produced;
    return true;
  }

  StoredMediaServer& server_;
  TrackConfig config_;
  VcId vc_ = transport::kInvalidVc;
  Connection* conn_ = nullptr;
  bool producing_ = false;
  sim::Timer tick_;
};

StoredMediaServer::StoredMediaServer(platform::Platform& platform, platform::Host& host,
                                     std::string name)
    : platform_(platform), host_(host), name_(std::move(name)) {}

StoredMediaServer::~StoredMediaServer() = default;

net::NetAddress StoredMediaServer::add_track(net::Tsap tsap, const TrackConfig& config) {
  tracks_[tsap] = std::make_unique<TrackEndpoint>(*this, tsap, config);
  return {host_.id, tsap};
}

void StoredMediaServer::seek(net::Tsap tsap, std::int64_t frame_index) {
  tracks_.at(tsap)->seek(frame_index);
}

const StoredMediaServer::TrackStats& StoredMediaServer::stats(net::Tsap tsap) const {
  return tracks_.at(tsap)->stats;
}

}  // namespace cmtos::media
