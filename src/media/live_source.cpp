#include "media/live_source.h"

#include "media/content.h"

namespace cmtos::media {

LiveSource::LiveSource(platform::Platform& platform, platform::Host& host, net::Tsap tsap,
                       LiveConfig config)
    : DeviceUser(host.entity, tsap), platform_(platform), host_(host), config_(config) {}

void LiveSource::switch_on() {
  on_ = true;
  if (!conns_.empty() && !capturing_) {
    capturing_ = true;
    tick();
  }
}

void LiveSource::switch_off() {
  on_ = false;
  capturing_ = false;
  tick_.cancel();
}

void LiveSource::on_source_ready(transport::VcId, transport::Connection& conn) {
  conns_.push_back(&conn);
  if (on_ && !capturing_) {
    capturing_ = true;
    tick();
  }
}

void LiveSource::on_disconnected(transport::VcId vc, transport::DisconnectReason) {
  std::erase_if(conns_, [&](transport::Connection* c) { return c->id() == vc; });
  if (conns_.empty()) {
    capturing_ = false;
    tick_.cancel();
  }
}

void LiveSource::tick() {
  if (!capturing_ || conns_.empty()) return;
  // One pooled frame, written once; every connection shares it by refcount.
  const auto frame = make_frame_view(config_.track_id, index_,
                                     static_cast<std::size_t>(config_.frame_bytes));
  ++stats_.frames_captured;
  for (auto* conn : conns_) {
    if (!conn->submit(frame)) ++stats_.frames_dropped_at_capture;
  }
  ++index_;

  // Capture cadence is node-local: the frame lands in this node's transport
  // buffer, so the tick never needs a serialised executor round.
  auto& node = platform_.network().node(host_.id);
  const Duration local_period = static_cast<Duration>(1e9 / config_.rate);
  tick_.after(node.runtime(), node.clock().true_duration(local_period), [this] { tick(); });
}

}  // namespace cmtos::media
