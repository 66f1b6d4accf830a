#include "media/sink.h"

#include <algorithm>

namespace cmtos::media {

RenderingSink::RenderingSink(platform::Platform& platform, platform::Host& host, net::Tsap tsap,
                             RenderConfig config)
    : DeviceUser(host.entity, tsap), platform_(platform), host_(host), config_(config) {}

RenderingSink::~RenderingSink() {
  if (vc_ != transport::kInvalidVc) host_.app_mux.detach(vc_);
}

double RenderingSink::position_seconds() const {
  if (last_seq_ < 0 || rate_ <= 0) return 0;
  return static_cast<double>(last_seq_ - base_seq_ + 1) / rate_;
}

double RenderingSink::position_seconds_at(Time true_now) const {
  if (last_seq_ < 0 || rate_ <= 0) return 0;
  const double period_s = 1.0 / rate_;
  const double frac =
      std::min(1.0, to_seconds(true_now - last_render_true_time_) / period_s);
  return position_seconds() + frac * period_s;
}

void RenderingSink::on_sink_ready(transport::VcId vc, transport::Connection& conn) {
  vc_ = vc;
  conn_ = &conn;
  rate_ = config_.rate > 0 ? config_.rate : conn.agreed_qos().osdu_rate;
  host_.app_mux.attach(vc, this);
  if (!rendering_) {
    rendering_ = true;
    render_tick();
  }
}

void RenderingSink::on_disconnected(transport::VcId vc, transport::DisconnectReason) {
  if (vc != vc_) return;
  conn_ = nullptr;
  rendering_ = false;
  tick_.cancel();
}

void RenderingSink::render_tick() {
  if (!rendering_ || conn_ == nullptr) return;

  auto osdu = conn_->receive();
  if (!osdu) {
    // Nothing deliverable: repeat the previous frame.  Counted only after
    // the stream has begun (an idle sink before start is not starving).
    if (last_seq_ >= 0) ++stats_.starvation_events;
  } else {
    ++stats_.frames_rendered;
    if (base_seq_ < 0) base_seq_ = osdu->seq;
    last_seq_ = osdu->seq;
    last_render_true_time_ = platform_.scheduler().now();

    DeliveryRecord rec;
    rec.true_time = platform_.scheduler().now();
    rec.local_time = platform_.network().node(host_.id).local_now();
    rec.seq = osdu->seq;
    rec.true_delay = rec.true_time - osdu->true_submit;
    auto header = verify_frame(osdu->data.span());
    if (!header || (config_.expect_track != 0 && header->track_id != config_.expect_track)) {
      rec.intact = false;
      ++stats_.integrity_failures;
    } else {
      rec.frame_index = header->index;
    }
    records_.push_back(rec);
  }

  // Rendering cadence is node-local, like the capture tick.
  auto& node = platform_.network().node(host_.id);
  const Duration local_period = static_cast<Duration>(1e9 / rate_);
  tick_.after(node.runtime(), node.clock().true_duration(local_period),
              [this] { render_tick(); });
}

}  // namespace cmtos::media
