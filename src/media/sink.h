// cmtos/media/sink.h
//
// Rendering sink: the sink application thread of Fig 7.  It consumes one
// OSDU per render period, paced by the sink host's *local* clock (as a
// hardware framebuffer/DAC would be), verifies content integrity, and logs
// a delivery record per frame so the SyncMeter and the benches can compute
// ground-truth inter-stream skew, jitter and starvation.
//
// When the ring is empty — or the LLO is holding delivery — the renderer
// repeats the previous frame (a starvation event) rather than catching up
// later: continuous media plays in real time or not at all.

#pragma once

#include <cstdint>
#include <vector>

#include "media/content.h"
#include "platform/device_user.h"
#include "platform/host.h"
#include "util/thread_annotations.h"

namespace cmtos::media {

struct RenderConfig {
  /// Render rate in OSDUs/second by the local clock.  0 = adopt the
  /// agreed QoS rate of the connection when it opens.
  double rate = 0.0;
  /// Expected track id (integrity checking); 0 disables the check.
  std::uint32_t expect_track = 0;
};

struct DeliveryRecord {
  Time true_time = 0;       // simulation ground truth
  Time local_time = 0;      // sink's local clock
  std::uint32_t seq = 0;    // OSDU sequence number
  std::uint32_t frame_index = 0;
  Duration true_delay = 0;  // submit -> render, ground truth
  bool intact = true;
};

class CMTOS_SHARD_AFFINE RenderingSink : public platform::DeviceUser, public orch::OrchAppHandler {
 public:
  RenderingSink(platform::Platform& platform, platform::Host& host, net::Tsap tsap,
                RenderConfig config);
  ~RenderingSink() override;

  struct Stats {
    std::int64_t frames_rendered = 0;
    std::int64_t starvation_events = 0;   // tick with nothing to render
    std::int64_t integrity_failures = 0;  // corrupt or foreign frames
    std::int64_t delayed_indications = 0;
  };
  const Stats& stats() const { return stats_; }
  const std::vector<DeliveryRecord>& records() const { return records_; }

  bool rendering() const { return rendering_; }
  /// Last OSDU sequence rendered (-1 if none).
  std::int64_t last_seq() const { return last_seq_; }
  /// First OSDU sequence rendered (-1 if none) — the media position base.
  std::int64_t base_seq() const { return base_seq_; }
  /// Media position in seconds: frames rendered so far / rate.
  double position_seconds() const;
  /// Media position interpolated within the current render period, so
  /// skew measurements are not quantised to whole frame periods.
  double position_seconds_at(Time true_now) const;
  double render_rate() const { return rate_; }

  transport::VcId vc() const { return vc_; }

  // --- OrchAppHandler (sink application thread) ---
  bool orch_prime_indication(orch::OrchSessionId, transport::VcId, bool is_source) override {
    return is_source ? true : !deny_prime_;
  }
  bool orch_delayed_indication(orch::OrchSessionId, transport::VcId, bool is_source,
                               std::int64_t) override {
    if (!is_source) ++stats_.delayed_indications;
    return true;
  }

  /// Test hook: make this sink refuse Orch.Prime (Orch.Deny path).
  void set_deny_prime(bool deny) { deny_prime_ = deny; }

 protected:
  void on_sink_ready(transport::VcId vc, transport::Connection& conn) override;
  void on_disconnected(transport::VcId vc, transport::DisconnectReason reason) override;

 private:
  void render_tick();

  platform::Platform& platform_;
  platform::Host& host_;
  RenderConfig config_;
  transport::Connection* conn_ = nullptr;
  transport::VcId vc_ = transport::kInvalidVc;
  double rate_ = 25.0;
  bool rendering_ = false;
  bool deny_prime_ = false;
  std::int64_t last_seq_ = -1;
  std::int64_t base_seq_ = -1;
  Time last_render_true_time_ = 0;
  sim::Timer tick_;
  Stats stats_;
  std::vector<DeliveryRecord> records_;
};

}  // namespace cmtos::media
