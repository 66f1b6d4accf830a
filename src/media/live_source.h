// cmtos/media/live_source.h
//
// A live capture device (camera / microphone, §3.6): produces frames at a
// constant logical rate governed by its *local* clock.  "With live media,
// there is no control over when the information flow starts ... and no
// possibility of altering the speed of a live media flow" — so this source
// ignores orchestration prime/stop hints, and when the ring is full the
// frame is simply lost (perishable live data), never queued.

#pragma once

#include <cstdint>
#include <string>

#include "platform/device_user.h"
#include "platform/host.h"
#include "util/thread_annotations.h"

namespace cmtos::media {

struct LiveConfig {
  std::uint32_t track_id = 0;
  double rate = 25.0;            // frames per second, by the local clock
  std::int64_t frame_bytes = 4096;
};

class CMTOS_SHARD_AFFINE LiveSource : public platform::DeviceUser {
 public:
  LiveSource(platform::Platform& platform, platform::Host& host, net::Tsap tsap,
             LiveConfig config);

  struct Stats {
    std::int64_t frames_captured = 0;
    std::int64_t frames_dropped_at_capture = 0;  // ring full: perishable
  };
  const Stats& stats() const { return stats_; }
  bool capturing() const { return capturing_; }

  /// Camera power switch: capture runs only while on.
  void switch_on();
  void switch_off();

 protected:
  void on_source_ready(transport::VcId vc, transport::Connection& conn) override;
  void on_disconnected(transport::VcId vc, transport::DisconnectReason reason) override;

 private:
  void tick();

  platform::Platform& platform_;
  platform::Host& host_;
  LiveConfig config_;
  /// A live device fans its capture out to every connected viewer (each
  /// remote connect to the camera TSAP adds a simplex VC).
  std::vector<transport::Connection*> conns_;
  bool on_ = true;
  bool capturing_ = false;
  std::uint32_t index_ = 0;
  sim::Timer tick_;
  Stats stats_;
};

}  // namespace cmtos::media
