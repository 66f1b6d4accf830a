// cmtos/media/stored_server.h
//
// Stored-media server (the paper's "PC based storage server", §2.1): holds
// tracks behind TSAPs, serves each over a source connection.  The producer
// "thread" per track respects the §3.7 shared-ring discipline: it pumps as
// fast as the ring accepts (stored media is prefetchable — the transport's
// rate-based flow control paces the wire) and blocks when the ring fills,
// which is exactly what Orch.Prime exploits to fill pipelines.
//
// The server cooperates with the orchestration service as the source
// application thread of Fig 7: Orch.Prime.indication starts generation,
// Orch.Stop leaves it blocked on the full ring, seek() + primed restart
// replays from a new position without stale data (the LLO flushes).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "media/content.h"
#include "orch/llo.h"
#include "platform/device_user.h"
#include "platform/host.h"
#include "util/thread_annotations.h"

namespace cmtos::media {

struct TrackConfig {
  std::uint32_t track_id = 0;
  /// Frames (OSDUs) in the stored item; production stops at the end.
  std::int64_t frame_count = INT64_MAX;
  VbrModel vbr;
  /// false: wait for Orch.Prime.indication before generating (orchestrated
  /// play-out); true: start producing as soon as the VC opens.
  bool auto_start = true;
  /// 0 = pump as fast as the ring accepts; otherwise artificial pacing in
  /// frames/second by the server's local clock (used to model a slow
  /// source application for Orch.Delayed experiments).
  double paced_rate = 0.0;
  /// Event value attached to every `event_every`-th frame (0 = never) —
  /// exercises the §6.3.4 event mechanism (e.g. signalling a change of
  /// encoding in the data stream).
  std::uint32_t event_every = 0;
  std::uint64_t event_value = 0;
};

class CMTOS_SHARD_AFFINE StoredMediaServer {
 public:
  StoredMediaServer(platform::Platform& platform, platform::Host& host, std::string name);
  ~StoredMediaServer();

  platform::Host& host() { return host_; }

  /// Exposes a track at `tsap`.  Returns the device address to connect to.
  net::NetAddress add_track(net::Tsap tsap, const TrackConfig& config);

  /// Repositions a track's play-out point (by TSAP).  Takes effect for the
  /// next frame generated; combine with a flushing Orch.Prime for clean
  /// resumption (§6.2.1).
  void seek(net::Tsap tsap, std::int64_t frame_index);

  struct TrackStats {
    std::int64_t frames_produced = 0;
    std::int64_t production_blocked_events = 0;
    std::int64_t delayed_indications = 0;
    bool end_of_track = false;
  };
  const TrackStats& stats(net::Tsap tsap) const;

 private:
  class TrackEndpoint;

  platform::Platform& platform_;
  platform::Host& host_;
  std::string name_;
  std::map<net::Tsap, std::unique_ptr<TrackEndpoint>> tracks_;
};

}  // namespace cmtos::media
