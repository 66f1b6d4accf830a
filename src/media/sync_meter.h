// cmtos/media/sync_meter.h
//
// Ground-truth inter-stream synchronisation measurement.
//
// Orchestration's job (§3.6) is to keep related streams at the same *media
// position* over time — e.g. lip sync between the audio and video of a
// film.  The SyncMeter samples the media position of each registered sink
// at a fixed true-time cadence and reports pairwise skew
//
//     skew_ab(t) = position_a(t) - position_b(t)      [seconds of media]
//
// which is exactly the quantity human viewers perceive (≈ ±80 ms is the
// classical lip-sync annoyance threshold).  It measures with the
// simulation's global clock, which no protocol component is allowed to
// read — pure instrumentation.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "media/sink.h"
#include "util/stats.h"

namespace cmtos::media {

class SyncMeter {
 public:
  explicit SyncMeter(sim::Scheduler& sched) : sched_(sched) {}

  void add_stream(const std::string& name, const RenderingSink* sink) {
    streams_.push_back({name, sink});
  }

  /// Begins periodic sampling every `period` of true time.
  void begin(Duration period);
  void stop() { tick_.cancel(); }

  struct Sample {
    Time t = 0;
    std::vector<double> positions_s;  // one per stream, registration order
  };
  const std::vector<Sample>& samples() const { return samples_; }

  /// Pairwise skew series between stream `a` and `b` (by index), in
  /// seconds of media time; samples where either stream has not started
  /// are excluded.
  SampleSet skew_seconds(std::size_t a, std::size_t b) const;

  /// Worst absolute skew across all pairs and all samples (seconds).
  double max_abs_skew_seconds() const;

  std::size_t stream_count() const { return streams_.size(); }
  const std::string& stream_name(std::size_t i) const { return streams_[i].name; }

 private:
  void sample_tick(Duration period);

  struct StreamRef {
    std::string name;
    const RenderingSink* sink;
  };

  sim::Scheduler& sched_;
  std::vector<StreamRef> streams_;
  std::vector<Sample> samples_;
  sim::Timer tick_;
};

}  // namespace cmtos::media
