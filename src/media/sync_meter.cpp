#include "media/sync_meter.h"

#include <cmath>

namespace cmtos::media {

void SyncMeter::begin(Duration period) { sample_tick(period); }

void SyncMeter::sample_tick(Duration period) {
  tick_.after(sched_, period, [this, period] {
    Sample s;
    s.t = sched_.now();
    s.positions_s.reserve(streams_.size());
    for (const auto& ref : streams_) {
      s.positions_s.push_back(ref.sink->last_seq() < 0 ? -1.0
                                                       : ref.sink->position_seconds_at(s.t));
    }
    samples_.push_back(std::move(s));
    sample_tick(period);
  });
}

SampleSet SyncMeter::skew_seconds(std::size_t a, std::size_t b) const {
  SampleSet set;
  for (const auto& s : samples_) {
    if (a >= s.positions_s.size() || b >= s.positions_s.size()) continue;
    if (s.positions_s[a] < 0 || s.positions_s[b] < 0) continue;  // not started
    set.add(s.positions_s[a] - s.positions_s[b]);
  }
  return set;
}

double SyncMeter::max_abs_skew_seconds() const {
  double worst = 0;
  for (std::size_t a = 0; a < streams_.size(); ++a) {
    for (std::size_t b = a + 1; b < streams_.size(); ++b) {
      const SampleSet s = skew_seconds(a, b);
      if (s.empty()) continue;
      worst = std::max({worst, std::abs(s.min()), std::abs(s.max())});
    }
  }
  return worst;
}

}  // namespace cmtos::media
