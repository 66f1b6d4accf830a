// cmtos/util/stats.h
//
// Measurement helpers used by the transport QoS monitor, the orchestration
// SyncMeter and the benchmark harnesses.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace cmtos {

/// Streaming mean / variance / min / max (Welford's algorithm).  Constant
/// memory; suitable for long-running per-VC monitors.
class OnlineStats {
 public:
  void add(double x);
  void reset();

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 if fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Retains all samples; supports exact percentiles.  Used by benches where
/// sample counts are modest (≤ millions).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by nearest-rank; p in [0,100].
  double percentile(double p) const;

  /// One-line summary: "n=100 mean=1.2 p50=1.1 p99=3.4 max=5.0".
  std::string summary() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void sort_if_needed() const;
};

/// Windowed event-rate meter: counts events (and bytes) and reports the
/// rate over an explicit [begin, end] window.  The transport QoS monitor
/// uses one per sample period.
class RateMeter {
 public:
  void begin_window(Time now) {
    window_start_ = now;
    events_ = 0;
    bytes_ = 0;
  }
  void record(std::int64_t bytes = 0) {
    ++events_;
    bytes_ += bytes;
  }
  std::int64_t events() const { return events_; }
  std::int64_t bytes() const { return bytes_; }
  /// Events per second over [window_start, now].
  double event_rate(Time now) const;
  /// Bits per second over [window_start, now].
  double bit_rate(Time now) const;

 private:
  Time window_start_ = 0;
  std::int64_t events_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace cmtos
