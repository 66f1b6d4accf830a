// cmtos/util/stats.h
//
// Measurement helpers used by the transport QoS monitor, the orchestration
// SyncMeter and the benchmark harnesses.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

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

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void sort_if_needed() const;
};

}  // namespace cmtos
