#include "util/stats.h"

#include <cmath>

namespace cmtos {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::reset() {
  n_ = 0;
  mean_ = m2_ = min_ = max_ = 0;
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0;
  double acc = 0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  sort_if_needed();
  return samples_.empty() ? 0 : samples_.front();
}

double SampleSet::max() const {
  sort_if_needed();
  return samples_.empty() ? 0 : samples_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0;
  sort_if_needed();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[std::min(samples_.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace cmtos
