#include "transport/monitor.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/contract.h"

namespace cmtos::transport {

QosMonitor::QosMonitor(VcId vc, QosParams agreed, Duration sample_period)
    : vc_(vc), agreed_(agreed), sample_period_(sample_period) {}

void QosMonitor::publish(const QosReport& rep) {
  last_report_ = rep;
  if (rep.violations.any() && !rep.warmup) ++violation_periods_;

  auto& tr = obs::Tracer::global();
  if (!tr.enabled()) return;
  const int pid = static_cast<int>(vc_ >> 32);       // allocating node
  const int tid = static_cast<int>(vc_ & 0xffffffffu);
  tr.counter("qos.osdu_rate", rep.measured_osdu_rate, pid, tid);
  tr.counter("qos.mean_delay_ms", to_millis(rep.measured_mean_delay), pid, tid);
  tr.counter("qos.bit_error_rate", rep.measured_bit_error_rate, pid, tid);
  if (rep.violations.any() && !rep.warmup) tr.instant("QoS.violation", pid, tid);
}

void QosMonitor::on_osdu_completed(Duration end_to_end_delay) {
  ++osdus_;
  delay_.add(static_cast<double>(end_to_end_delay));
}

void QosMonitor::on_tpdu_received(std::int64_t wire_bytes) {
  ++tpdus_received_;
  bits_received_ += wire_bytes * 8;
}

void QosMonitor::on_tpdu_lost(std::int64_t count) { tpdus_lost_ += count; }

void QosMonitor::on_tpdu_corrupt(std::int64_t wire_bytes) {
  ++tpdus_corrupt_;
  bits_corrupt_ += wire_bytes * 8;
}

void QosMonitor::on_osdu_seen(std::uint32_t seq) {
  if (!seq_seen_) {
    seq_seen_ = true;
    seq_ref_ = seq;
    min_seq_off_ = 0;
    max_seq_off_ = 0;
    return;
  }
  // Serial-number arithmetic: the wrapping uint32 subtraction reinterpreted
  // as int32 gives the signed distance from the anchor even across a 2^32
  // wrap, as long as the true span stays below 2^31.
  const auto off = static_cast<std::int64_t>(static_cast<std::int32_t>(seq - seq_ref_));
  // A backward jump far beyond any plausible in-flight reordering means the
  // peer reset its sequence space (e.g. after a flush); re-anchor rather
  // than report the jump as offered load.
  constexpr std::int64_t kResyncWindow = 1 << 16;
  if (off < min_seq_off_ - kResyncWindow) {
    seq_ref_ = seq;
    min_seq_off_ = 0;
    max_seq_off_ = 0;
    return;
  }
  min_seq_off_ = std::min(min_seq_off_, off);
  max_seq_off_ = std::max(max_seq_off_, off);
}

void QosMonitor::end_period(Time local_now) {
  QosReport rep;
  rep.vc = vc_;
  rep.sample_period = local_now - period_start_;
  rep.agreed = agreed_;

  const double period_s = to_seconds(rep.sample_period);
  rep.measured_osdu_rate = period_s > 0 ? static_cast<double>(osdus_) / period_s : 0.0;
  rep.measured_mean_delay = static_cast<Duration>(delay_.mean());
  rep.measured_jitter = static_cast<Duration>(delay_.max() - delay_.min());
  const std::int64_t expected = tpdus_received_ + tpdus_lost_ + tpdus_corrupt_;
  rep.measured_packet_error_rate =
      expected > 0 ? static_cast<double>(tpdus_lost_ + tpdus_corrupt_) /
                         static_cast<double>(expected)
                   : 0.0;
  // BER estimate.  The checksum marks whole TPDUs corrupt without saying
  // how many bits flipped, so the per-bit rate must be inferred: under iid
  // bit errors with per-bit probability p, a B-bit TPDU is corrupt with
  // probability f = 1 - (1-p)^B.  Invert with B = mean TPDU bits over the
  // period (corrupt TPDUs' bits count — they crossed the wire too).  For
  // small f this reduces to f/B, i.e. ~1 flipped bit per corrupt TPDU; at
  // high corruption it stays finite by clamping f below 1.
  const std::int64_t tpdus_arrived = tpdus_received_ + tpdus_corrupt_;
  const std::int64_t bits_arrived = bits_received_ + bits_corrupt_;
  if (tpdus_corrupt_ > 0 && bits_arrived > 0) {
    const double mean_tpdu_bits =
        static_cast<double>(bits_arrived) / static_cast<double>(tpdus_arrived);
    double corrupt_frac =
        static_cast<double>(tpdus_corrupt_) / static_cast<double>(tpdus_arrived);
    corrupt_frac = std::min(
        corrupt_frac, 1.0 - 1.0 / (2.0 * static_cast<double>(tpdus_arrived)));
    rep.measured_bit_error_rate = 1.0 - std::pow(1.0 - corrupt_frac, 1.0 / mean_tpdu_bits);
  } else {
    rep.measured_bit_error_rate = 0.0;
  }

  // Tolerance comparison.  A 5% grace margin on throughput avoids spurious
  // indications from sample-period boundary effects.  Throughput is judged
  // against the offered load (the OSDU seq span observed this period): an
  // application that submits below the contract is not a provider fault.
  const double offered_rate =
      (seq_seen_ && period_s > 0)
          ? static_cast<double>(max_seq_off_ - min_seq_off_ + 1) / period_s
          : 0.0;
  const double demand = std::min(offered_rate, agreed_.osdu_rate);
  rep.violations.throughput =
      demand > 0 && rep.measured_osdu_rate < demand * 0.95 &&
      rep.measured_osdu_rate < agreed_.osdu_rate * 0.95;
  rep.violations.delay = rep.measured_mean_delay > agreed_.end_to_end_delay;
  rep.violations.jitter = rep.measured_jitter > agreed_.delay_jitter;
  rep.violations.packet_errors = rep.measured_packet_error_rate > agreed_.packet_error_rate;
  rep.violations.bit_errors = rep.measured_bit_error_rate > agreed_.bit_error_rate;

  rep.warmup = warmup_left_ > 0;

  // Indication coalescing: a sustained overload would otherwise emit one
  // T-QoS.indication per sample period forever, flooding the control VC
  // and the HLO agent's report path.  Track the violation run and emit only
  // on the first violating period, when the violated parameter set changes,
  // or as a periodic refresh every kRepeatEvery periods.
  bool emit = false;
  if (rep.warmup) {
    // Warmup periods neither report nor count toward a run.
  } else if (rep.violations.any()) {
    ++violation_run_;
    ++periods_since_emit_;
    emit = violation_run_ == 1 || !(rep.violations == last_emitted_set_) ||
           periods_since_emit_ >= kRepeatEvery;
  } else {
    violation_run_ = 0;
    coalesced_ = 0;
    periods_since_emit_ = 0;
    last_emitted_set_ = QosViolation{};
  }
  rep.consecutive_violation_periods = violation_run_;
  rep.coalesced_periods = coalesced_;

  publish(rep);
  if (warmup_left_ > 0) {
    --warmup_left_;
  } else if (emit) {
    last_emitted_set_ = rep.violations;
    periods_since_emit_ = 0;
    coalesced_ = 0;
    if (on_violation_) on_violation_(rep);
  } else if (rep.violations.any()) {
    ++coalesced_;
  }

  // Reset window.
  period_start_ = local_now;
  osdus_ = 0;
  seq_seen_ = false;
  min_seq_off_ = 0;
  max_seq_off_ = 0;
  delay_.reset();
  tpdus_received_ = 0;
  bits_received_ = 0;
  tpdus_lost_ = 0;
  tpdus_corrupt_ = 0;
  bits_corrupt_ = 0;
}

void QosMonitor::end_idle_periods(std::int64_t n, Time local_last_start, Time local_end) {
  CMTOS_DCHECK(n >= 1 && idle());
  // An empty window never violates: with no samples every measured value
  // (rate, mean delay, jitter, packet and bit error rates) and the offered
  // load are zero, and no tolerance is negative, so no comparison in
  // end_period can trip.  Closing one therefore only ticks the warmup
  // countdown, ends any violation run (once warmup is over; no run exists
  // before) and replaces last_report_ with an all-zero report.  The last
  // close below does the latter two itself, so each earlier period reduces
  // to the countdown.
  const std::int64_t earlier = n - 1;
  warmup_left_ -= static_cast<int>(std::min<std::int64_t>(earlier, warmup_left_));
  period_start_ = local_last_start;
  end_period(local_end);
}

}  // namespace cmtos::transport
