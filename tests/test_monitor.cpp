// Tests for Table 2: per-VC QoS monitoring over sample periods and the
// T-QoS.indication delivery paths (sink user, source user, distinct
// initiator).

#include <gtest/gtest.h>

#include "fixtures.h"

namespace cmtos::test {
namespace {

using transport::ErrorControl;
using transport::QosMonitor;
using transport::QosParams;
using transport::QosReport;
using transport::VcId;

QosParams contract() {
  QosParams p;
  p.osdu_rate = 50;
  p.max_osdu_bytes = 1024;
  p.end_to_end_delay = 100 * kMillisecond;
  p.delay_jitter = 20 * kMillisecond;
  p.packet_error_rate = 0.01;
  p.bit_error_rate = 1e-6;
  return p;
}

TEST(QosMonitorUnit, CleanPeriodNoViolation) {
  QosMonitor m(1, contract(), 1 * kSecond);
  int violations = 0;
  m.set_on_violation([&](const QosReport&) { ++violations; });
  m.begin(0);
  for (int i = 0; i < 50; ++i) {
    m.on_osdu_completed(50 * kMillisecond);
    m.on_tpdu_received(1100);
  }
  m.end_period(1 * kSecond);
  EXPECT_EQ(m.last_report().sample_period, 1 * kSecond);
  EXPECT_NEAR(m.last_report().measured_osdu_rate, 50.0, 1e-9);
  EXPECT_EQ(violations, 0);
}

TEST(QosMonitorUnit, ThroughputViolationDetected) {
  QosMonitor m(1, contract(), 1 * kSecond);
  QosReport last;
  m.set_on_violation([&](const QosReport& r) { last = r; });
  m.begin(0);
  // 50 OSDUs were offered (seq span) but only 20 completed.
  for (std::uint32_t s = 0; s < 50; ++s) m.on_osdu_seen(s);
  for (int i = 0; i < 20; ++i) m.on_osdu_completed(50 * kMillisecond);
  m.end_period(1 * kSecond);
  EXPECT_TRUE(last.violations.throughput);
  EXPECT_NEAR(last.measured_osdu_rate, 20.0, 0.1);
  EXPECT_FALSE(last.violations.delay);
}

TEST(QosMonitorUnit, UnderfedApplicationIsNotAViolation) {
  // The user submitted only 20/s against a 50/s contract and all 20
  // arrived: the provider met the demand.
  QosMonitor m(1, contract(), 1 * kSecond);
  int violations = 0;
  m.set_on_violation([&](const QosReport&) { ++violations; });
  m.begin(0);
  for (std::uint32_t s = 0; s < 20; ++s) {
    m.on_osdu_seen(s);
    m.on_osdu_completed(50 * kMillisecond);
  }
  m.end_period(1 * kSecond);
  EXPECT_EQ(violations, 0);
}

TEST(QosMonitorUnit, DelayAndJitterViolations) {
  QosMonitor m(1, contract(), 1 * kSecond);
  QosReport last;
  m.set_on_violation([&](const QosReport& r) { last = r; });
  m.begin(0);
  for (int i = 0; i < 50; ++i)
    m.on_osdu_completed(150 * kMillisecond + (i % 2) * 30 * kMillisecond);
  m.end_period(1 * kSecond);
  EXPECT_TRUE(last.violations.delay);   // mean 165ms > 100ms
  EXPECT_TRUE(last.violations.jitter);  // 30ms spread > 20ms
}

TEST(QosMonitorUnit, ErrorRateViolations) {
  QosMonitor m(1, contract(), 1 * kSecond);
  QosReport last;
  m.set_on_violation([&](const QosReport& r) { last = r; });
  m.begin(0);
  for (int i = 0; i < 50; ++i) {
    m.on_osdu_completed(10 * kMillisecond);
    m.on_tpdu_received(1000);
  }
  m.on_tpdu_lost(5);   // 5/55 ~ 9% > 1%
  m.on_tpdu_corrupt();
  m.end_period(1 * kSecond);
  EXPECT_TRUE(last.violations.packet_errors);
  EXPECT_TRUE(last.violations.bit_errors);
}

TEST(QosMonitorUnit, WindowResetsBetweenPeriods) {
  QosMonitor m(1, contract(), 1 * kSecond);
  int violations = 0;
  m.set_on_violation([&](const QosReport&) { ++violations; });
  m.begin(0);
  // Bad period: 50 offered, 10 completed.
  for (std::uint32_t s = 0; s < 50; ++s) m.on_osdu_seen(s);
  for (int i = 0; i < 10; ++i) m.on_osdu_completed(10 * kMillisecond);
  m.end_period(1 * kSecond);
  EXPECT_EQ(violations, 1);
  // Healthy period: counters were reset, no carry-over violation.
  for (std::uint32_t s = 50; s < 105; ++s) {
    m.on_osdu_seen(s);
    m.on_osdu_completed(10 * kMillisecond);
  }
  m.end_period(2 * kSecond);
  EXPECT_EQ(violations, 1);
}

// --- sequence-number wraparound (regression) ---
//
// The offered-load span is tracked with serial-number arithmetic; a naive
// max-min over raw uint32 seqs blows up to ~2^32 when a period straddles
// the wrap, making an underfed application look like a provider fault.

TEST(QosMonitorSeqWrap, WrapInsidePeriodDoesNotInflateOfferedLoad) {
  QosMonitor m(1, contract(), 1 * kSecond);
  int violations = 0;
  m.set_on_violation([&](const QosReport&) { ++violations; });
  m.begin(0);
  // 20 OSDUs against a 50/s contract, crossing the wrap halfway: the
  // provider delivered everything that was offered.
  for (std::uint32_t i = 0; i < 20; ++i) {
    m.on_osdu_seen(0xFFFFFFF6u + i);
    m.on_osdu_completed(10 * kMillisecond);
  }
  m.end_period(1 * kSecond);
  EXPECT_EQ(violations, 0);
}

TEST(QosMonitorSeqWrap, ReorderingAcrossWrapKeepsTrueSpan) {
  QosMonitor m(1, contract(), 1 * kSecond);
  const QosReport& last = m.last_report();
  m.begin(0);
  for (std::uint32_t seq : {0xFFFFFFFEu, 1u, 0xFFFFFFFFu, 0u, 2u}) {
    m.on_osdu_seen(seq);
    m.on_osdu_completed(10 * kMillisecond);
  }
  m.end_period(1 * kSecond);
  EXPECT_FALSE(last.violations.throughput);
}

TEST(QosMonitorSeqWrap, BackwardResyncReAnchorsInsteadOfReporting) {
  // A flush resets the peer's sequence space: the huge backward jump is a
  // resync, not 10^6 OSDUs of unserved offered load.
  QosMonitor m(1, contract(), 1 * kSecond);
  int violations = 0;
  m.set_on_violation([&](const QosReport&) { ++violations; });
  m.begin(0);
  for (std::uint32_t i = 0; i < 10; ++i) {
    m.on_osdu_seen(1'000'000u + i);
    m.on_osdu_completed(10 * kMillisecond);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    m.on_osdu_seen(i);
    m.on_osdu_completed(10 * kMillisecond);
  }
  m.end_period(1 * kSecond);
  EXPECT_EQ(violations, 0);
}

// --- indication coalescing ---

class CoalescingFeeder {
 public:
  explicit CoalescingFeeder(QosMonitor& m) : m_(m) {}

  /// One period of sustained throughput violation (50 offered, 10 served),
  /// optionally also violating the delay bound.
  void violating_period(bool with_delay = false) {
    for (int i = 0; i < 50; ++i) m_.on_osdu_seen(next_seq_++);
    const Duration d = with_delay ? 150 * kMillisecond : 10 * kMillisecond;
    for (int i = 0; i < 10; ++i) m_.on_osdu_completed(d);
    end();
  }
  void clean_period() {
    for (int i = 0; i < 10; ++i) {
      m_.on_osdu_seen(next_seq_++);
      m_.on_osdu_completed(10 * kMillisecond);
    }
    end();
  }

 private:
  void end() {
    now_ += kSecond;
    m_.end_period(now_);
  }
  QosMonitor& m_;
  std::uint32_t next_seq_ = 0;
  Time now_ = 0;
};

TEST(QosMonitorCoalescing, SustainedRunEmitsFirstThenRefreshes) {
  QosMonitor m(1, contract(), 1 * kSecond);
  std::vector<QosReport> emitted;
  m.set_on_violation([&](const QosReport& r) { emitted.push_back(r); });
  m.begin(0);
  CoalescingFeeder feed(m);
  for (int p = 0; p < 10; ++p) feed.violating_period();
  // Periods 1..10 all violate with an unchanged set: emissions at period 1
  // (run start) and refreshes at 5 and 9.
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[0].consecutive_violation_periods, 1u);
  EXPECT_EQ(emitted[0].coalesced_periods, 0u);
  EXPECT_EQ(emitted[1].consecutive_violation_periods, 5u);
  EXPECT_EQ(emitted[1].coalesced_periods, 3u);  // periods 2..4 suppressed
  EXPECT_EQ(emitted[2].consecutive_violation_periods, 9u);
  EXPECT_EQ(emitted[2].coalesced_periods, 3u);  // periods 6..8 suppressed
}

TEST(QosMonitorCoalescing, ViolatedSetChangeBreaksSuppression) {
  QosMonitor m(1, contract(), 1 * kSecond);
  std::vector<QosReport> emitted;
  m.set_on_violation([&](const QosReport& r) { emitted.push_back(r); });
  m.begin(0);
  CoalescingFeeder feed(m);
  feed.violating_period();                  // throughput only -> emit
  feed.violating_period();                  // same set -> suppressed
  feed.violating_period(/*with_delay=*/true);  // set grew -> emit now
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_FALSE(emitted[0].violations.delay);
  EXPECT_TRUE(emitted[1].violations.delay);
  EXPECT_EQ(emitted[1].consecutive_violation_periods, 3u);
}

TEST(QosMonitorCoalescing, CleanPeriodResetsTheRun) {
  QosMonitor m(1, contract(), 1 * kSecond);
  std::vector<QosReport> emitted;
  m.set_on_violation([&](const QosReport& r) { emitted.push_back(r); });
  m.begin(0);
  CoalescingFeeder feed(m);
  feed.violating_period();
  feed.clean_period();
  feed.violating_period();
  // Both violating periods start a fresh run: both emit immediately.
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1].consecutive_violation_periods, 1u);
  EXPECT_EQ(emitted[1].coalesced_periods, 0u);
}

TEST(QosMonitorCoalescing, RenegotiationRestartsTheRun) {
  QosMonitor m(1, contract(), 1 * kSecond);
  std::vector<QosReport> emitted;
  m.set_on_violation([&](const QosReport& r) { emitted.push_back(r); });
  m.begin(0);
  CoalescingFeeder feed(m);
  feed.violating_period();
  feed.violating_period();  // suppressed
  // Unit test drives the rebaseline directly.  cmtos-lint: allow(qos-set-agreed)
  m.set_agreed(contract());  // contract changed: old history judged old terms
  feed.violating_period();
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1].consecutive_violation_periods, 1u);
}

// --- lazy period closing: the O(1) catch-up equals closing every boundary ---

void expect_same_report(const QosReport& ref, const QosReport& lazy) {
  EXPECT_EQ(ref.sample_period, lazy.sample_period);
  EXPECT_EQ(ref.measured_osdu_rate, lazy.measured_osdu_rate);
  EXPECT_EQ(ref.measured_mean_delay, lazy.measured_mean_delay);
  EXPECT_EQ(ref.measured_jitter, lazy.measured_jitter);
  EXPECT_EQ(ref.measured_packet_error_rate, lazy.measured_packet_error_rate);
  EXPECT_EQ(ref.measured_bit_error_rate, lazy.measured_bit_error_rate);
  EXPECT_TRUE(ref.violations == lazy.violations);
  EXPECT_EQ(ref.warmup, lazy.warmup);
  EXPECT_EQ(ref.consecutive_violation_periods, lazy.consecutive_violation_periods);
  EXPECT_EQ(ref.coalesced_periods, lazy.coalesced_periods);
}

/// `fed` violating periods, then `idle` periods with nothing fed, then one
/// more violating period.  `ref` closes every idle boundary with
/// end_period; `lazy` closes them all with one end_idle_periods call, as a
/// sink does at its next feed.  Boundaries are read off a drifting clock,
/// so the periods' local lengths differ.
void expect_catch_up_matches(int warmup, int fed, std::int64_t idle) {
  SCOPED_TRACE("warmup=" + std::to_string(warmup) + " fed=" + std::to_string(fed) +
               " idle=" + std::to_string(idle));
  const Duration period = 500 * kMillisecond;
  const sim::LocalClock clock(3 * kMillisecond, 150.0);
  auto boundary = [&](std::int64_t k) { return clock.local_time(k * period); };
  QosMonitor ref(1, contract(), period);
  QosMonitor lazy(1, contract(), period);
  int ref_indications = 0, lazy_indications = 0;
  ref.set_on_violation([&](const QosReport&) { ++ref_indications; });
  lazy.set_on_violation([&](const QosReport&) { ++lazy_indications; });
  for (QosMonitor* m : {&ref, &lazy}) {
    m->set_warmup_periods(warmup);
    m->begin(boundary(0));
  }
  // 25 offered and 10 served at 150 ms against 50/s and 100 ms: throughput
  // and delay both violate.
  std::int64_t k = 0;
  auto violating_period = [&] {
    for (QosMonitor* m : {&ref, &lazy}) {
      for (std::uint32_t s = 0; s < 25; ++s) m->on_osdu_seen(static_cast<std::uint32_t>(k * 25) + s);
      for (int i = 0; i < 10; ++i) {
        m->on_tpdu_received(1000);
        m->on_osdu_completed(150 * kMillisecond);
      }
      m->end_period(boundary(k + 1));
    }
    ++k;
  };
  for (int i = 0; i < fed; ++i) violating_period();

  for (std::int64_t i = 1; i <= idle; ++i) ref.end_period(boundary(k + i));
  if (idle > 0) lazy.end_idle_periods(idle, boundary(k + idle - 1), boundary(k + idle));
  k += idle;
  expect_same_report(ref.last_report(), lazy.last_report());
  EXPECT_EQ(ref.violation_periods(), lazy.violation_periods());
  EXPECT_EQ(ref_indications, lazy_indications);

  // The next period starts at the last boundary: same span, same rate.
  violating_period();
  expect_same_report(ref.last_report(), lazy.last_report());
  EXPECT_GT(lazy.last_report().measured_osdu_rate, 0.0);
  EXPECT_EQ(ref.violation_periods(), lazy.violation_periods());
  EXPECT_EQ(ref_indications, lazy_indications);
}

TEST(QosMonitorLazy, CatchUpWithWarmupPendingMatchesStepping) {
  for (std::int64_t idle : {0, 1, 2, 1000}) expect_catch_up_matches(3, 0, idle);
}

TEST(QosMonitorLazy, CatchUpAfterWarmupMatchesStepping) {
  for (std::int64_t idle : {0, 1, 2, 1000}) expect_catch_up_matches(1, 2, idle);
}

// --- end-to-end indication delivery ---

struct MonitoredWorld {
  MonitoredWorld() : star(3) {
    auto& h0 = *star.leaves[0];
    auto& h1 = *star.leaves[1];
    src_user = std::make_unique<ScriptedUser>(h0.entity);
    dst_user = std::make_unique<ScriptedUser>(h1.entity);
    h0.entity.bind(10, src_user.get());
    h1.entity.bind(20, dst_user.get());
  }
  StarPlatform star;
  std::unique_ptr<ScriptedUser> src_user, dst_user;
};

TEST(QosIndication, DegradationReachesSinkAndSourceUsers) {
  MonitoredWorld w;
  auto& h0 = *w.star.leaves[0];
  auto& h1 = *w.star.leaves[1];
  auto req = basic_request({h0.id, 10}, {h1.id, 20}, 25.0, 2048);
  req.sample_period = 500 * kMillisecond;
  req.service_class.error_control = ErrorControl::kIndicate;
  // Tight contract so induced loss breaks it.
  req.qos.preferred.packet_error_rate = 0.01;
  req.qos.worst.packet_error_rate = 0.01;
  const VcId vc = h0.entity.t_connect_request(req);
  w.star.platform.run_until(200 * kMillisecond);
  auto* source = h0.entity.source(vc);
  ASSERT_NE(source, nullptr);

  // Healthy traffic first, offered at the contract rate (a burst would
  // legitimately trip the delay bound via source queueing): no indications.
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) (void)source->submit(std::vector<std::uint8_t>(500, 1));
  };
  for (int i = 0; i < 25; ++i) {
    feed(1);  // smooth 25/s: bursts would legitimately violate jitter
    w.star.platform.run_until(w.star.platform.scheduler().now() + 40 * kMillisecond);
    while (h1.entity.sink(vc)->receive()) {
    }
  }
  EXPECT_TRUE(w.dst_user->qos_reports.empty());

  // Now degrade the leaf0->hub link hard.
  w.star.platform.network().link(h0.id, w.star.hub->id)->set_loss_rate(0.5);
  for (int burst = 0; burst < 20; ++burst) {
    feed(5);
    w.star.platform.run_until(w.star.platform.scheduler().now() + 200 * kMillisecond);
    while (h1.entity.sink(vc) && h1.entity.sink(vc)->receive()) {
    }
  }

  ASSERT_FALSE(w.dst_user->qos_reports.empty());
  const QosReport& rep = w.dst_user->qos_reports.front();
  EXPECT_EQ(rep.vc, vc);
  EXPECT_TRUE(rep.violations.any());
  // Relay to the source user over the QI control TPDU (§4.1.2 lists the
  // source address in the primitive).
  EXPECT_FALSE(w.src_user->qos_reports.empty());
}

/// A sink user that records when the VC opened and when each
/// T-QoS.indication arrived.
class TimedSinkUser : public ScriptedUser {
 public:
  TimedSinkUser(transport::TransportEntity& entity, sim::Scheduler& sched)
      : ScriptedUser(entity), sched_(sched) {}
  void t_connect_indication(VcId vc, const transport::ConnectRequest& req) override {
    opened_at = sched_.now();  // the sink endpoint opens inside the response
    ScriptedUser::t_connect_indication(vc, req);
  }
  void t_qos_indication(VcId vc, const QosReport& report) override {
    indicated_at.push_back(sched_.now());
    ScriptedUser::t_qos_indication(vc, report);
  }
  Time opened_at = -1;
  std::vector<Time> indicated_at;

 private:
  sim::Scheduler& sched_;
};

TEST(QosIndication, IdleVcIndicatesOnThePeriodGrid) {
  // The sink's monitor arms no timer while its VC is idle.  After 2.2 s of
  // silence a burst arrives that the contract rate drains at 25/s, so the
  // queueing delay breaks the 50 ms bound: the indication still lands
  // exactly on the grid open + n * sample_period, at the boundary closing
  // the first fed period (2.5 s).
  PairPlatform w(lan_link(), 42, {}, sim::LocalClock(0, 200.0));
  ScriptedUser src(w.a->entity);
  TimedSinkUser dst(w.b->entity, w.platform.scheduler());
  w.a->entity.bind(10, &src);
  w.b->entity.bind(20, &dst);
  const Duration period = 500 * kMillisecond;
  auto req = basic_request({w.a->id, 10}, {w.b->id, 20}, 25.0, 512);
  req.sample_period = period;
  req.service_class.error_control = ErrorControl::kIndicate;
  req.qos.preferred.end_to_end_delay = 50 * kMillisecond;
  const VcId vc = w.a->entity.t_connect_request(req);
  w.platform.run_until(100 * kMillisecond);
  transport::Connection* source = w.a->entity.source(vc);
  ASSERT_NE(source, nullptr);
  ASSERT_GE(dst.opened_at, 0);

  w.platform.run_until(dst.opened_at + 2200 * kMillisecond);
  EXPECT_TRUE(dst.indicated_at.empty());
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(source->submit(std::vector<std::uint8_t>(400, 1)));
  w.platform.run_until(dst.opened_at + 4 * kSecond);

  ASSERT_FALSE(dst.indicated_at.empty());
  EXPECT_TRUE(dst.qos_reports.front().violations.delay);
  EXPECT_EQ(dst.indicated_at.front(), dst.opened_at + 5 * period);
  for (Time t : dst.indicated_at) EXPECT_EQ((t - dst.opened_at) % period, 0) << t;
}

TEST(QosIndication, DistinctInitiatorAlsoNotified) {
  MonitoredWorld w;
  auto& h0 = *w.star.leaves[0];
  auto& h1 = *w.star.leaves[1];
  auto& h2 = *w.star.leaves[2];
  ScriptedUser initiator(h2.entity);
  h2.entity.bind(30, &initiator);

  auto req = basic_request({h0.id, 10}, {h1.id, 20}, 25.0, 2048);
  req.initiator = {h2.id, 30};
  req.sample_period = 500 * kMillisecond;
  req.qos.preferred.packet_error_rate = 0.01;
  req.qos.worst.packet_error_rate = 0.01;
  const VcId vc = h2.entity.t_connect_request(req);
  w.star.platform.run_until(300 * kMillisecond);
  auto* source = h0.entity.source(vc);
  ASSERT_NE(source, nullptr);

  w.star.platform.network().link(h0.id, w.star.hub->id)->set_loss_rate(0.5);
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 5; ++i) (void)source->submit(std::vector<std::uint8_t>(500, 1));
    w.star.platform.run_until(w.star.platform.scheduler().now() + 200 * kMillisecond);
    while (h1.entity.sink(vc) && h1.entity.sink(vc)->receive()) {
    }
  }
  EXPECT_FALSE(initiator.qos_reports.empty());
}

TEST(QosIndication, NoIndicationWithoutIndicateClass) {
  MonitoredWorld w;
  auto& h0 = *w.star.leaves[0];
  auto& h1 = *w.star.leaves[1];
  auto req = basic_request({h0.id, 10}, {h1.id, 20}, 25.0, 2048);
  req.sample_period = 500 * kMillisecond;
  req.service_class.error_control = ErrorControl::kNone;
  req.qos.preferred.packet_error_rate = 0.01;
  req.qos.worst.packet_error_rate = 0.01;
  const VcId vc = h0.entity.t_connect_request(req);
  w.star.platform.run_until(200 * kMillisecond);
  auto* source = h0.entity.source(vc);
  ASSERT_NE(source, nullptr);

  w.star.platform.network().link(h0.id, w.star.hub->id)->set_loss_rate(0.5);
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 5; ++i) (void)source->submit(std::vector<std::uint8_t>(500, 1));
    w.star.platform.run_until(w.star.platform.scheduler().now() + 200 * kMillisecond);
    while (h1.entity.sink(vc) && h1.entity.sink(vc)->receive()) {
    }
  }
  EXPECT_TRUE(w.dst_user->qos_reports.empty());
}

}  // namespace
}  // namespace cmtos::test
