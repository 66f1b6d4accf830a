// Federated HLO tests (orch/federation): a two-level orchestration tree
// where domain agents regulate their own VCs and push one DomainAggregate
// per interval to the root.  Acceptance: the root's workload is
// O(domains) aggregates — never the per-VC report firehose — and a domain
// orchestrator's death is absorbed inside that domain (failover + epoch
// fencing compose per domain) while the rest of the federation never
// notices.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"
#include "orch/failover.h"
#include "orch/federation.h"
#include "util/rng.h"

namespace cmtos::test {
namespace {

using media::RenderConfig;
using media::RenderingSink;
using media::StoredMediaServer;
using media::TrackConfig;
using orch::FederatedHlo;
using orch::FederationPolicy;

// Three domains with distinct orchestrating nodes:
//   domain 0: srv1->wsB, srv1->wsC, srv2->wsC  (no common node; the §7
//             extension elects wsC, and killing wsC leaves a survivor so
//             failover re-elects instead of orphaning)
//   domain 1: srv1->ws1 x2                     (sink tie-break elects ws1)
//   domain 2: srv1->ws2 x2                     (elects ws2)
struct FedWorld {
  FedWorld() : star(6, lan_link(), 29) {
    p = &star.platform;
    srv1 = star.leaves[0];
    srv2 = star.leaves[1];
    wsB = star.leaves[2];
    wsC = star.leaves[3];
    ws1 = star.leaves[4];
    ws2 = star.leaves[5];
    server1 = std::make_unique<StoredMediaServer>(*p, *srv1, "srv1");
    server2 = std::make_unique<StoredMediaServer>(*p, *srv2, "srv2");

    platform::Host* const sink_host[7] = {wsB, wsC, wsC, ws1, ws1, ws2, ws2};
    int connected = 0;
    for (int i = 0; i < 7; ++i) {
      StoredMediaServer& server = (i == 2) ? *server2 : *server1;
      platform::Host& src_host = (i == 2) ? *srv2 : *srv1;
      TrackConfig track;
      track.track_id = static_cast<std::uint32_t>(i + 1);
      track.vbr.base_bytes = 512;
      const auto src = server.add_track(static_cast<net::Tsap>(100 + i), track);
      RenderConfig rc;
      rc.expect_track = track.track_id;
      sinks.push_back(std::make_unique<RenderingSink>(*p, *sink_host[i],
                                                      static_cast<net::Tsap>(200 + i), rc));
      streams.push_back(
          std::make_unique<platform::Stream>(*p, src_host, "s" + std::to_string(i)));
      streams.back()->set_buffer_osdus(8);
      platform::VideoQos vq;
      vq.frames_per_second = 10;
      streams.back()->connect(src, {sink_host[i]->id, static_cast<net::Tsap>(200 + i)},
                              platform::MediaQos{vq}, {},
                              [&](bool ok, auto) { connected += ok; });
    }
    p->run_until(kSecond);
    EXPECT_EQ(connected, 7);

    FederationPolicy fp;
    fp.domain.interval = 100 * kMillisecond;
    fp.domain.allow_no_common_node = true;
    fed = std::make_unique<FederatedHlo>(p->orchestrator(), fp);

    bool established = false;
    const bool created = fed->orchestrate(
        {{streams[0]->orch_spec(2), streams[1]->orch_spec(2), streams[2]->orch_spec(2)},
         {streams[3]->orch_spec(2), streams[4]->orch_spec(2)},
         {streams[5]->orch_spec(2), streams[6]->orch_spec(2)}},
        [&](bool ok, auto) { established = ok; });
    EXPECT_TRUE(created);
    if (!created) return;
    EXPECT_EQ(fed->domain_count(), 3u);
    if (fed->domain_count() != 3u) return;
    EXPECT_EQ(fed->domain(0)->orchestrating_node(), wsC->id);
    EXPECT_EQ(fed->domain(1)->orchestrating_node(), ws1->id);
    EXPECT_EQ(fed->domain(2)->orchestrating_node(), ws2->id);
    p->run_until(1500 * kMillisecond);
    EXPECT_TRUE(established);

    bool primed = false, started = false;
    fed->prime(false, [&](bool ok, auto) { primed = ok; });
    p->run_until(2500 * kMillisecond);
    EXPECT_TRUE(primed);
    fed->start([&](bool ok, auto) { started = ok; });
    p->run_until(3 * kSecond);
    EXPECT_TRUE(started);
  }

  StarPlatform star;
  platform::Platform* p = nullptr;
  platform::Host* srv1 = nullptr;
  platform::Host* srv2 = nullptr;
  platform::Host* wsB = nullptr;
  platform::Host* wsC = nullptr;
  platform::Host* ws1 = nullptr;
  platform::Host* ws2 = nullptr;
  std::unique_ptr<StoredMediaServer> server1, server2;
  std::vector<std::unique_ptr<RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::unique_ptr<FederatedHlo> fed;
};

TEST(Federation, RootProcessesAggregatesNotPerVcReports) {
  FedWorld w;
  w.p->run_until(10 * kSecond);

  // ~7 s of regulation at 10 intervals/s: each domain pushed ~70 digests.
  const std::uint64_t root_agg = w.fed->root_aggregates_processed();
  EXPECT_GT(root_agg, 60u);

  // The per-VC firehose stayed inside the domains: 7 VCs' worth of reports
  // were processed by domain agents, while the root ingested only the 3
  // per-domain digests per interval.
  std::uint64_t domain_reports = 0;
  for (std::size_t i = 0; i < w.fed->domain_count(); ++i) {
    EXPECT_GT(w.fed->domain_reports_processed(i), 0u) << "domain " << i;
    domain_reports += w.fed->domain_reports_processed(i);
  }
  EXPECT_GT(domain_reports, 2 * root_agg);

  // Aggregates account for every report: nothing bypassed the digests.
  EXPECT_GE(obs::Registry::global().counter("fed.root_aggregates").value(),
            static_cast<std::int64_t>(root_agg));

  // The root's steering stays inside the imperceptibility clamp, and the
  // federation is aligned: domains started together and the outer loop
  // keeps their mean positions within a fraction of a second.
  for (std::size_t i = 0; i < w.fed->domain_count(); ++i) {
    EXPECT_GE(w.fed->domain_rate_scale(i), 0.95) << "domain " << i;
    EXPECT_LE(w.fed->domain_rate_scale(i), 1.05) << "domain " << i;
  }
  EXPECT_LT(w.fed->max_domain_skew_s(), 0.5);
  EXPECT_LT(obs::Registry::global().gauge("fed.max_domain_skew_s").value(), 0.5);
}

TEST(Federation, StopBarrierFreezesEveryDomain) {
  FedWorld w;
  w.p->run_until(6 * kSecond);

  bool stopped = false;
  w.fed->stop([&](bool ok, auto) { stopped = ok; });
  w.p->run_until(7 * kSecond);
  EXPECT_TRUE(stopped);

  // No domain regulates after the stop barrier, so the aggregate flow — the
  // root's only input — goes quiet too.
  const std::uint64_t agg_after_stop = w.fed->root_aggregates_processed();
  w.p->run_until(9 * kSecond);
  EXPECT_EQ(w.fed->root_aggregates_processed(), agg_after_stop);
}

TEST(Federation, DomainOrchestratorDeathIsolatedToItsDomain) {
  FedWorld w;
  auto fleet = std::make_unique<orch::FailoverFleet>(
      w.p->scheduler(), w.p->orchestrator(),
      [&](net::NodeId n) { return &w.p->host(n).llo; },
      [&](net::NodeId n) { return w.p->node_alive(n); });
  w.fed->adopt_failover(*fleet);
  EXPECT_EQ(fleet->session_count(), 3u);
  w.p->run_until(5 * kSecond);

  const std::uint64_t d1_before = w.fed->domain_reports_processed(1);
  const std::uint64_t d2_before = w.fed->domain_reports_processed(2);

  // Kill domain 0's orchestrating node.  Its survivors re-elect wsB within
  // the domain; domains 1 and 2 must never notice.
  w.p->network().set_node_up(w.wsC->id, false);
  w.p->run_until(12 * kSecond);

  EXPECT_EQ(fleet->supervisor(0).failovers(), 1);
  EXPECT_FALSE(fleet->supervisor(0).orphaned());
  ASSERT_NE(w.fed->domain(0), nullptr);
  EXPECT_EQ(w.fed->domain(0)->orchestrating_node(), w.wsB->id);
  EXPECT_EQ(fleet->supervisor(1).failovers(), 0);
  EXPECT_EQ(fleet->supervisor(2).failovers(), 0);
  EXPECT_EQ(fleet->orphaned(), 0);

  // The other domains kept regulating throughout...
  EXPECT_GT(w.fed->domain_reports_processed(1), d1_before);
  EXPECT_GT(w.fed->domain_reports_processed(2), d2_before);

  // ...and the replacement domain-0 agent was re-wired into the root: its
  // aggregates flow again after the failover.
  const std::uint64_t agg_mark = w.fed->root_aggregates_processed();
  const std::uint64_t d0_mark = w.fed->domain_reports_processed(0);
  w.p->run_until(14 * kSecond);
  EXPECT_GT(w.fed->root_aggregates_processed(), agg_mark);
  EXPECT_GT(w.fed->domain_reports_processed(0), d0_mark);
}

// A reduced federated city: a core switch and 12 districts of one media
// server and two workstations, one 10 fps stream per workstation, one
// FederatedHlo domain per district.  The district servers' clocks drift
// over +/-2000 ppm (the seed picks which district gets which drift), so
// left alone the domains drift apart by up to 0.4 s per 100 s.
struct DriftCity {
  static constexpr int kDistricts = 12;
  static constexpr int kWs = 2;
  static constexpr double kMaxDriftPpm = 2000;

  explicit DriftCity(std::uint64_t seed) : p(seed), rng(seed ^ 0xd21f7ull) {
    std::vector<double> drift(kDistricts);
    for (int d = 0; d < kDistricts; ++d)
      drift[static_cast<std::size_t>(d)] = -kMaxDriftPpm + 2 * kMaxDriftPpm * d / (kDistricts - 1);
    for (int d = kDistricts - 1; d > 0; --d)
      std::swap(drift[static_cast<std::size_t>(d)],
                drift[static_cast<std::size_t>(rng.uniform(0, d))]);
    const auto link = [&](net::NodeId a, net::NodeId b, std::int64_t bps) {
      net::LinkConfig cfg;
      cfg.bandwidth_bps = bps;
      cfg.propagation_delay = 1 * kMillisecond + rng.uniform(0, 50) * kMicrosecond;
      p.network().add_link(a, b, cfg);
    };
    auto& core = p.add_host("core");
    std::vector<platform::Host*> srv, ws;
    for (int d = 0; d < kDistricts; ++d) {
      const std::string dn = "d" + std::to_string(d);
      auto& hub = p.add_host(dn + "-hub");
      srv.push_back(&p.add_host(dn + "-srv",
                                sim::LocalClock(0, drift[static_cast<std::size_t>(d)])));
      link(core.id, hub.id, 100'000'000);
      link(hub.id, srv.back()->id, 10'000'000);
      for (int w = 0; w < kWs; ++w) {
        ws.push_back(&p.add_host(dn + "-ws" + std::to_string(w)));
        link(hub.id, ws.back()->id, 10'000'000);
      }
    }
    p.network().finalize_routes();

    int connected = 0;
    platform::VideoQos vq;
    vq.frames_per_second = 10;
    for (int d = 0; d < kDistricts; ++d) {
      servers.push_back(std::make_unique<StoredMediaServer>(p, *srv[static_cast<std::size_t>(d)],
                                                            "store" + std::to_string(d)));
      for (int w = 0; w < kWs; ++w) {
        const auto i = static_cast<std::size_t>(d * kWs + w);
        TrackConfig track;
        track.track_id = static_cast<std::uint32_t>(i + 1);
        track.vbr.base_bytes = 512;
        const auto src = servers.back()->add_track(static_cast<net::Tsap>(100 + w), track);
        RenderConfig rc;
        rc.expect_track = track.track_id;
        sinks.push_back(std::make_unique<RenderingSink>(p, *ws[i], net::Tsap{200}, rc));
        streams.push_back(std::make_unique<platform::Stream>(p, *ws[i], "s" + std::to_string(i)));
        streams.back()->set_buffer_osdus(8);
        streams.back()->connect(src, {ws[i]->id, net::Tsap{200}}, platform::MediaQos{vq}, {},
                                [&](bool ok, auto) { connected += ok; });
      }
    }
    p.run_until(2 * kSecond);
    EXPECT_EQ(connected, kDistricts * kWs);

    FederationPolicy fp;
    fp.domain.interval = 100 * kMillisecond;
    fp.domain.allow_no_common_node = true;
    fed = std::make_unique<FederatedHlo>(p.orchestrator(), fp);
    std::vector<std::vector<orch::OrchStreamSpec>> domains(kDistricts);
    for (std::size_t i = 0; i < streams.size(); ++i)
      domains[i / kWs].push_back(streams[i]->orch_spec(2));
    bool established = false, primed = false, started = false;
    EXPECT_TRUE(fed->orchestrate(std::move(domains), [&](bool ok, auto) { established = ok; }));
    p.run_until(4 * kSecond);
    fed->prime(false, [&](bool ok, auto) { primed = ok; });
    p.run_until(6 * kSecond);
    fed->start([&](bool ok, auto) { started = ok; });
    p.run_until(7 * kSecond);
    EXPECT_TRUE(established && primed && started);
  }

  platform::Platform p;
  Rng rng;
  std::vector<std::unique_ptr<StoredMediaServer>> servers;
  std::vector<std::unique_ptr<RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  std::unique_ptr<FederatedHlo> fed;
};

// The root bends a drifted domain's rate by at most 5 %, which rounds away
// against a one-OSDU interval target unless it is carried across intervals.
// Once the prime buffers drain (after about 300 s) the slow-clock domains
// fall behind; with the carried bend they catch up by dropping at source,
// and the federation stays aligned for 15 simulated minutes.
class FederationDrift : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FederationDrift, CityStaysAlignedForFifteenMinutes) {
  const std::uint64_t seed = GetParam();
  DriftCity c(seed);
  const std::int64_t drops0 = obs::Registry::global().total("orch.osdus_dropped");
  double domain_skew = 0;
  for (Time t = 10 * kSecond; t <= 907 * kSecond; t += 500 * kMillisecond) {
    c.p.run_until(t);
    domain_skew = std::max(domain_skew, c.fed->max_domain_skew_s());
  }
  EXPECT_LT(domain_skew, 0.5);
  EXPECT_GT(obs::Registry::global().total("orch.osdus_dropped"), drops0) << "no domain caught up";
  // Every sink ends within one OSDU of every other.
  std::int64_t lo = c.sinks.front()->last_seq(), hi = lo;
  for (const auto& s : c.sinks) {
    lo = std::min(lo, s->last_seq());
    hi = std::max(hi, s->last_seq());
  }
  EXPECT_LE(hi - lo, 1);
  EXPECT_EQ(obs::Registry::global().total("contract.violations"), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationDrift, ::testing::Values(1u, 7u));

TEST(Federation, OrchestrateFailsClosedOnUnorchestratableDomain) {
  FedWorld w;
  // An empty domain has no electable node: the whole federated orchestrate
  // reports failure and retains nothing.
  FederationPolicy fp;
  FederatedHlo fed2(w.p->orchestrator(), fp);
  EXPECT_FALSE(fed2.orchestrate({{w.streams[0]->orch_spec(2)}, {}}, nullptr));
  EXPECT_EQ(fed2.domain_count(), 0u);
}

}  // namespace
}  // namespace cmtos::test
