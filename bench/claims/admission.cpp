// A4 — §3.2/§7 substrate ablation: network-level resource reservation
// (the ST-II analogue) on vs off.  "A second assumption is that ... a
// network level resource reservation protocol such as ST-II or SRP will
// need to be used to guarantee resources in intermediate nodes."
//
// An offered-load sweep over a shared 10 Mbit/s bottleneck: with admission
// control excess connects are refused and admitted streams keep their
// QoS; without it everything is "accepted" and every stream's QoS
// collapses together.

#include "claims.h"

namespace cmtos::bench {
namespace {

struct LoadResult {
  int accepted = 0;
  double mean_goodput_frac = 0;  // delivered/expected for accepted streams
  double worst_goodput_frac = 1;
  std::int64_t queue_drops = 0;
};

LoadResult run(std::uint64_t seed, int offered_streams, bool admission) {
  platform::Platform p(seed);
  auto& src_host = p.add_host("servers");
  auto& hub = p.add_host("hub");
  auto& dst_host = p.add_host("sinks");
  p.network().add_link(src_host.id, hub.id, lan_link());
  p.network().add_link(hub.id, dst_host.id, lan_link());  // 10 Mbit/s bottleneck
  p.network().finalize_routes();
  p.network().set_admission_control(admission);

  // Each stream: 25/s x 8 KiB ~ 1.7 Mbit/s.  Five would fit in the 9 Mbit/s
  // reservable; with each VC's control allowance four do.
  std::vector<std::unique_ptr<AutoUser>> users;
  std::vector<transport::VcId> vcs;
  LoadResult r;
  for (int i = 0; i < offered_streams; ++i) {
    users.push_back(std::make_unique<AutoUser>(src_host.entity));
    src_host.entity.bind(static_cast<net::Tsap>(10 + i), users.back().get());
    users.push_back(std::make_unique<AutoUser>(dst_host.entity));
    dst_host.entity.bind(static_cast<net::Tsap>(10 + i), users.back().get());
    auto req = basic_request({src_host.id, static_cast<net::Tsap>(10 + i)},
                             {dst_host.id, static_cast<net::Tsap>(10 + i)}, 25.0, 8192);
    req.qos.worst.osdu_rate = 25.0;  // all-or-nothing: no degraded admission
    vcs.push_back(src_host.entity.t_connect_request(req));
  }
  p.run_until(kSecond);

  std::vector<transport::Connection*> sources, sinks;
  for (auto vc : vcs) {
    if (auto* s = src_host.entity.source(vc)) {
      sources.push_back(s);
      sinks.push_back(dst_host.entity.sink(vc));
      ++r.accepted;
    }
  }
  if (sources.empty()) return r;

  // Saturate all accepted streams for 20 s.
  const Duration play = 20 * kSecond;
  std::vector<std::int64_t> delivered(sources.size(), 0);
  const Time t0 = p.scheduler().now();
  while (p.scheduler().now() < t0 + play) {
    for (auto* s : sources) {
      while (s->submit(std::vector<std::uint8_t>(8192, 1))) {
      }
    }
    p.run_until(p.scheduler().now() + 40 * kMillisecond);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      while (sinks[i]->receive()) ++delivered[i];
    }
  }

  const double expected = 25.0 * to_seconds(play);
  double acc = 0;
  for (std::int64_t d : delivered) {
    const double frac = static_cast<double>(d) / expected;
    acc += frac;
    r.worst_goodput_frac = std::min(r.worst_goodput_frac, frac);
  }
  r.mean_goodput_frac = acc / static_cast<double>(delivered.size());
  r.queue_drops = p.network().link(hub.id, dst_host.id)->stats().dropped_queue_overflow +
                  p.network().link(src_host.id, hub.id)->stats().dropped_queue_overflow;
  return r;
}

void sweep_row(std::uint64_t seed, Oracle& check) {
  // Without reservation, beyond capacity the bottleneck queue overflows
  // and every stream's goodput collapses together.
  const struct {
    int offered;
    double worst_goodput;
    std::int64_t queue_drops;
  } collapse[] = {{8, 0.016, 6764}, {12, 0.006, 18769}};
  row("%-10s %-12s %10s %16s %16s %14s", "offered", "admission", "accepted", "mean goodput %",
      "worst goodput %", "queue drops");
  for (int offered : {2, 5, 8, 12}) {
    for (bool admission : {true, false}) {
      const auto r = run(seed, offered, admission);
      row("%-10d %-12s %10d %16.1f %16.1f %14lld", offered, admission ? "on" : "off",
          r.accepted, r.mean_goodput_frac * 100, r.worst_goodput_frac * 100,
          static_cast<long long>(r.queue_drops));
      const obs::Labels labels = {{"offered", std::to_string(offered)},
                                  {"admission", admission ? "on" : "off"}};
      headline("admission.accepted", r.accepted, labels);
      headline("admission.worst_goodput_frac", r.worst_goodput_frac, labels);
      const std::string at = " with " + std::to_string(offered) + " offered, admission " +
                             (admission ? "on" : "off");
      if (admission) {
        // Acceptance caps at the link's reservable capacity and every
        // admitted stream keeps its contract.
        check.near("accepted" + at, r.accepted, std::min(offered, 4), 0);
        check.at_least("worst stream goodput" + at, r.worst_goodput_frac, 0.997);
        check.near("queue drops" + at, static_cast<double>(r.queue_drops), 0, 0);
      } else {
        check.near("everything accepted" + at, r.accepted, offered, 0);
        for (const auto& c : collapse) {
          if (c.offered != offered) continue;
          check.near("worst stream goodput" + at, r.worst_goodput_frac, c.worst_goodput, 0.0005);
          check.near("queue drops" + at, static_cast<double>(r.queue_drops),
                     static_cast<double>(c.queue_drops), 0);
        }
      }
    }
  }
}

}  // namespace

std::vector<Claim> admission_claims() {
  return {
      {"admission.sweep", "§3.2/§7 substrate (ST-II analogue): admission control on vs off", 91,
       sweep_row},
  };
}

}  // namespace cmtos::bench
