// T1/F2/F3 — connection establishment (Table 1, Figs 2-3): direct vs
// remote (three-party) connect latency against hop count, release from
// either end, and QoS option negotiation under contention.  The chain
// links are loss-free: the oracles are exact.

#include "claims.h"

namespace cmtos::bench {
namespace {

/// One control round trip over a 10 Mbit/s, 1 ms hop: twice the 1 ms
/// propagation plus the serialisation of one control TPDU.
constexpr double kHopRttMs = 2.544;

/// Chain topology: h0 - h1 - ... - h{n}; the management host (the remote
/// initiator) hangs off the chain head.
struct Chain {
  Chain(std::size_t hops, std::uint64_t seed) : platform(seed) {
    for (std::size_t i = 0; i <= hops; ++i)
      hosts.push_back(&platform.add_host("h" + std::to_string(i)));
    mgmt = &platform.add_host("mgmt");
    for (std::size_t i = 0; i + 1 <= hops; ++i)
      platform.network().add_link(hosts[i]->id, hosts[i + 1]->id, lan_link());
    platform.network().add_link(mgmt->id, hosts[0]->id, lan_link());
    platform.network().finalize_routes();
  }
  platform::Platform platform;
  std::vector<platform::Host*> hosts;
  platform::Host* mgmt = nullptr;
};

/// An AutoUser that timestamps its T-Connect.confirm.
struct TimedUser : AutoUser {
  TimedUser(transport::TransportEntity& entity, platform::Platform& p)
      : AutoUser(entity), platform(&p) {}
  void t_connect_confirm(transport::VcId vc, const transport::QosParams& q) override {
    AutoUser::t_connect_confirm(vc, q);
    confirmed_at = platform->scheduler().now();
  }
  platform::Platform* platform;
  Time confirmed_at = 0;
};

/// Connect latency from source at the chain head to sink at its tail;
/// `remote` initiates from the management host (Fig 2).  -1 when the
/// connect never confirmed.
double connect_ms(std::size_t hops, bool remote, std::uint64_t seed) {
  Chain c(hops, seed);
  AutoUser src(c.hosts[0]->entity), dst(c.hosts[hops]->entity);
  c.hosts[hops]->entity.bind(2, &dst);
  platform::Host* init_host = remote ? c.mgmt : c.hosts[0];
  TimedUser initiator(init_host->entity, c.platform);
  const net::Tsap init_tsap = remote ? 3 : 1;
  c.hosts[0]->entity.bind(1, remote ? static_cast<transport::TransportUser*>(&src) : &initiator);
  if (remote) c.mgmt->entity.bind(3, &initiator);
  auto req = basic_request({c.hosts[0]->id, 1}, {c.hosts[hops]->id, 2});
  req.initiator = {init_host->id, init_tsap};
  const Time t0 = c.platform.scheduler().now();
  init_host->entity.t_connect_request(req);
  c.platform.run_until(5 * kSecond);
  return initiator.confirmed ? to_millis(initiator.confirmed_at - t0) : -1;
}

void latency_row(std::uint64_t seed, Oracle& check) {
  row("%-10s %-10s %18s", "hops", "mode", "connect (ms)");
  for (std::size_t hops : {1u, 2u, 4u, 8u}) {
    for (bool remote : {false, true}) {
      const char* mode = remote ? "remote" : "direct";
      const double ms = connect_ms(hops, remote, seed);
      row("%-10zu %-10s %18.3f", hops, mode, ms);
      headline("connect.latency_ms", ms, {{"hops", std::to_string(hops)}, {"mode", mode}});
      // Direct: one RTT over the path.  Remote adds the initiator->source
      // leg and the source user's consent step: one more hop RTT (Fig 3).
      check.near(std::string(mode) + " connect over " + std::to_string(hops) + " hops (ms)", ms,
                 kHopRttMs * static_cast<double>(hops + (remote ? 1 : 0)));
    }
  }
}

void release_row(std::uint64_t seed, Oracle& check) {
  for (bool remote : {false, true}) {
    Chain c(2, seed);
    AutoUser src(c.hosts[0]->entity), dst(c.hosts[2]->entity);
    c.hosts[0]->entity.bind(1, &src);
    c.hosts[2]->entity.bind(2, &dst);
    const auto vc = c.hosts[0]->entity.t_connect_request(
        basic_request({c.hosts[0]->id, 1}, {c.hosts[2]->id, 2}));
    c.platform.run_until(kSecond);
    const bool opened = c.hosts[2]->entity.sink(vc) != nullptr;
    if (remote) {
      // Remote release from the management host (§4.1.1): the source
      // device user is indicated and then releases itself.
      c.mgmt->entity.t_remote_disconnect_request(vc, {c.hosts[0]->id, 1});
      c.platform.run_until(c.platform.scheduler().now() + 100 * kMillisecond);
    }
    c.hosts[0]->entity.t_disconnect_request(vc);
    c.platform.run_until(c.platform.scheduler().now() + 2 * kSecond);
    // Released when the sink endpoint is gone.
    const bool gone = c.hosts[2]->entity.sink(vc) == nullptr;
    const char* mode = remote ? "remote" : "local";
    row("%-10s release completed: %s", mode, opened && gone ? "yes" : "NO");
    check.holds(std::string(mode) + " release tears down the sink endpoint", opened && gone);
  }
}

void negotiation_row(std::uint64_t seed, Oracle& check) {
  Chain c(1, seed);
  AutoUser src(c.hosts[0]->entity), dst(c.hosts[1]->entity);
  c.hosts[0]->entity.bind(1, &src);
  c.hosts[1]->entity.bind(2, &dst);
  row("%-10s %16s %16s %14s", "connect#", "agreed rate/s", "agreed Mbit/s", "outcome");
  // connect# -> agreed rate (0 = rejected with no-resources).
  const double expect_rate[] = {15.0, 15.0, 1.39, 0, 0, 0};
  for (int i = 0; i < 6; ++i) {
    AutoUser user(c.hosts[0]->entity);
    c.hosts[0]->entity.bind(static_cast<net::Tsap>(10 + i), &user);
    auto req = basic_request({c.hosts[0]->id, static_cast<net::Tsap>(10 + i)},
                             {c.hosts[1]->id, 2}, 15.0, 32 * 1024);  // ~4.2 Mbit/s preferred
    req.qos.worst.osdu_rate = 1.0;
    c.hosts[0]->entity.t_connect_request(req);
    c.platform.run_until(c.platform.scheduler().now() + kSecond);
    const std::string what = "connect #" + std::to_string(i);
    if (user.confirmed) {
      row("%-10d %16.2f %16.2f %14s", i, user.agreed.osdu_rate,
          static_cast<double>(user.agreed.required_bps()) / 1e6, "accepted");
      check.near(what + " agreed rate", user.agreed.osdu_rate, expect_rate[i], 0.005);
    } else {
      row("%-10d %16s %16s %14s", i, "-", "-", transport::to_string(user.reason).c_str());
      check.holds(what + " rejected only once even the worst level does not fit",
                  expect_rate[i] == 0 &&
                      user.reason == transport::DisconnectReason::kNoResources);
    }
  }
}

}  // namespace

std::vector<Claim> connect_claims() {
  return {
      {"connect.latency", "Table 1 + Figs 2/3: direct vs remote (three-party) connect latency",
       11, latency_row},
      {"connect.release", "Table 1: T-Disconnect, local and remote release", 11, release_row},
      {"connect.negotiation",
       "Table 1 (QoS tolerance levels): option negotiation under contention", 11, negotiation_row},
  };
}

}  // namespace cmtos::bench
