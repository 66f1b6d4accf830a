// A2 — §7 ablation: rate-based vs window-based flow control for
// continuous media.  "We have found rate-based flow control to be
// admirably suited for transporting CM.  Attractive characteristics
// include the de-coupling of flow control from the error control
// mechanism, and the natural correspondence between the notions of
// continuous data flow and rate controlled transmission."

#include "claims.h"

namespace cmtos::bench {
namespace {

using transport::ProtocolProfile;

struct RunStats {
  SampleSet inter_delivery_ms;
  SampleSet ring_occupancy;
  double delivered_rate = 0;
  std::int64_t retransmissions = 0;
  Duration max_gap = 0;
};

/// A 25 OSDU/s stream of 4 KiB OSDUs with the error-correcting class,
/// offered as fast as the profile accepts, for 30 s.
RunStats run(std::uint64_t seed, ProtocolProfile profile, double loss) {
  const Duration play = 30 * kSecond;
  net::LinkConfig link = lan_link();
  link.loss_rate = loss;
  platform::Platform p(seed);
  auto& a = p.add_host("src");
  auto& b = p.add_host("dst");
  p.network().add_link(a.id, b.id, link);
  p.network().finalize_routes();

  AutoUser src_user(a.entity), dst_user(b.entity);
  a.entity.bind(1, &src_user);
  b.entity.bind(2, &dst_user);
  auto req = basic_request({a.id, 1}, {b.id, 2}, 25.0, 4096);
  req.service_class.profile = profile;
  req.service_class.error_control = transport::ErrorControl::kCorrect;
  req.buffer_osdus = 16;
  const auto vc = a.entity.t_connect_request(req);
  p.run_until(3 * kSecond);

  RunStats st;
  auto* source = a.entity.source(vc);
  auto* sink = b.entity.sink(vc);
  if (source == nullptr || sink == nullptr) return st;

  Time last_delivery = 0;
  std::int64_t delivered = 0;
  const Time t0 = p.scheduler().now();
  while (p.scheduler().now() < t0 + play) {
    while (source->submit(std::vector<std::uint8_t>(4096, 1))) {
    }
    p.run_until(p.scheduler().now() + 10 * kMillisecond);
    st.ring_occupancy.add(static_cast<double>(sink->buffer().size()));
    while (sink->receive()) {
      const Time now = p.scheduler().now();
      if (last_delivery != 0) {
        st.inter_delivery_ms.add(to_millis(now - last_delivery));
        st.max_gap = std::max(st.max_gap, now - last_delivery);
      }
      last_delivery = now;
      ++delivered;
    }
  }
  st.delivered_rate = static_cast<double>(delivered) / to_seconds(play);
  st.retransmissions = source->stats().tpdus_retransmitted;
  return st;
}

constexpr ProtocolProfile kProfiles[] = {ProtocolProfile::kRateBasedCm,
                                          ProtocolProfile::kWindowBased};

const char* name(ProtocolProfile p) {
  return p == ProtocolProfile::kRateBasedCm ? "rate-based" : "window (GBN)";
}

void smoothness_row(std::uint64_t seed, Oracle& check) {
  row("%-14s %12s %12s %12s %12s %12s", "profile", "rate/s", "mean ms", "stddev ms", "p99 ms",
      "max ms");
  RunStats st[2];
  for (int i = 0; i < 2; ++i) {
    st[i] = run(seed, kProfiles[i], 0.0);
    row("%-14s %12.2f %12.2f %12.2f %12.2f %12.2f", name(kProfiles[i]), st[i].delivered_rate,
        st[i].inter_delivery_ms.mean(), st[i].inter_delivery_ms.stddev(),
        st[i].inter_delivery_ms.percentile(99), st[i].inter_delivery_ms.max());
    headline("rate_vs_window.inter_delivery_stddev_ms", st[i].inter_delivery_ms.stddev(),
             {{"profile", name(kProfiles[i])}});
  }
  const RunStats& rate = st[0];
  const RunStats& window = st[1];
  // The rate profile spaces deliveries at exactly the contract period; the
  // window profile has no notion of the media rate and runs at whatever the
  // ack clock allows, in bursts.
  check.near("rate-based delivery rate (1/s)", rate.delivered_rate, 25.0, 0.005);
  check.near("rate-based inter-delivery mean (ms)", rate.inter_delivery_ms.mean(), 40.0, 0.005);
  check.near("rate-based inter-delivery stddev (ms)", rate.inter_delivery_ms.stddev(), 0.0,
             0.005);
  check.at_least("window profile ignores the media rate (x contract rate)",
                 window.delivered_rate / 25.0, 10);
}

void loss_row(std::uint64_t seed, Oracle& check) {
  row("%-14s %-8s %12s %12s %14s %14s", "profile", "loss", "rate/s", "stddev ms", "max gap ms",
      "retransmits");
  for (double loss : {0.02, 0.05, 0.10}) {
    RunStats st[2];
    for (int i = 0; i < 2; ++i) {
      st[i] = run(seed, kProfiles[i], loss);
      row("%-14s %-8.2f %12.2f %12.2f %14.1f %14lld", name(kProfiles[i]), loss,
          st[i].delivered_rate, st[i].inter_delivery_ms.stddev(), to_millis(st[i].max_gap),
          static_cast<long long>(st[i].retransmissions));
    }
    const RunStats& rate = st[0];
    const RunStats& window = st[1];
    // Go-back-N couples error control to flow control: every loss stalls
    // the window and resends it.  Selective NAK recovery keeps the rate
    // profile moving with gaps of a few OSDU periods.
    const std::string at = " at " + pct(loss) + " loss";
    check.at_least("go-back-N max gap over 4x the rate profile's" + at,
                   to_millis(window.max_gap), 4 * to_millis(rate.max_gap));
    check.at_least("go-back-N retransmits over 20x the rate profile's" + at,
                   static_cast<double>(window.retransmissions),
                   20.0 * static_cast<double>(rate.retransmissions));
  }
}

void occupancy_row(std::uint64_t seed, Oracle& check) {
  row("%-14s %-8s %14s %14s", "profile", "loss", "mean depth", "stddev depth");
  for (double loss : {0.0, 0.05}) {
    RunStats st[2];
    for (int i = 0; i < 2; ++i) {
      st[i] = run(seed, kProfiles[i], loss);
      row("%-14s %-8.2f %14.2f %14.2f", name(kProfiles[i]), loss, st[i].ring_occupancy.mean(),
          st[i].ring_occupancy.stddev());
    }
    const RunStats& rate = st[0];
    const RunStats& window = st[1];
    // Smooth arrivals keep the rate profile's ring level under one OSDU
    // whatever the loss; the window profile's level swings with its
    // retransmission bursts once the link loses packets.
    const std::string at = " at " + pct(loss) + " loss";
    check.at_most("rate profile ring stays under one OSDU deep" + at, rate.ring_occupancy.mean(),
                  1.0);
    check.at_most("rate profile ring depth stddev" + at, rate.ring_occupancy.stddev(), 0.5);
    if (loss > 0)
      check.at_least("window ring depth varies more than the rate profile's" + at,
                     window.ring_occupancy.stddev(), rate.ring_occupancy.stddev());
  }
}

void dataplane_row(std::uint64_t seed, Oracle& check) {
  row("%-14s %14s %14s %16s %16s", "profile", "delivered", "OSDU/wall-s", "MB/wall-s",
      "allocs/OSDU");
  std::int64_t delivered[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const ProtocolProfile profile = kProfiles[i];
    const auto r = pump(seed, profile);
    const double osdus_per_s = static_cast<double>(r.delivered) / std::max(1e-9, r.wall_s);
    const double mb_per_s =
        static_cast<double>(r.delivered_bytes) / 1e6 / std::max(1e-9, r.wall_s);
    row("%-14s %14lld %14.0f %16.1f %16.1f", name(profile), static_cast<long long>(r.delivered),
        osdus_per_s, mb_per_s, r.allocs_per_osdu);
    headline("rate_vs_window.dataplane_osdus_per_wall_s", osdus_per_s,
             {{"profile", name(profile)}});
    headline("rate_vs_window.dataplane_mbytes_per_wall_s", mb_per_s, {{"profile", name(profile)}});
    headline("rate_vs_window.dataplane_allocs_per_osdu", r.allocs_per_osdu,
             {{"profile", name(profile)}});
    delivered[i] = r.delivered;
  }
  // Over a fat clean link the rate profile carries the full 250/s; the
  // window profile's ack clock stalls on the 64 KiB OSDUs' fragment bursts.
  check.near("rate profile OSDUs delivered in 8 s", static_cast<double>(delivered[0]), 2001, 0);
  check.near("window profile OSDUs delivered in 8 s", static_cast<double>(delivered[1]), 109, 0);
}

}  // namespace

std::vector<Claim> rate_vs_window_claims() {
  return {
      {"rate_vs_window.smoothness", "§7 rate-based assumption: delivery spacing on a clean link",
       81, smoothness_row},
      {"rate_vs_window.loss", "§7: rate-based vs go-back-N flow control under loss", 81, loss_row},
      {"rate_vs_window.occupancy", "§7: receive-ring occupancy, smooth vs bursty arrivals", 81,
       occupancy_row},
      {"rate_vs_window.dataplane", "data-plane cost per OSDU and profile: 64 KiB at 250/s", 83,
       dataplane_row},
  };
}

}  // namespace cmtos::bench
