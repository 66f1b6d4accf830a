// S1 — the scale-out core: flat tables, the per-shard event heap, 10k-VC
// churn and federated orchestration fan-in.
//
//   scale.tables      FlatMap vs std::map/unordered_map lookup at 10k
//                     entries, plus steady-state churn allocations (open
//                     addressing + slab freelist => near zero);
//   scale.timers      arm/cancel/fire cost with 10k armed timers on one
//                     shard's event heap (sim/node_runtime);
//   scale.churn       >= 10,000 concurrent transport VCs under
//                     connect/disconnect churn: per-VC heap bytes,
//                     allocations per churn op at two populations
//                     (flatness = scale independence), and data-plane
//                     cycles/OSDU with the full population resident;
//   scale.federation  domain HLOs digest per-VC regulation reports into
//                     per-interval aggregates; the root's intake is
//                     O(domains), verified by the report counters;
//   scale.shards      executor shard-head reads per fired event with 10 and
//                     1,000 idle shards beside one busy pair: idle shards
//                     cost nothing once their head-time bounds are exact.
//
// Nanosecond and cycle figures are wall-clock: printed and recorded, never
// gated.  Allocation, byte and head-read counts are deterministic and gated.

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

#include "alloc_hooks.h"
#include "claims.h"
#include "orch/federation.h"
#include "util/slot_table.h"

namespace cmtos::bench {
namespace {

// --- helpers -----------------------------------------------------------

/// splitmix64: deterministic key stream, independent of libstdc++ rand.
inline std::uint64_t mix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- section 1: table microbench ---------------------------------------

struct TableMicro {
  double flat_lookup_ns = 0;
  double map_lookup_ns = 0;
  double umap_lookup_ns = 0;
  double flat_churn_allocs_per_op = 0;
};

TableMicro run_table_micro(std::size_t entries, std::size_t lookups) {
  TableMicro r;
  std::vector<std::uint64_t> keys(entries);
  std::uint64_t seed = 0x5ca1ab1e;
  for (auto& k : keys) k = mix64(seed);

  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> unordered;
  for (std::size_t i = 0; i < entries; ++i) {
    flat.insert_or_assign(keys[i], i);
    ordered[keys[i]] = i;
    unordered[keys[i]] = i;
  }

  // `sink` is volatile so the lookup loops cannot be dead-code-eliminated.
  static volatile std::uint64_t sink = 0;
  auto probe = [&](auto& table) {
    std::uint64_t acc = 0;
    std::uint64_t s = 0xfeedface;
    const double secs = wall_seconds([&] {
      for (std::size_t i = 0; i < lookups; ++i) {
        const auto it = table.find(keys[mix64(s) % entries]);
        if (it != table.end()) acc += it->second;
      }
    });
    sink = sink ^ acc;
    return secs * 1e9 / static_cast<double>(lookups);
  };
  r.flat_lookup_ns = probe(flat);
  r.map_lookup_ns = probe(ordered);
  r.umap_lookup_ns = probe(unordered);

  // Steady-state churn: a sliding window of `entries` live keys, one
  // erase + one insert per op.  The slab freelist and tombstone reuse make
  // this allocation-free outside occasional amortised rehashes.
  const std::size_t churn_ops = 100'000;
  std::deque<std::uint64_t> window(keys.begin(), keys.end());
  std::uint64_t s = seed;
  const std::int64_t allocs0 = heap_allocs();
  for (std::size_t i = 0; i < churn_ops; ++i) {
    flat.erase(window.front());
    window.pop_front();
    const std::uint64_t k = mix64(s);
    window.push_back(k);
    flat.insert_or_assign(k, i);
  }
  r.flat_churn_allocs_per_op = static_cast<double>(heap_allocs() - allocs0) /
                               static_cast<double>(churn_ops);
  return r;
}

// --- section 2: timer microbench ---------------------------------------

struct TimerMicro {
  double arm_ns = 0;
  double cancel_ns = 0;
  double fire_ns = 0;
  std::size_t fired = 0;
};

TimerMicro run_timer_micro(std::size_t timers) {
  TimerMicro r;
  sim::Scheduler sched;
  std::vector<sim::EventHandle> handles;
  handles.reserve(timers);
  std::size_t fired = 0;
  std::uint64_t s = 0xdeadbeef;

  // Arm: delays spread from 1 ms to ~20 s.
  r.arm_ns = wall_seconds([&] {
    for (std::size_t i = 0; i < timers; ++i) {
      const Duration d = kMillisecond + static_cast<Duration>(mix64(s) % (20 * kSecond));
      handles.push_back(sched.after(d, [&fired] { ++fired; }));
    }
  }) * 1e9 / static_cast<double>(timers);
  // Cancel every other timer.
  r.cancel_ns = wall_seconds([&] {
    for (std::size_t i = 0; i < timers; i += 2) handles[i].cancel();
  }) * 1e9 / static_cast<double>(timers / 2);
  // Fire the survivors (includes reaping the cancelled entries).
  const double fire_secs = wall_seconds([&] { sched.run_until(21 * kSecond); });
  r.fired = fired;
  r.fire_ns = fire_secs * 1e9 / static_cast<double>(fired > 0 ? fired : 1);
  return r;
}

// --- section 3: 10k-VC churn macrobench --------------------------------

/// `pairs` host pairs, each carrying `vcs_per_pair` low-rate VCs, plus one
/// fat pump pair for the data-plane measurement.
struct ChurnWorld {
  ChurnWorld(std::size_t pairs, std::size_t per_pair, std::uint64_t seed)
      : platform(seed), vcs_per_pair(per_pair) {
    net::LinkConfig link;
    link.bandwidth_bps = 100'000'000;
    link.propagation_delay = 1 * kMillisecond;
    for (std::size_t i = 0; i < pairs; ++i) {
      auto& src = platform.add_host("src" + std::to_string(i));
      auto& dst = platform.add_host("dst" + std::to_string(i));
      platform.network().add_link(src.id, dst.id, link);
      srcs.push_back(&src);
      dsts.push_back(&dst);
    }
    pump_src = &platform.add_host("pump-src");
    pump_dst = &platform.add_host("pump-dst");
    platform.network().add_link(pump_src->id, pump_dst->id, pump_link());
    platform.network().finalize_routes();

    for (std::size_t i = 0; i < pairs; ++i) {
      src_users.push_back(std::make_unique<AutoUser>(srcs[i]->entity));
      dst_users.push_back(std::make_unique<AutoUser>(dsts[i]->entity));
      srcs[i]->entity.bind(1, src_users[i].get());
      dsts[i]->entity.bind(2, dst_users[i].get());
      live.emplace_back();
    }
  }

  /// One cheap audio-ish VC on pair `i`.
  transport::VcId open_vc(std::size_t i) {
    auto req = basic_request({srcs[i]->id, 1}, {dsts[i]->id, 2}, /*rate=*/1.0,
                             /*size=*/256);
    req.buffer_osdus = 4;
    const auto vc = srcs[i]->entity.t_connect_request(req);
    if (vc == transport::kInvalidVc) {
      ++failed_requests;
      return vc;
    }
    live[i].push_back(vc);
    return vc;
  }

  std::int64_t failed_requests = 0;

  /// Connects pairs*vcs_per_pair VCs in paced batches; returns confirmed
  /// count.
  std::int64_t ramp() {
    for (std::size_t v = 0; v < vcs_per_pair; ++v) {
      for (std::size_t i = 0; i < srcs.size(); ++i) open_vc(i);
      if (v % 50 == 49)
        platform.run_until(platform.scheduler().now() + 50 * kMillisecond);
    }
    platform.run_until(platform.scheduler().now() + 3 * kSecond);
    return connected_total();
  }

  std::int64_t connected_total() const {
    std::int64_t n = 0;
    for (const auto& u : src_users) n += u->confirmed;
    return n;
  }

  /// One churn op: close the oldest VC on a pair, open a replacement.
  /// Returns the allocations charged to the op's own table work (the
  /// synchronous disconnect+connect path) — the drain that follows also
  /// runs every background VC's timers, which would otherwise smear a
  /// population-proportional term into a per-op metric.
  std::int64_t churn_op(std::size_t op) {
    const std::size_t i = op % srcs.size();
    const std::int64_t a0 = heap_allocs();
    if (!live[i].empty()) {
      srcs[i]->entity.t_disconnect_request(live[i].front());
      live[i].pop_front();
    }
    open_vc(i);
    const std::int64_t cost = heap_allocs() - a0;
    platform.run_until(platform.scheduler().now() + 5 * kMillisecond);
    return cost;
  }

  platform::Platform platform;
  std::size_t vcs_per_pair;
  std::vector<platform::Host*> srcs, dsts;
  platform::Host* pump_src = nullptr;
  platform::Host* pump_dst = nullptr;
  std::vector<std::unique_ptr<AutoUser>> src_users, dst_users;
  std::vector<std::deque<transport::VcId>> live;
};

struct ChurnResult {
  std::int64_t vcs_connected = 0;
  double per_vc_heap_bytes = 0;
  double churn_allocs_per_op = 0;
  double cycles_per_osdu = 0;
  std::int64_t pump_delivered = 0;
};

ChurnResult run_churn(std::uint64_t seed, std::size_t pairs, std::size_t vcs_per_pair,
                      bool with_pump) {
  ChurnResult r;
  ChurnWorld w(pairs, vcs_per_pair, seed);

  const std::int64_t bytes0 = heap_bytes();
  r.vcs_connected = w.ramp();
  r.per_vc_heap_bytes = static_cast<double>(heap_bytes() - bytes0) /
                        static_cast<double>(std::max<std::int64_t>(1, r.vcs_connected));

  // Steady-state churn with the full population resident.
  const std::size_t churn_ops = 400;
  std::int64_t churn_allocs = 0;
  for (std::size_t op = 0; op < churn_ops; ++op) churn_allocs += w.churn_op(op);
  r.churn_allocs_per_op = static_cast<double>(churn_allocs) /
                          static_cast<double>(churn_ops);

  if (!with_pump) return r;

  // Data-plane cost with every table at full population: 64 KiB OSDUs at
  // 250/s through the pump pair while the 10k background VCs stay resident.
  // Idle and acknowledged, they send nothing and arm no timer (feedback
  // and liveness are per peer node; QoS monitor periods close lazily).
  const PumpResult p = pump(w.platform, *w.pump_src, *w.pump_dst,
                            transport::ProtocolProfile::kRateBasedCm, 4 * kSecond);
  r.pump_delivered = p.delivered;
  r.cycles_per_osdu = p.cycles_per_osdu;
  return r;
}

// --- section 4: federation fan-in --------------------------------------

struct FedResult {
  std::uint64_t root_aggregates = 0;
  std::uint64_t domain_reports = 0;
  double fanin_ratio = 0;  // per-VC reports absorbed per root aggregate
  bool ok = false;
};

/// `domains` domain HLOs with `streams_per_domain` VCs each: one shared
/// media server, one workstation per domain (the sink tie-break elects it
/// as that domain's orchestrating node).
FedResult run_federation(std::uint64_t seed, std::size_t domains,
                         std::size_t streams_per_domain) {
  FedResult r;
  platform::Platform p(seed);
  auto& srv = p.add_host("srv");
  auto& hub = p.add_host("hub");
  std::vector<platform::Host*> ws;
  net::LinkConfig link = lan_link();
  link.bandwidth_bps = 100'000'000;  // 16 video reservations share the trunk
  p.network().add_link(srv.id, hub.id, link);
  for (std::size_t d = 0; d < domains; ++d) {
    ws.push_back(&p.add_host("ws" + std::to_string(d)));
    p.network().add_link(hub.id, ws.back()->id, link);
  }
  p.network().finalize_routes();

  media::StoredMediaServer server(p, srv, "srv");
  std::vector<std::unique_ptr<media::RenderingSink>> sinks;
  std::vector<std::unique_ptr<platform::Stream>> streams;
  int connected = 0;
  int id = 0;
  for (std::size_t d = 0; d < domains; ++d) {
    for (std::size_t k = 0; k < streams_per_domain; ++k, ++id) {
      media::TrackConfig track;
      track.track_id = static_cast<std::uint32_t>(id + 1);
      track.vbr.base_bytes = 512;
      const auto src = server.add_track(static_cast<net::Tsap>(100 + id), track);
      media::RenderConfig rc;
      rc.expect_track = track.track_id;
      sinks.push_back(std::make_unique<media::RenderingSink>(
          p, *ws[d], static_cast<net::Tsap>(200 + id), rc));
      streams.push_back(
          std::make_unique<platform::Stream>(p, *ws[d], "s" + std::to_string(id)));
      streams.back()->set_buffer_osdus(8);
      platform::VideoQos vq;
      vq.frames_per_second = 10;
      streams.back()->connect(src, {ws[d]->id, static_cast<net::Tsap>(200 + id)},
                              platform::MediaQos{vq}, {},
                              [&](bool ok, auto) { connected += ok; });
    }
  }
  p.run_until(kSecond);
  if (connected != id) return r;

  orch::FederationPolicy fp;
  fp.domain.interval = 100 * kMillisecond;
  orch::FederatedHlo fed(p.orchestrator(), fp);
  std::vector<std::vector<orch::OrchStreamSpec>> groups(domains);
  for (std::size_t d = 0; d < domains; ++d)
    for (std::size_t k = 0; k < streams_per_domain; ++k)
      groups[d].push_back(streams[d * streams_per_domain + k]->orch_spec(2));
  if (!fed.orchestrate(std::move(groups), nullptr)) return r;
  p.run_until(1500 * kMillisecond);
  fed.prime(false, nullptr);
  p.run_until(2500 * kMillisecond);
  fed.start(nullptr);
  p.run_until(12 * kSecond);

  r.root_aggregates = fed.root_aggregates_processed();
  for (std::size_t d = 0; d < domains; ++d)
    r.domain_reports += fed.domain_reports_processed(d);
  r.fanin_ratio = static_cast<double>(r.domain_reports) /
                  static_cast<double>(std::max<std::uint64_t>(1, r.root_aggregates));
  r.ok = r.root_aggregates > 0;
  return r;
}

// --- section 5: idle shards ----------------------------------------------

struct ShardsResult {
  std::size_t events = 0;
  double probes_per_event = 0;
  double ns_per_event = 0;
};

/// One busy shard pair — a self-rescheduling local chain on each, a delivery
/// from one to the other every tenth tick, and a global event every 5 ms —
/// beside `idle` shards that each hold one far-future timer and one
/// cancelled near timer.  Runs 2 s of simulated time at 1 ms lookahead.
ShardsResult run_shards(std::size_t idle) {
  sim::Scheduler sched;
  sim::Executor& exec = sched.executor();
  exec.set_lookahead(kMillisecond);
  sim::NodeRuntime& a = exec.add_shard();
  sim::NodeRuntime& b = exec.add_shard();
  for (std::size_t i = 0; i < idle; ++i) {
    sim::NodeRuntime& rt = exec.add_shard();
    rt.at(kSecond * 3600, [] {});
    rt.at(kMillisecond, [] {}).cancel();
  }
  std::uint64_t ticks = 0;
  std::function<void()> tick_b = [&] { b.after(100 * kMicrosecond, tick_b); };
  std::function<void()> tick_a = [&] {
    if (++ticks % 10 == 0) b.at(a.now() + kMillisecond, [] {});
    a.after(100 * kMicrosecond, tick_a);
  };
  std::function<void()> global = [&] { a.after_global(5 * kMillisecond, global); };
  a.at(0, tick_a);
  b.at(50 * kMicrosecond, tick_b);
  a.at_global(kMillisecond, global);

  const std::uint64_t probes0 = exec.head_probes();
  ShardsResult r;
  const double secs = wall_seconds([&] { r.events = sched.run_until(2 * kSecond); });
  const auto events = static_cast<double>(std::max<std::size_t>(1, r.events));
  r.probes_per_event = static_cast<double>(exec.head_probes() - probes0) / events;
  r.ns_per_event = secs * 1e9 / events;
  return r;
}

void tables_row(std::uint64_t, Oracle& check) {
  const auto t = run_table_micro(10'000, 1'000'000);
  row("%-28s %14s %18s", "table", "lookup ns/op", "churn allocs/op");
  row("%-28s %14.1f %18.4f", "FlatMap (open-addressed)", t.flat_lookup_ns,
      t.flat_churn_allocs_per_op);
  row("%-28s %14.1f %18s", "std::map", t.map_lookup_ns, "-");
  row("%-28s %14.1f %18s", "std::unordered_map", t.umap_lookup_ns, "-");
  headline("scale.flatmap_lookup_ns", t.flat_lookup_ns);
  headline("scale.stdmap_lookup_ns", t.map_lookup_ns);
  headline("scale.umap_lookup_ns", t.umap_lookup_ns);
  headline("scale.flatmap_churn_allocs_per_op", t.flat_churn_allocs_per_op);
  // Slab freelist and tombstone reuse: only the occasional amortised
  // rehash allocates.
  check.at_most("FlatMap churn allocations per op", t.flat_churn_allocs_per_op, 0.02);
}

void timers_row(std::uint64_t, Oracle& check) {
  const auto t = run_timer_micro(10'000);
  row("%-28s %14s %14s %14s", "timers", "arm ns/op", "cancel ns/op", "fire ns/op");
  row("%-28d %14.1f %14.1f %14.1f", 10'000, t.arm_ns, t.cancel_ns, t.fire_ns);
  headline("scale.timer_arm_ns", t.arm_ns);
  headline("scale.timer_cancel_ns", t.cancel_ns);
  headline("scale.timer_fire_ns", t.fire_ns);
  headline("scale.timers_fired", static_cast<double>(t.fired));
  check.near("every surviving timer fires, no cancelled one", static_cast<double>(t.fired), 5000,
             0);
}

void churn_row(std::uint64_t seed, Oracle& check) {
  // Small population first: its churn allocs/op is the flatness baseline.
  const auto small = run_churn(seed, 10, 200, /*with_pump=*/false);
  const auto big = run_churn(seed, 10, 1000, /*with_pump=*/true);
  row("%-14s %12s %18s %18s %16s", "population", "connected", "per-VC heap B",
      "churn allocs/op", "cycles/OSDU");
  row("%-14d %12lld %18.0f %18.1f %16s", 2'000, static_cast<long long>(small.vcs_connected),
      small.per_vc_heap_bytes, small.churn_allocs_per_op, "-");
  row("%-14d %12lld %18.0f %18.1f %16.0f", 10'000, static_cast<long long>(big.vcs_connected),
      big.per_vc_heap_bytes, big.churn_allocs_per_op, big.cycles_per_osdu);
  const double flatness = big.churn_allocs_per_op / std::max(1e-9, small.churn_allocs_per_op);
  row("%s", "");
  row("churn flatness (10k/2k allocs-per-op ratio): %.2f  (1.0 = population-independent)",
      flatness);
  headline("scale.vcs_connected", static_cast<double>(big.vcs_connected));
  headline("scale.per_vc_heap_bytes", big.per_vc_heap_bytes);
  headline("scale.churn_allocs_per_op", small.churn_allocs_per_op, {{"population", "2000"}});
  headline("scale.churn_allocs_per_op", big.churn_allocs_per_op, {{"population", "10000"}});
  headline("scale.churn_flatness_ratio", flatness);
  headline("scale.cycles_per_osdu", big.cycles_per_osdu);
  headline("scale.pump_delivered_osdus", static_cast<double>(big.pump_delivered));
  // A per-entity std::map reintroduced on a hot path shows up as per-VC
  // bytes or as churn cost growing with the population.  The byte bound is
  // the 6,056 B baseline plus room for stdlib differences across
  // toolchains.
  check.near("VCs connected", static_cast<double>(big.vcs_connected), 10'000, 0);
  check.at_most("per-VC heap bytes at 10k VCs", big.per_vc_heap_bytes, 6056 * 1.25 + 512);
  check.at_most("churn flatness (10k/2k allocs per op)", flatness, 2.0);
  check.at_least("pump OSDUs delivered beside 10k resident VCs",
                 static_cast<double>(big.pump_delivered), 1);
}

void federation_row(std::uint64_t seed, Oracle& check) {
  const auto f = run_federation(seed, 4, 4);
  row("%-22s %18s %18s %14s", "topology", "domain reports", "root aggregates", "fan-in ratio");
  row("%-22s %18llu %18llu %14.1f", "4 domains x 4 VCs",
      static_cast<unsigned long long>(f.domain_reports),
      static_cast<unsigned long long>(f.root_aggregates), f.fanin_ratio);
  headline("scale.fed_root_aggregates", static_cast<double>(f.root_aggregates));
  headline("scale.fed_domain_reports", static_cast<double>(f.domain_reports));
  headline("scale.fed_fanin_ratio", f.fanin_ratio);
  headline("scale.fed_ok", f.ok ? 1.0 : 0.0);
  // The root's intake is one digest per domain per interval; the per-VC
  // report firehose never leaves the domains.
  check.holds("federation orchestrated and ran", f.ok);
  check.near("root aggregates", static_cast<double>(f.root_aggregates), 376, 0);
  check.near("per-VC reports absorbed per root aggregate", f.fanin_ratio, 4.0);
}

void shards_row(std::uint64_t, Oracle& check) {
  const auto few = run_shards(10);
  const auto many = run_shards(1000);
  row("%-12s %12s %18s %14s", "idle shards", "events", "head reads/event", "ns/event");
  row("%-12d %12zu %18.3f %14.1f", 10, few.events, few.probes_per_event, few.ns_per_event);
  row("%-12d %12zu %18.3f %14.1f", 1000, many.events, many.probes_per_event,
      many.ns_per_event);
  const double ratio = many.probes_per_event / std::max(1e-9, few.probes_per_event);
  row("%s", "");
  row("head reads per event, 1,000/10 idle shards: %.3f  (1.0 = idle shards are free)", ratio);
  headline("scale.shard_probes_per_event", few.probes_per_event, {{"idle_shards", "10"}});
  headline("scale.shard_probes_per_event", many.probes_per_event, {{"idle_shards", "1000"}});
  headline("scale.shard_ns_per_event", few.ns_per_event, {{"idle_shards", "10"}});
  headline("scale.shard_ns_per_event", many.ns_per_event, {{"idle_shards", "1000"}});
  headline("scale.shard_probes_ratio", ratio);
  // The count is a pure function of queue state.  An executor loop that
  // reads every shard's head per round or per serial event shows up here
  // as reads per event growing with the idle population.
  check.near("events fired beside 10 and 1,000 idle shards",
             static_cast<double>(many.events), static_cast<double>(few.events), 0);
  check.at_most("head reads per event at 1,000 idle shards", many.probes_per_event, 4);
  check.at_most("head reads per event, 1,000/10 idle shards", ratio, 1.5);
}

}  // namespace

std::vector<Claim> scale_claims() {
  return {
      {"scale.tables", "scale-out core: flat tables vs node-based maps at 10k entries", 0,
       tables_row},
      {"scale.timers", "scale-out core: per-shard event heap at 10k armed timers", 0,
       timers_row},
      {"scale.churn", "scale-out core: 10k concurrent VCs under connect/disconnect churn",
       20260807, churn_row},
      {"scale.federation", "scale-out core: federated HLO fan-in", 31, federation_row},
      {"scale.shards", "sharded executor: head reads per event beside 1,000 idle shards", 0,
       shards_row},
  };
}

}  // namespace cmtos::bench
