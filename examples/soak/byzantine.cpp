// byzantine.cpp — adversarial wire-model rows on the shared World
// (world.h).  Seeded ChaosPlan storms batter the media and control paths
// with the byte-level impairment families of DESIGN.md §14 — bit
// corruption, reordering, duplication, truncation.  The stack must shrug:
// checksums refuse the damage, duplicates are discarded, nothing crashes,
// nobody gets quarantined for line noise, and playback survives the storm.
//
//   byzantine_storm   all four impairment families strike the hub<->srv1
//                     and hub<->wsB links mid-playback; the session rides
//                     it out
//   byzantine_storm_unhardened
//                     the same storm with every wire checksum disabled (the
//                     pre-hardening protocol): flipped bytes go straight
//                     through the decoders — wire.checksum_failed stays at
//                     zero while the links report corrupted packets, i.e.
//                     silent garbage acceptance
//   dup_flood         a pure duplication storm; the GBN/reassembly dedup
//                     guards must discard every copy exactly once
//   goodput_contrast  the identical storm hardened and unhardened, with
//                     per-mode goodput gauges (frames rendered / intact /
//                     silently corrupt) — BENCH_byzantine.json is this
//                     row's committed snapshot

#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/wire_hardening.h"
#include "world.h"

namespace cmtos::soak {
namespace {

/// Sums Link::stats().corrupted over every link in the world's star.
std::int64_t links_corrupted(World& w) {
  std::int64_t total = 0;
  for (auto* h : {w.srv1, w.wsB, w.wsC, w.srv2}) {
    if (auto* l = w.platform.network().link(w.hub->id, h->id)) total += l->stats().corrupted;
    if (auto* l = w.platform.network().link(h->id, w.hub->id)) total += l->stats().corrupted;
  }
  return total;
}

/// All four impairment families hit the s1 media path (hub<->srv1 on the
/// source side, hub<->wsB on the sink side) mid-playback.  `hardening`
/// false reruns the identical storm against the pre-hardening protocol.
bool storm(World& w, sim::ChaosEngine& engine, std::uint64_t seed, bool hardening) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  wire::set_hardening(hardening);

  const std::int64_t decode_failed_before = counter_total("wire.decode_failed");
  const std::int64_t checksum_failed_before = counter_total("wire.checksum_failed");
  const std::int64_t quarantined_before = counter_total("wire.peer_quarantined");
  const std::int64_t corrupted_before = links_corrupted(w);
  const auto frames_before = w.sink1->stats().frames_rendered;

  const Time t0 = w.platform.scheduler().now();
  sim::ChaosPlan plan;
  plan.seed = seed;
  // ~10% of full media frames take a flip; small control PDUs mostly slip
  // through, so liveness survives while the data plane is under fire.
  plan.corrupt_storm(t0 + kSecond, w.hub->id, w.srv1->id, 2e-6, 4 * kSecond);
  plan.corrupt_storm(t0 + kSecond, w.hub->id, w.wsB->id, 2e-6, 4 * kSecond);
  plan.dup_storm(t0 + kSecond, w.hub->id, w.srv1->id, 0.2, 4 * kSecond);
  plan.reorder_storm(t0 + kSecond, w.hub->id, w.wsB->id, 0.2, 5 * kMillisecond,
                     4 * kSecond);
  plan.truncate_storm(t0 + 2 * kSecond, w.hub->id, w.srv1->id, 0.05, 2 * kSecond);
  engine.arm(plan);

  w.platform.run_until(t0 + 10 * kSecond);

  if (engine.injected() != 5) return fail("storms not all injected");
  if (links_corrupted(w) - corrupted_before <= 0) return fail("storm drew no blood");
  if (w.supervisor->failovers() != 0) return fail("line noise caused a failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  if (counter_total("wire.peer_quarantined") - quarantined_before != 0)
    return fail("line noise quarantined a peer");

  const std::int64_t refused = counter_total("wire.decode_failed") - decode_failed_before;
  const std::int64_t checksum = counter_total("wire.checksum_failed") - checksum_failed_before;
  if (hardening) {
    if (refused <= 0) return fail("decoders refused nothing under the storm");
    if (checksum <= 0) return fail("no checksum refusals despite bit corruption");
    return true;
  }
  // Contrast: the links flipped real bytes and not one checksum fired —
  // the pre-hardening stack swallows garbage in silence.
  if (checksum != 0) return fail("contrast run unexpectedly verified checksums");
  std::printf(
      "byzantine: CONTRAST: %lld corrupted packets, %lld checksum refusals "
      "— silent garbage acceptance demonstrated\n",
      static_cast<long long>(links_corrupted(w) - corrupted_before),
      static_cast<long long>(checksum));
  return true;
}

bool storm_hardened(World& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  return storm(w, engine, seed, true);
}

/// The contrast storm; leaves the process-wide switch back on for whatever
/// runs next.
bool storm_unhardened(World& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  const bool passed = storm(w, engine, seed, false);
  wire::set_hardening(true);
  return passed;
}

/// A pure duplication flood on the source path: every duplicate must be
/// discarded exactly once, nothing delivered twice, nobody quarantined.
bool dup_flood(World& w, sim::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  const std::int64_t dup_dropped_before = counter_total("transport.dup_dropped");
  const std::int64_t quarantined_before = counter_total("wire.peer_quarantined");
  const auto frames_before = w.sink1->stats().frames_rendered;

  const Time t0 = w.platform.scheduler().now();
  sim::ChaosPlan plan;
  plan.seed = seed;
  plan.dup_storm(t0 + kSecond, w.hub->id, w.srv1->id, 0.4, 5 * kSecond);
  plan.dup_storm(t0 + kSecond, w.hub->id, w.wsB->id, 0.4, 5 * kSecond);
  engine.arm(plan);

  w.platform.run_until(t0 + 9 * kSecond);

  if (engine.injected() != 2) return fail("storms not all injected");
  if (w.supervisor->failovers() != 0) return fail("duplication caused a failover");
  if (counter_total("transport.dup_dropped") - dup_dropped_before <= 0)
    return fail("no duplicates discarded under a dup storm");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  if (counter_total("wire.peer_quarantined") - quarantined_before != 0)
    return fail("duplication quarantined a peer");
  return true;
}

/// One storm run measured for goodput: how many frames rendered, and how
/// many of those were silently corrupt (the sink's media-level frame CRC is
/// ground truth the transport cannot fake).
struct GoodputSample {
  bool ok = false;
  std::int64_t frames = 0;
  std::int64_t corrupt_rendered = 0;
  std::int64_t checksum_refused = 0;
};

GoodputSample measure_goodput(std::uint64_t seed, unsigned threads, WorldBody body) {
  GoodputSample s;
  const std::int64_t checksum_before = counter_total("wire.checksum_failed");
  World w(seed, threads);
  if (!w.ok) return s;
  sim::ChaosEngine engine(w.platform.scheduler(), w.platform.chaos_target());
  s.ok = body(w, engine, seed);
  for (auto* sink : {w.sink1.get(), w.sink2.get(), w.sink3.get()}) {
    s.frames += sink->stats().frames_rendered;
    s.corrupt_rendered += sink->stats().integrity_failures;
  }
  s.checksum_refused = counter_total("wire.checksum_failed") - checksum_before;
  return s;
}

/// The before/after cost of hardening under the identical storm: hardened,
/// every rendered frame is intact (damage refused at the transport);
/// unhardened, corrupt frames reach the render path undetected.  The
/// per-mode gauges land in the snapshot.
bool goodput_contrast(std::uint64_t seed, unsigned threads) {
  const GoodputSample on = measure_goodput(seed, threads, storm_hardened);
  if (!on.ok) return fail("hardened goodput run failed");
  const GoodputSample off = measure_goodput(seed, threads, storm_unhardened);
  if (!off.ok) return fail("contrast goodput run failed");
  if (on.corrupt_rendered != 0) return fail("hardened run rendered corrupt frames");
  if (off.corrupt_rendered <= 0)
    return fail("contrast run rendered no corrupt frames — nothing demonstrated");

  auto& reg = obs::Registry::global();
  for (const auto& [label, sample] : {std::pair{"on", &on}, std::pair{"off", &off}}) {
    const obs::Labels labels = {{"hardening", label}};
    reg.set_gauge("byzantine.frames_rendered", static_cast<double>(sample->frames), labels);
    reg.set_gauge("byzantine.frames_intact",
                  static_cast<double>(sample->frames - sample->corrupt_rendered), labels);
    reg.set_gauge("byzantine.frames_corrupt_rendered",
                  static_cast<double>(sample->corrupt_rendered), labels);
    reg.set_gauge("byzantine.checksum_refused",
                  static_cast<double>(sample->checksum_refused), labels);
  }
  std::printf(
      "byzantine: GOODPUT: hardened %lld frames (%lld corrupt, %lld refused "
      "at the wire) vs unhardened %lld frames (%lld corrupt rendered)\n",
      static_cast<long long>(on.frames), static_cast<long long>(on.corrupt_rendered),
      static_cast<long long>(on.checksum_refused), static_cast<long long>(off.frames),
      static_cast<long long>(off.corrupt_rendered));
  return true;
}

}  // namespace

std::vector<Scenario> byzantine_scenarios() {
  return {
      {"byzantine_storm", in_world<storm_hardened>},
      {"byzantine_storm_unhardened", in_world<storm_unhardened>},
      {"dup_flood", in_world<dup_flood>},
      {"goodput_contrast", goodput_contrast},
  };
}

}  // namespace cmtos::soak
