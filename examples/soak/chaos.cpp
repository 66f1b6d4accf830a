// chaos.cpp — seeded fault-injection rows: crash, partition, orchestrator
// death and split brain on the shared World (world.h).  All faults go
// through the ChaosEngine, so the snapshot carries `faults.injected`.
//
//   crash_mid_stream       a source node dies mid-playback; the transport
//                          liveness layer tears down its VC, the LLO
//                          detaches it and the session plays on with the
//                          remaining streams
//   partition_prime_start  the network partitions during prime; the op
//                          times out, the partition heals, and a re-prime +
//                          start succeed
//   orch_death             the orchestrating node dies mid-regulation; the
//                          FailoverSupervisor re-elects a survivor,
//                          re-primes, re-starts and delivers Orch.Delayed
//   partition_heal_split_brain
//                          the orchestrating node is isolated (alive but
//                          unreachable), a successor is elected at a higher
//                          epoch, then the partition heals and the stale
//                          orchestrator comes back swinging; epoch fencing
//                          must nack it into self-retirement with zero
//                          stale targets applied
//   split_brain_unfenced   the same schedule with fencing off: the split
//                          brain must actually happen (stale targets land)
//   orch_flap              two isolation blips short enough that nothing
//                          should fail over, then one real outage: exactly
//                          one failover, and the healed flapper is fenced
//   fault_sweep            randomised schedules over 20 derived seeds (all
//                          fault families that keep the s1 endpoints
//                          alive); every run must satisfy the fencing,
//                          single-regulator, liveness and contract oracles

#include <cstdio>

#include "obs/metrics.h"
#include "util/rng.h"
#include "world.h"

namespace cmtos::soak {
namespace {

/// A source node dies mid-playback; the session sheds its stream and keeps
/// regulating the rest.
bool crash_mid_stream(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  net::ChaosPlan plan;
  plan.seed = seed;
  plan.crash(w.platform.scheduler().now() + 2 * kSecond, w.srv2->id);
  plan.events.back().start_jitter = 200 * kMillisecond;
  engine.arm(plan);
  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 8 * kSecond);
  if (engine.injected() != 1) return fail("fault not injected");
  if (w.supervisor->failovers() != 0) return fail("spurious failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  auto& agent = w.supervisor->session()->agent();
  if (agent.streams().size() != 2) return fail("dead stream not shed from the group");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// The network partitions during prime: the op times out cleanly, then a
/// re-prime after the heal succeeds and the session starts.
bool partition_prime_start(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish()) return fail("session setup");
  w.platform.host(w.wsC->id).llo.set_op_timeout(kSecond);

  // The cut must heal inside the transport liveness budget (800 ms), so the
  // VCs survive the partition and only the prime op is lost.
  net::ChaosPlan plan;
  plan.seed = seed;
  plan.partition(w.platform.scheduler().now() + 100 * kMillisecond, w.hub->id, w.srv1->id,
                 600 * kMillisecond);
  engine.arm(plan);

  bool prime_done = false, prime_ok = false;
  w.platform.run_until(w.platform.scheduler().now() + 200 * kMillisecond);
  w.supervisor->session()->prime(false, [&](bool p, auto) {
    prime_done = true;
    prime_ok = p;
  });
  w.platform.run_until(w.platform.scheduler().now() + 1500 * kMillisecond);
  if (!prime_done || prime_ok) return fail("partitioned prime should time out");

  w.platform.run_until(w.platform.scheduler().now() + kSecond);  // heal well past
  if (!w.prime_and_start()) return fail("re-prime/start after heal");
  w.platform.run_until(w.platform.scheduler().now() + 3 * kSecond);
  if (w.sink1->stats().frames_rendered <= 0) return fail("no playback after heal");
  if (engine.injected() < 2) return fail("cut + heal not both injected");
  return true;
}

/// The orchestrating node dies mid-regulation: the supervisor re-elects a
/// survivor and the surviving stream is re-regulated.
bool orch_death(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  net::ChaosPlan plan;
  plan.seed = seed;
  plan.crash(w.platform.scheduler().now() + 2 * kSecond, w.wsC->id);
  plan.events.back().start_jitter = 200 * kMillisecond;
  engine.arm(plan);
  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 10 * kSecond);
  if (engine.injected() != 1) return fail("fault not injected");
  if (w.supervisor->failovers() != 1) return fail("no failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (w.sink1->stats().delayed_indications <= 0) return fail("Orch.Delayed not delivered");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// The orchestrating node is partitioned away (alive, state intact), a
/// successor is elected at a bumped epoch, the partition heals, and the
/// stale orchestrator resumes regulating into the new world.  With fencing
/// the endpoints nack it into self-retirement and no stale target is ever
/// applied; without fencing its targets land beside the successor's — the
/// split brain the epoch exists to prevent.
bool split_brain(World& w, net::ChaosEngine& engine, std::uint64_t seed, bool fencing) {
  const obs::Registry& reg = obs::Registry::global();
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  w.set_fencing(fencing);
  const std::int64_t rejected_before = reg.total("orch.stale_epoch_rejected");
  const std::int64_t applied_before = reg.total("orch.stale_target_applied");
  const std::int64_t superseded_before = reg.total("orch.superseded");

  net::ChaosPlan plan;
  plan.seed = seed;
  plan.isolate(w.platform.scheduler().now() + 2 * kSecond, w.wsC->id, 3 * kSecond);
  engine.arm(plan);

  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(w.platform.scheduler().now() + 12 * kSecond);

  if (engine.injected() != 2) return fail("isolate + heal not both injected");
  if (w.supervisor->failovers() != 1) return fail("no failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");

  const std::int64_t rejected = reg.total("orch.stale_epoch_rejected") - rejected_before;
  const std::int64_t applied = reg.total("orch.stale_target_applied") - applied_before;
  if (!fencing) {
    // Contrast run: the healed orchestrator regulates beside its successor.
    if (applied <= 0) return fail("expected stale targets applied without fencing");
    return true;
  }
  if (rejected <= 0) return fail("healed stale orchestrator was never fenced");
  if (applied != 0) return fail("stale target applied despite fencing");
  if (reg.total("orch.superseded") - superseded_before != 1)
    return fail("stale orchestrator did not self-retire");
  if (w.supervisor->superseded_count() != 0)
    return fail("superseded session not reaped by the supervisor");
  // End state: exactly one regulator owns the surviving VC at its sink —
  // the re-elected node, at the fence epoch the endpoints adopted.
  auto& sink_llo = w.platform.host(w.wsB->id).llo;
  if (sink_llo.vc_regulator(w.s1->vc()) != w.wsB->id)
    return fail("stale regulator still owns the sink VC");
  if (sink_llo.vc_epoch(w.s1->vc()) != w.supervisor->session()->agent().epoch())
    return fail("sink fence does not match the active epoch");
  return true;
}

bool split_brain_fenced(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  return split_brain(w, engine, seed, true);
}

bool split_brain_unfenced(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  return split_brain(w, engine, seed, false);
}

/// Two isolation blips shorter than both the transport liveness budget
/// (800 ms) and the supervisor's agent_dead_after (1 s): no failover may
/// result.  Then one real outage: exactly one failover, and the flapper is
/// fenced when it heals.
bool orch_flap(World& w, net::ChaosEngine& engine, std::uint64_t seed) {
  const obs::Registry& reg = obs::Registry::global();
  if (!w.establish() || !w.prime_and_start()) return fail("session setup");
  const std::int64_t rejected_before = reg.total("orch.stale_epoch_rejected");
  const Time t0 = w.platform.scheduler().now();
  net::ChaosPlan plan;
  plan.seed = seed;
  plan.isolate(t0 + kSecond, w.wsC->id, 300 * kMillisecond);
  plan.isolate(t0 + 2 * kSecond, w.wsC->id, 300 * kMillisecond);
  plan.isolate(t0 + 3500 * kMillisecond, w.wsC->id, 3 * kSecond);
  engine.arm(plan);

  const auto frames_before = w.sink1->stats().frames_rendered;
  w.platform.run_until(t0 + 12 * kSecond);

  if (engine.injected() != 6) return fail("isolates + heals not all injected");
  if (w.supervisor->failovers() != 1) return fail("flapping must cause exactly one failover");
  if (w.supervisor->orphaned()) return fail("session orphaned");
  if (w.supervisor->session()->orchestrating_node() != w.wsB->id)
    return fail("unexpected re-election");
  if (reg.total("orch.stale_epoch_rejected") <= rejected_before)
    return fail("healed flapper was never fenced");
  if (w.supervisor->superseded_count() != 0)
    return fail("superseded session not reaped by the supervisor");
  if (w.sink1->stats().frames_rendered <= frames_before) return fail("playback stalled");
  return true;
}

/// One derived seed of the sweep; returns the failed oracle, or nullptr.
/// Draws from the fault families that keep the s1 endpoints (srv1, wsB)
/// alive, so the surviving stream's regulation is always part of the oracle:
///   0: isolate the orchestrating node, heal after a random hold
///   1: crash the orchestrating node outright
///   2: crash srv2 (sheds s3), then isolate the orchestrating node
///   3: brief hub<->srv2 partition plus a sub-budget orchestrator blip
/// Oracles are outcome-agnostic — a short isolation may legitimately heal
/// before any failover.
const char* sweep_one(std::uint64_t seed, unsigned threads) {
  const obs::Registry& reg = obs::Registry::global();
  const std::int64_t applied_before = reg.total("orch.stale_target_applied");
  const std::int64_t violations_before = reg.total("contract.violations");
  World w(seed, threads);
  if (!w.ok || !w.establish() || !w.prime_and_start()) return "session setup";
  net::ChaosEngine engine(w.platform.network());

  Rng rng(seed ^ 0x5eed5eedull);
  const Time t0 = w.platform.scheduler().now();
  const int family = static_cast<int>(rng.uniform(0, 3));
  net::ChaosPlan plan;
  plan.seed = seed;
  switch (family) {
    case 0:
      plan.isolate(t0 + rng.uniform(1, 3) * kSecond, w.wsC->id,
                   rng.uniform(1500, 3500) * kMillisecond);
      break;
    case 1:
      plan.crash(t0 + rng.uniform(1, 3) * kSecond, w.wsC->id);
      break;
    case 2: {
      const Time crash_at = t0 + rng.uniform(1, 2) * kSecond;
      plan.crash(crash_at, w.srv2->id);
      plan.isolate(crash_at + 2 * kSecond, w.wsC->id, 2 * kSecond);
      break;
    }
    default:
      plan.partition(t0 + rng.uniform(1, 2) * kSecond, w.hub->id, w.srv2->id,
                     rng.uniform(500, 1500) * kMillisecond);
      plan.isolate(t0 + rng.uniform(3, 4) * kSecond, w.wsC->id,
                   rng.uniform(100, 300) * kMillisecond);
      break;
  }
  engine.arm(plan);
  w.platform.run_until(t0 + 14 * kSecond);

  if (engine.injected() < 1) return "no fault injected";
  if (reg.total("orch.stale_target_applied") != applied_before)
    return "stale target applied";
  if (reg.total("contract.violations") != violations_before) return "contract violations";
  if (w.supervisor->orphaned()) return "session orphaned";
  if (w.supervisor->superseded_count() != 0) return "superseded session not reaped";
  // Exactly one regulator for s1's sink VC: the supervisor's current
  // orchestrating node, at the agent's epoch.
  auto& agent = w.supervisor->session()->agent();
  auto& sink_llo = w.platform.host(w.wsB->id).llo;
  if (sink_llo.vc_regulator(w.s1->vc()) != w.supervisor->session()->orchestrating_node())
    return "sink VC regulator is not the current orchestrating node";
  if (sink_llo.vc_epoch(w.s1->vc()) != agent.epoch())
    return "sink fence does not match the active epoch";
  if (w.platform.scheduler().now() - agent.last_report_time() > 2 * kSecond)
    return "status reports stale at end of run";
  std::printf("sweep seed=%llu family=%d faults=%lld failovers=%d retries=%d ok\n",
              static_cast<unsigned long long>(seed), family,
              static_cast<long long>(engine.injected()), w.supervisor->failovers(),
              w.supervisor->rebuild_retries());
  return nullptr;
}

/// Randomised fault schedules over 20 seeds derived from the base seed, a
/// fresh world each.  Every seed is printed, so a failure replays as
/// `soak --scenario fault_sweep --seed <base>` (or dig in with the printed
/// derived seed and the matching family's dedicated scenario).
bool fault_sweep(std::uint64_t base_seed, unsigned threads) {
  constexpr int kSeeds = 20;
  int failures = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base_seed + 1000ull * static_cast<std::uint64_t>(i + 1);
    if (const char* what = sweep_one(seed, threads)) {
      std::printf("sweep seed=%llu FAILED: %s\n", static_cast<unsigned long long>(seed), what);
      ++failures;
    }
  }
  std::printf("sweep: %d/%d seeds passed\n", kSeeds - failures, kSeeds);
  return failures == 0;
}

}  // namespace

std::vector<Scenario> chaos_scenarios() {
  return {
      {"crash_mid_stream", in_world<crash_mid_stream>},
      {"partition_prime_start", in_world<partition_prime_start>},
      {"orch_death", in_world<orch_death>},
      {"partition_heal_split_brain", in_world<split_brain_fenced>},
      {"split_brain_unfenced", in_world<split_brain_unfenced>},
      {"orch_flap", in_world<orch_flap>},
      {"fault_sweep", fault_sweep},
  };
}

}  // namespace cmtos::soak
