// cmtos/util/rng.h
//
// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (link jitter, loss, bit errors,
// variable-bit-rate frame sizes, clock drift assignment) draws from an
// explicitly seeded Rng so that experiments are exactly reproducible.  The
// generator is xoshiro256** seeded via splitmix64; it is fast, has a long
// period and passes the statistical batteries relevant at this scale.

#pragma once

#include <cstdint>

namespace cmtos {

class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.  Equal seeds yield equal
  /// sequences on all platforms.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialises the state from `seed`.
  void reseed(std::uint64_t seed);

  /// Returns the next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Derives an independent child generator; used to give each component
  /// its own stream so insertion order does not perturb other components.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace cmtos
