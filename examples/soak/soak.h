// soak.h — the scenario table behind the `soak` driver.
//
// Every soak scenario is one row: a name and a run function.  The row
// builds its own world, arms its fault plan, prints its own `fault:` and
// `sweep` lines and checks its own oracles in C++; the driver (main.cpp)
// adds the oracle every row shares — no contract violation — and turns the
// verdict into the exit code.  Each family file contributes its rows.

#pragma once

#include <cstdint>
#include <vector>

namespace cmtos::soak {

struct Scenario {
  const char* name;
  /// Runs the scenario at `seed` on `threads` executor workers; true when
  /// every oracle of the row held.
  bool (*run)(std::uint64_t seed, unsigned threads);
};

std::vector<Scenario> chaos_scenarios();
std::vector<Scenario> overload_scenarios();
std::vector<Scenario> byzantine_scenarios();
std::vector<Scenario> city_scenarios();

/// Reports a failed oracle on stderr and returns false, so oracles read
/// `if (...) return fail("what");`.
bool fail(const char* what);

}  // namespace cmtos::soak
