// soak — the one soak driver: seeded fault, overload, wire-damage and
// city-scale scenarios, each a row of the scenario table (soak.h).
//
//   $ ./soak --list
//   $ ./soak --scenario partition_heal_split_brain --seed 7 --threads 8 --json out.json
//
// Each row checks its own oracles in C++; after the row the driver checks
// the oracle every row shares — `contract.violations` stays absent — and
// writes the metrics snapshot.  Same seed, same stdout and snapshot at every
// --threads value (tests/determinism_check.py diffs 1/2/8).
//
// Exit status: 0 when every oracle held, 1 when one failed, 2 on a usage
// error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "soak.h"

namespace cmtos::soak {

bool fail(const char* what) {
  std::fprintf(stderr, "soak: FAILED: %s\n", what);
  return false;
}

std::int64_t counter_total(const std::string& name) {
  const std::string json = obs::Registry::global().to_json();
  const std::string needle = "\"name\": \"" + name + "\"";
  std::int64_t total = 0;
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    const std::size_t eol = json.find('\n', pos);
    const std::size_t val = json.find("\"value\": ", pos);
    if (val != std::string::npos && (eol == std::string::npos || val < eol))
      total += std::strtoll(json.c_str() + val + 9, nullptr, 10);
    pos += needle.size();
  }
  return total;
}

}  // namespace cmtos::soak

int main(int argc, char** argv) {
  using namespace cmtos::soak;
  std::vector<Scenario> table;
  for (auto family : {chaos_scenarios, overload_scenarios, byzantine_scenarios, city_scenarios})
    for (const Scenario& row : family()) table.push_back(row);

  const char* usage =
      "usage: soak --scenario NAME [--seed N] [--threads N] [--json PATH]\n"
      "       soak --list\n";
  std::string scenario;
  std::string json_path;
  std::uint64_t seed = 1;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const Scenario& row : table) std::printf("%s\n", row.name);
      return 0;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && has_value) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value) {
      json_path = argv[++i];
    } else {
      std::fputs(usage, stderr);
      return 2;
    }
  }

  const Scenario* row = nullptr;
  for (const Scenario& r : table)
    if (scenario == r.name) row = &r;
  if (row == nullptr) {
    if (!scenario.empty())
      std::fprintf(stderr, "soak: unknown scenario '%s' (see --list)\n", scenario.c_str());
    std::fputs(usage, stderr);
    return 2;
  }

  bool passed = row->run(seed, threads);
  if (counter_total("contract.violations") != 0) passed = fail("contract violations");

  if (!json_path.empty()) {
    cmtos::obs::Registry::global().write_json(
        json_path, {{"scenario", scenario}, {"seed", std::to_string(seed)}});
  }
  std::printf("soak: scenario %s seed %llu: %s\n", scenario.c_str(),
              static_cast<unsigned long long>(seed), passed ? "OK" : "FAILED");
  return passed ? 0 : 1;
}
