#!/usr/bin/env bash
# Workload coverage map: which src/ lines and functions the paper-claims
# and soak workloads actually execute.
#
# Builds `claims` and `soak` as Debug with --coverage in build-cov/, runs
# every `claims --list` row and every `soak --list` row at seed 7 with
# --threads 1 and 2 (no --json or --trace, so the snapshot and trace
# writers are not counted), then merges gcov's JSON output across every
# translation unit (headers are instantiated in many) and prints
#   - executed/executable lines per src/ file, and the src/ total;
#   - the src/ functions that no row executes.
# A row that fails its oracle is reported and the run goes on: the map is
# about reach, not verdicts.
#
# Usage: tools/coverage.sh [build-dir]     (default: build-cov at the repo root)
# Needs only gcc's gcov and python3.  A tool to run by hand, not a CI gate:
# about 7 minutes from an empty build-cov/ on a 4-core x86-64 machine
# (about 2 of them the Debug build, 1 the Debug regulation.drift row).

set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-cov"}
jobs=$(nproc 2>/dev/null || echo 2)

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build_dir" -j "$jobs" --target claims soak >/dev/null

# Counters accumulate across runs: start from zero.
find "$build_dir" -name '*.gcda' -delete

claims="$build_dir/bench/claims"
soak="$build_dir/examples/soak"
for row in $("$claims" --list); do
  "$claims" --claim "$row" >/dev/null 2>&1 || echo "coverage: claims row $row failed" >&2
done
for row in $("$soak" --list); do
  for threads in 1 2; do
    "$soak" --scenario "$row" --seed 7 --threads "$threads" >/dev/null 2>&1 ||
      echo "coverage: soak row $row (threads $threads) failed" >&2
  done
done

python3 - "$repo_root" "$build_dir" <<'EOF'
import collections, json, os, subprocess, sys

repo_root, build_dir = (os.path.realpath(p) for p in sys.argv[1:3])
src_root = os.path.join(repo_root, "src") + os.sep

lines = collections.defaultdict(lambda: collections.defaultdict(int))  # file -> line -> count
# file -> start line -> [count, name].  Template instantiations share their
# source line; a line counts as executed when any instantiation ran.
funcs = collections.defaultdict(dict)

gcnos = [os.path.join(d, f) for d, _, fs in os.walk(build_dir) for f in fs if f.endswith(".gcno")]
for gcno in sorted(gcnos):
    # A .gcno without a .gcda is a unit no row entered: gcov reports it
    # with zero counts.
    out = subprocess.run(["gcov", "--json-format", "--stdout", "--object-directory",
                          os.path.dirname(gcno), gcno],
                         cwd=os.path.dirname(gcno), capture_output=True, text=True).stdout
    for doc in out.splitlines():
        if not doc.startswith("{"):
            continue
        data = json.loads(doc)
        for f in data["files"]:
            path = os.path.realpath(os.path.join(data["current_working_directory"], f["file"]))
            if not path.startswith(src_root):
                continue
            rel = os.path.relpath(path, repo_root)
            for ln in f["lines"]:
                lines[rel][ln["line_number"]] += ln["count"]
            for fn in f["functions"]:
                entry = funcs[rel].setdefault(fn["start_line"], [0, fn["demangled_name"]])
                entry[0] += fn["execution_count"]
                entry[1] = min(entry[1], fn["demangled_name"], key=len)

total_exec = total_lines = 0
print(f"{'file':48} {'executed':>9} {'lines':>6} {'%':>6}")
for rel in sorted(lines):
    n = len(lines[rel])
    hit = sum(1 for c in lines[rel].values() if c > 0)
    total_exec += hit
    total_lines += n
    print(f"{rel:48} {hit:9d} {n:6d} {100.0 * hit / n if n else 0:6.1f}")
print(f"{'src/ total':48} {total_exec:9d} {total_lines:6d} "
      f"{100.0 * total_exec / total_lines if total_lines else 0:6.1f}")

print("\nsrc/ functions no row executes:")
for rel in sorted(funcs):
    for line, (count, name) in sorted(funcs[rel].items()):
        if count == 0:
            print(f"  {rel}:{line}  {name}")
EOF
