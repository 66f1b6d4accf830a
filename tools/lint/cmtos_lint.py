#!/usr/bin/env python3
"""cmtos-lint: repo-specific static checks for the cmtos codebase.

Fast, dependency-free line checks that encode project rules clang-tidy
cannot express.  Run from the repo root:

    python3 tools/lint/cmtos_lint.py            # check src/ tests/ bench/ examples/ tools/ perfbench/
    python3 tools/lint/cmtos_lint.py src/orch   # restrict to a subtree

Exit status is non-zero when any finding is reported, so CI can gate on it.

The former regex rules callback-liveness, dataplane-payload-copy and
cross-node-state-access have moved to the AST-aware analyzer
(tools/analyze/cmtos_analyze.py), which resolves types and scopes instead
of matching variable names.  Their suppression namespace is
`cmtos-analyze: allow(...)`; this tool only owns `cmtos-lint: allow(...)`.

Rules
-----
  naked-mutex          .lock()/.unlock() called directly on a mutex instead of
                       through an RAII guard (lock_guard/unique_lock/scoped_lock).
                       Manual unlock paths are how the pre-RAII code leaked locks
                       on early returns.
  narrowing-in-codec   PDU encoders (tpdu/opdu/rpc codecs, byte_io users) must
                       narrow host-width values through cmtos::narrow<>, which
                       asserts the value round-trips, never through a naked
                       static_cast to a narrower wire type.
  handler-state-check  Transport primitive handlers (on_data/on_ack/on_nak/
                       on_feedback) must validate the VC state before acting;
                       late packets racing teardown are otherwise processed
                       against a closed VC.
  include-hygiene      Headers carry #pragma once; no "../" relative includes;
                       no <bits/...> internal libstdc++ headers.
  banned-function      assert() in src/ (use CMTOS_ASSERT/CMTOS_DCHECK so release
                       builds count violations instead of compiling the check
                       out), plus sprintf/strcpy/strcat/gets.
  qos-set-agreed       QosMonitor::set_agreed() rebaselines the monitored
                       contract, so it may only be called by the transport
                       entity's renegotiation path (src/transport/).  Anywhere
                       else it silently detaches the monitor from the contract
                       the peers actually agreed on.
  stale-allow          a `cmtos-lint: allow(rule)` comment that suppresses
                       nothing — the named rule no longer fires on that line or
                       the next — or that names a rule this tool does not know
                       (including the rules that migrated to cmtos-analyze).
                       Stale tags are how suppressions rot into blanket
                       exemptions after the code under them changes.

Suppressing
-----------
A finding is suppressed when the offending line (or the line above it) carries

    // cmtos-lint: allow(<rule>)

with the rule name from the list above.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SCAN = ["src", "tests", "bench", "examples", "tools", "perfbench"]
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

KNOWN_RULES = {
    "naked-mutex",
    "narrowing-in-codec",
    "handler-state-check",
    "include-hygiene",
    "banned-function",
    "qos-set-agreed",
    "stale-allow",
}

ALLOW_RE = re.compile(r"//.*cmtos-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# naked-mutex: a direct .lock()/.unlock() member call.  RAII guard
# constructions mention the guard type on the same line; std::lock and
# defer_lock idioms do too.
NAKED_LOCK_RE = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*(?:lock|unlock|try_lock)\s*\(")
RAII_HINT_RE = re.compile(r"lock_guard|unique_lock|scoped_lock|shared_lock|std::lock\b")

# narrowing-in-codec: naked static_cast to a narrower wire type inside a
# codec file.  cmtos::narrow<> is the sanctioned spelling.
CODEC_FILE_RE = re.compile(r"(tpdu|opdu|byte_io|codec|wire|rpc)[^/]*\.(h|hpp|cc|cpp)$")
NARROW_CAST_RE = re.compile(r"static_cast<\s*(?:std::)?u?int(?:8|16|32)_t\s*>")

# handler-state-check: transport primitive handler definitions, whatever
# they return (on_data reports acceptance as a bool).
HANDLER_DEF_RE = re.compile(r"\w\s+Connection::(on_data|on_ack|on_nak|on_feedback)\s*\(")
STATE_CHECK_RE = re.compile(r"state_")

# include-hygiene
INCLUDE_RE = re.compile(r'#\s*include\s*[<"]([^">]+)[">]')

# qos-set-agreed: a member call (not the declaration) to set_agreed outside
# src/transport/.  Contract changes must flow through renegotiation.
SET_AGREED_RE = re.compile(r"(?:\.|->)\s*set_agreed\s*\(")

BANNED_CALLS = {
    # call-site regex -> (rule applies to src/ only?, message)
    re.compile(r"(?<![\w.])assert\s*\("): (
        True,
        "raw assert(); use CMTOS_ASSERT/CMTOS_DCHECK from util/contract.h",
    ),
    re.compile(r"(?<![\w.])sprintf\s*\("): (False, "sprintf; use snprintf"),
    re.compile(r"(?<![\w.])strcpy\s*\("): (False, "strcpy; use bounded copies"),
    re.compile(r"(?<![\w.])strcat\s*\("): (False, "strcat; use bounded appends"),
    re.compile(r"(?<![\w.])gets\s*\("): (False, "gets; never safe"),
}


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line_no}: [{self.rule}] {self.message}"


def allowed_rules(lines: list[str], idx: int) -> set[str]:
    """Rules suppressed on line idx (0-based): same-line or preceding-line tag."""
    rules: set[str] = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def strip_strings_and_comments(line: str) -> str:
    """Crude removal of string literals and // comments so patterns inside
    them don't fire.  Block comments spanning lines are rare in this repo
    and handled conservatively (not stripped)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def raw_findings(path: Path, lines: list[str], rel: str) -> list[Finding]:
    """Every finding the rules produce, before allow() suppression.  Kept
    separate so stale-allow can ask "would this rule fire here?" without the
    tag under test hiding the answer."""
    findings: list[Finding] = []
    in_src = rel.startswith("src/") or "/src/" in rel
    in_transport = rel.startswith("src/transport/") or "/src/transport/" in rel
    is_header = path.suffix in {".h", ".hpp"}
    is_codec = bool(CODEC_FILE_RE.search(rel))
    text = "\n".join(lines)

    if is_header and "#pragma once" not in text:
        findings.append(Finding(path, 1, "include-hygiene", "header lacks #pragma once"))

    handler_spans: list[tuple[int, str]] = []  # (start line idx, handler name)
    for idx, raw in enumerate(lines):
        line = strip_strings_and_comments(raw)

        if NAKED_LOCK_RE.search(line) and not RAII_HINT_RE.search(line):
            findings.append(
                Finding(path, idx + 1, "naked-mutex",
                        "direct lock()/unlock(); use std::lock_guard or std::unique_lock"))

        if is_codec and NARROW_CAST_RE.search(line):
            findings.append(
                Finding(path, idx + 1, "narrowing-in-codec",
                        "naked static_cast to a narrow wire type; use cmtos::narrow<>"))

        m = INCLUDE_RE.search(raw)  # raw: string-stripping would eat the "..." path
        if m:
            target = m.group(1)
            if target.startswith("../"):
                findings.append(
                    Finding(path, idx + 1, "include-hygiene",
                            'relative "../" include; use a src-rooted path'))
            if target.startswith("bits/"):
                findings.append(
                    Finding(path, idx + 1, "include-hygiene",
                            "<bits/...> is libstdc++ internal; include the standard header"))

        if not in_transport and SET_AGREED_RE.search(line):
            findings.append(
                Finding(path, idx + 1, "qos-set-agreed",
                        "QosMonitor::set_agreed() outside src/transport/; contract "
                        "changes must flow through renegotiation"))

        for pat, (src_only, msg) in BANNED_CALLS.items():
            if src_only and not in_src:
                continue
            if pat.search(line):
                findings.append(Finding(path, idx + 1, "banned-function", msg))

        hm = HANDLER_DEF_RE.search(line)
        if hm:
            handler_spans.append((idx, hm.group(1)))

    # handler-state-check: the handler body's first dozen lines must consult
    # the VC state (guard clause or CMTOS_DCHECK on state_).
    for start, name in handler_spans:
        body = "\n".join(lines[start : start + 12])
        if not STATE_CHECK_RE.search(body.split("\n", 1)[1] if "\n" in body else ""):
            findings.append(
                Finding(path, start + 1, "handler-state-check",
                        f"{name}() must validate the VC state before acting"))

    return findings


def check_file(path: Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    rel = path.relative_to(REPO_ROOT).as_posix()

    raw = raw_findings(path, lines, rel)
    findings = [f for f in raw
                if f.rule not in allowed_rules(lines, f.line_no - 1)]

    # stale-allow: a tag at line t suppresses findings at t and t+1 (see
    # allowed_rules), so it is live iff the named rule fires raw on one of
    # those lines.  Unknown names — typos, or rules that migrated to
    # cmtos-analyze — are always findings: they suppress nothing here and
    # hide nothing there.
    fired = {(f.line_no, f.rule) for f in raw}
    for idx, line in enumerate(lines):
        m = ALLOW_RE.search(line)
        if not m or "stale-allow" in allowed_rules(lines, idx):
            continue
        for rule in (r.strip() for r in m.group(1).split(",")):
            if rule == "stale-allow":
                continue  # meta-suppression; staleness checking it would recurse
            if rule not in KNOWN_RULES:
                findings.append(
                    Finding(path, idx + 1, "stale-allow",
                            f"allow({rule}) names an unknown rule; if it moved to "
                            "the AST analyzer, retag as cmtos-analyze: allow(...)"))
            elif not any((t, rule) in fired for t in (idx + 1, idx + 2)):
                findings.append(
                    Finding(path, idx + 1, "stale-allow",
                            f"allow({rule}) suppresses nothing — the rule no longer "
                            "fires on this line or the next; delete the tag"))

    return findings


def iter_files(args: list[str]) -> list[Path]:
    roots = [REPO_ROOT / a for a in args] if args else [REPO_ROOT / d for d in DEFAULT_SCAN]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        for p in sorted(root.rglob("*")):
            if p.suffix in CXX_SUFFIXES and p.is_file():
                files.append(p)
    return files


PROBE = """\
#include "../foo.h"
#include <bits/stdc++.h>
void f() {
  mu.lock();
  char b[8]; sprintf(b, "x");
  assert(1 == 1);
  mu.unlock();  // cmtos-lint: allow(naked-mutex)
  const auto n = static_cast<std::uint16_t>(v.size());
  mon.set_agreed(p);
  mon.set_agreed(p);  // cmtos-lint: allow(qos-set-agreed)
}
bool Connection::on_data(const net::Packet& pkt) {
  return pkt.size() > 0;
}
"""
PROBE_EXPECT = {  # line -> rule
    (1, "include-hygiene"),
    (2, "include-hygiene"),
    (4, "naked-mutex"),
    (5, "banned-function"),
    (6, "banned-function"),  # raw assert (probe scans as src/)
    (8, "narrowing-in-codec"),  # probe scans as a codec file
    (9, "qos-set-agreed"),  # probe is src/ but not src/transport/; 10 allowed
    (12, "handler-state-check"),  # a bool handler with no state_ guard
}


STALE_PROBE = """\
void s() {
  mu.lock();  // cmtos-lint: allow(naked-mutex)
  int x = 0;  // cmtos-lint: allow(naked-mutex)
  int y = 0;  // cmtos-lint: allow(callback-liveness)
  // cmtos-lint: allow(stale-allow)
  int z = 0;  // cmtos-lint: allow(qos-set-agreed)
}
"""
STALE_PROBE_EXPECT = {
    (3, "stale-allow"),  # naked-mutex doesn't fire on line 3 or 4
    (4, "stale-allow"),  # callback-liveness migrated to cmtos-analyze
    # line 6 is stale too, but line 5's allow(stale-allow) suppresses it
}


def selftest() -> int:
    """Verifies every rule both fires on a seeded probe and honours allow()."""
    import tempfile

    with tempfile.TemporaryDirectory(dir=REPO_ROOT) as tmp:
        # Path chosen so in_src and CODEC_FILE_RE both apply.
        probe_dir = Path(tmp) / "src"
        probe_dir.mkdir()
        probe = probe_dir / "probe_codec.cpp"
        probe.write_text(PROBE, encoding="utf-8")
        got = {(f.line_no, f.rule) for f in check_file(probe)}
        # Second probe: stale-allow needs tags that suppress nothing, which
        # the first probe deliberately never has.
        stale_probe = probe_dir / "probe_stale.cpp"
        stale_probe.write_text(STALE_PROBE, encoding="utf-8")
        stale_got = {(f.line_no, f.rule) for f in check_file(stale_probe)}
    ok = True
    if got != PROBE_EXPECT:
        print(f"cmtos-lint selftest FAILED:\n  missing: {PROBE_EXPECT - got}\n"
              f"  spurious: {got - PROBE_EXPECT}", file=sys.stderr)
        ok = False
    if stale_got != STALE_PROBE_EXPECT:
        print(f"cmtos-lint selftest (stale probe) FAILED:\n"
              f"  missing: {STALE_PROBE_EXPECT - stale_got}\n"
              f"  spurious: {stale_got - STALE_PROBE_EXPECT}", file=sys.stderr)
        ok = False
    if not ok:
        return 1
    print("cmtos-lint selftest passed", file=sys.stderr)
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--selftest":
        return selftest()
    findings: list[Finding] = []
    files = iter_files(argv)
    for f in files:
        findings.extend(check_file(f))
    for finding in findings:
        print(finding)
    print(f"cmtos-lint: {len(files)} files, {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
