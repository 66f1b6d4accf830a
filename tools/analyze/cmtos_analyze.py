#!/usr/bin/env python3
"""cmtos-analyze: AST-aware ownership/affinity analysis for the cmtos codebase.

The successor to the weakest regex rules in tools/lint/cmtos_lint.py: where
the lint works line-by-line with token patterns, this analyzer builds real
facts about the code — lambda capture lists, variable and member types,
class/function spans, [[clang::annotate]] markers — and runs scope- and
type-aware checks against them.  Run from the repo root:

    python3 tools/analyze/cmtos_analyze.py                # analyze src/
    python3 tools/analyze/cmtos_analyze.py src/transport  # restrict to a subtree
    python3 tools/analyze/cmtos_analyze.py --selftest     # probe every check
    python3 tools/analyze/cmtos_analyze.py --engine libclang

Exit status is non-zero when any finding is reported, so CI can gate on it.

Engines
-------
Two fact providers feed one shared set of checks:

  structural   A self-contained C++ scanner: comments and string literals are
               blanked (offsets preserved), brace/paren depth is tracked per
               character, and from that view the analyzer extracts lambda
               capture lists (including multi-line lists and init-captures),
               local/parameter/member types for the handful of types the
               checks care about, annotation macro spans, and class member
               declarations.  No dependencies; always available.

  libclang     The same facts lifted from a real Clang AST via clang.cindex,
               driven off compile_commands.json (CMakeLists.txt exports it;
               see --compdb).  Types come from the semantic analyzer instead
               of declaration scanning, so aliased or inferred types resolve
               too.  Used when python3-clang + libclang are installed (CI
               installs them; see .github/workflows/ci.yml `analyze`).
               Files whose TU fails to parse fall back to structural facts.

  --engine auto (default) picks libclang when importable, else structural.

Checks
------
  callback-liveness     A scheduler/timer callback (.after/.at/.after_global/
                        .at_global/defer_global, on a NodeRuntime, the
                        Scheduler or a sim::Timer) whose lambda captures a
                        raw conn/node/link/host/peer pointer — by name, or by
                        *type* when the pointer declaration is visible — may
                        fire after fault injection has torn the object down.
                        The body must re-validate liveness (null check,
                        alive oracle, map lookup) before dereferencing;
                        prefer capturing `this` + an id and resolving at
                        fire time.  A name-matched capture whose nearest
                        declaration is a plain value (a `net::NodeId node`
                        parameter) is a copied id, not a pointer, and
                        passes.  Unlike the retired lint rule,
                        capture lists spanning multiple lines and init-
                        captures are analyzed.
  dataplane-payload-copy
                        Media payload bytes inside src/{transport,media,net}
                        must travel as pooled PayloadView slices (DESIGN.md
                        "Two-world data plane").  Flagged by *type*: any
                        .to_vector() materialisation, and any std::vector<
                        uint8_t> constructed or .assign()ed from an expression
                        the analyzer knows is PayloadView-typed (a declared
                        view variable, or the .data/.frame member of a known
                        Osdu/Packet) — whatever the receiver is called.
  shard-affinity        State marked CMTOS_SHARD_AFFINE is owned by one
                        node's sim::NodeRuntime (DESIGN.md §10).  Node-scoped
                        layers (src/{transport,orch,media,platform}) may
                        resolve only their own node in the network registry
                        and may not reach a foreign host's entity/LLO —
                        except inside a span annotated CMTOS_CONTROL_PLANE,
                        the sanctioned control-shard escapes, which run only
                        in global (serial-round) events.  A CMTOS_SHARD_AFFINE
                        class must not declare static mutable state (shared
                        across shards by construction).
  epoch-check           A regulation-OPDU handler in src/orch/ (a function
                        taking `const Opdu&`) that reads a regulation field
                        (target_seq, max_drop, interval_id, interval,
                        drop_count) from the OPDU must compare the OPDU's
                        epoch against its fence first — epoch_fenced(o) at
                        the endpoints, a session_epoch comparison on the
                        orchestrating side.  An unfenced read is exactly the
                        split-brain bug the fencing layer exists to prevent:
                        a superseded orchestrator's stale targets applied as
                        if current (DESIGN.md section 13).
  frame-lifecycle       A FrameLease is consumed by std::move(lease).freeze():
                        any use of the lease after the freeze (before a
                        reassignment) is a use-after-move on the frame.  And
                        only data-plane types may *store* payload handles: a
                        PayloadView/FrameLease member outside the data-plane
                        dirs — or in any CMTOS_CONTROL_PLANE class — pins
                        pooled frames from control-plane lifetimes.
  timer-idiom           Outside src/sim/, a timer is a sim::Timer held by the
                        record whose lifetime it guards, so erasing the
                        record or destroying its owner cancels it.  A
                        sim::EventHandle data member anywhere else in src/
                        is a timer nothing cancels when its record goes: the
                        silent leak the owning Timer exists to rule out.
  endpoint-teardown     In src/transport/, an endpoint leaves the entity
                        through one teardown (TransportEntity::detach: remove
                        the endpoint, return its reservations, close it) and
                        a pending connect through one abort (ConnectionManager
                        ::abort_connect); both return reservations through
                        TransportEntity::release_reservations.  A
                        `sources_.erase`, `sinks_.erase` or
                        `network_.release(` anywhere else is a teardown
                        written out by hand, the copy that drifts (a forgotten
                        reverse trickle, a skipped close).
  handshake-retransmit  In src/transport/, the handshake TPDUs that wait for
                        an answer (RCR, CR, RN) are resent by one helper
                        (TransportEntity::send_handshake and its re-arm,
                        arm_handshake) from one record (transport/
                        handshake.h).  A handshake_delay() call or a
                        kHandshakeRetries use anywhere else is a retransmit
                        loop written out by hand, the copy that drifts.
                        Their own declarations and definitions pass.
  opdu-construction     In src/orch/, an OPDU is built by one of two helpers:
                        Opdu::command stamps an orchestrating->endpoint OPDU
                        (type, session, vc, orch_node, epoch), Opdu::reply
                        an endpoint's reply or report.  A `.type =
                        OpduType::...` assignment anywhere else is an OPDU
                        stamped field by field, the copy that forgets the
                        epoch or the reply address.  The clock-sync probe
                        (Llo::estimate_clock_offset, Llo::handle_time_req)
                        carries no session and passes.
  dataplane-alloc       The per-fragment data path allocates nothing in
                        steady state (DESIGN.md "Allocation budget"): a
                        `std::deque<Packet>` in src/net/ (a chunk every few
                        packets; link bands are capacity-keeping
                        RingDeques), a `make_shared` of a std::vector or
                        std::deque of Packets anywhere in src/ (the vector
                        moves into the event's capture instead) and a
                        ByteWriter in DataTpdu::encode_onto (the 58-byte DT
                        header is written in place into the packet's inline
                        bytes) each bring a per-packet allocation back.
  wire-table            The six flat control-plane PDUs (ControlTpdu,
                        AckTpdu, NakTpdu, FeedbackTpdu, Opdu, RpcMsg) are
                        encoded and decoded only by walking their field
                        tables in the codec engine (util/wire_codec.h).  A
                        ByteReader or ByteWriter in a member function of one
                        of them anywhere in src/, or anywhere in src/
                        transport/, src/orch/ or platform/rpc.{h,cpp} outside
                        the two hand-written codecs (DataTpdu::decode_packet,
                        HeartbeatTpdu::encode_into/decode_into) and peek_vc,
                        is a field sequence written out by hand: the second
                        copy of a table, the one that drifts.
  layering              The src/ layers include only downward: an
                        `#include "<dir>/..."` in src/<layer>/ may name its
                        own layer or a library its CMake target links,
                        directly or transitively.  The allowed set is read
                        from the target_link_libraries lines of
                        src/*/CMakeLists.txt, so the order lives in one
                        place (a transport header including orch/ is the
                        upward edge that makes the libraries a cycle).
  hot-path-map          Per-entity lookup state in the scale-critical layers
                        (src/{transport,orch,net}) must live in the flat
                        open-addressed structures (util::FlatMap /
                        util::SlotTable): a std::map / std::unordered_map
                        *member* declaration there reintroduces the pointer-
                        chasing, allocation-per-insert containers the
                        scale-out core removed (DESIGN.md section 15).
                        Cold-path members that genuinely want ordered
                        iteration or reference stability carry an
                        allow(hot-path-map) tag stating as much.
  decode-totality       Wire decoders are total over arbitrary bytes
                        (DESIGN.md section 14): every decode()/decode_packet()
                        call yields an optional that can be empty for ANY
                        input, so the result must be branched on before it is
                        dereferenced — `*decode(...)`, `decode(...)->field`,
                        `.value()`, or a stored result used with no `if (!x)`
                        (or equivalent) in between, all assume the wire was
                        well-formed.  And inside a codec, a length/count
                        field read from the wire (reader .u16/.u32/.u64) must
                        be range-guarded against the bytes actually present
                        before it drives a resize()/reserve(): a stomped
                        length field must never size an allocation.

Suppressing
-----------
A finding is suppressed when the offending line (or the line above it)
carries

    // cmtos-analyze: allow(<check>)

with the check name from the list above.  The namespace is deliberately
distinct from `cmtos-lint: allow(...)`; tools/lint/cmtos_lint.py reports
stale tags in either namespace it owns.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SCAN = ["src"]
DEFAULT_COMPDB = REPO_ROOT / "build" / "compile_commands.json"
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

CHECKS = (
    "callback-liveness",
    "dataplane-payload-copy",
    "shard-affinity",
    "frame-lifecycle",
    "epoch-check",
    "decode-totality",
    "timer-idiom",
    "hot-path-map",
    "endpoint-teardown",
    "handshake-retransmit",
    "opdu-construction",
    "dataplane-alloc",
    "wire-table",
    "layering",
)

ALLOW_RE = re.compile(r"//.*cmtos-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

DATAPLANE_DIR_RE = re.compile(r"(^|/)src/(transport|media|net)/")
NODE_SCOPED_DIR_RE = re.compile(r"(^|/)src/(transport|orch|media|platform)/")
# frame_pool.h defines PayloadView/FrameLease themselves; sync/annotation
# headers are infrastructure.
FRAME_TYPES_HOME_RE = re.compile(r"(^|/)src/util/frame_pool\.(h|cpp)$")

# ---------------------------------------------------------------------------
# Source model: comment/string-blanked code view with per-char brace depth.
# ---------------------------------------------------------------------------


def code_view(text: str) -> str:
    """Returns text of identical length with comments and string/char
    literal *contents* replaced by spaces (newlines preserved), so regexes
    and brace matching see only real code at true offsets."""
    out = list(text)
    i, n = 0, len(text)

    def blank(j: int) -> None:
        if out[j] != "\n":
            out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                blank(i)
                i += 1
        elif c == "/" and nxt == "*":
            blank(i)
            blank(i + 1)
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                blank(i)
                i += 1
            if i < n:
                blank(i)
                blank(i + 1)
                i += 2
        elif c == '"' and i >= 1 and text[i - 1] == "R":
            # Raw string: R"delim( ... )delim"
            j = text.find("(", i)
            if j < 0:
                i += 1
                continue
            delim = text[i + 1 : j]
            close = text.find(")" + delim + '"', j)
            end = n if close < 0 else close + len(delim) + 2
            for k in range(i, min(end, n)):
                blank(k)
            i = end
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    blank(i)
                    i += 1
                if i < n:
                    blank(i)
                    i += 1
            i += 1
        elif c == "'":
            # Distinguish char literals from digit separators (1'000'000).
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() and nxt.isdigit():
                i += 1  # digit separator
                continue
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    blank(i)
                    i += 1
                if i < n:
                    blank(i)
                    i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    """A parsed source file: raw text, blanked code view, offset/line maps,
    per-char brace depth, and the cmtos-analyze allow() tags."""

    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.code = code_view(self.text)
        self.lines = self.text.splitlines()
        # line_start[k] = offset of 1-based line k+1
        self.line_start = [0]
        for m in re.finditer("\n", self.text):
            self.line_start.append(m.end())
        # brace depth BEFORE each character of the code view
        self.depth = [0] * (len(self.code) + 1)
        d = 0
        for i, ch in enumerate(self.code):
            self.depth[i] = d
            if ch == "{":
                d += 1
            elif ch == "}":
                d = max(0, d - 1)
        self.depth[len(self.code)] = d
        # allow tags: line (1-based) -> set of check names the tag names
        self.allow_at: dict[int, set[str]] = {}
        for idx, raw in enumerate(self.lines):
            m = ALLOW_RE.search(raw)
            if m:
                self.allow_at[idx + 1] = {r.strip() for r in m.group(1).split(",")}

    def line_of(self, offset: int) -> int:
        """1-based line containing offset."""
        lo, hi = 0, len(self.line_start) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_start[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def allowed(self, line: int) -> set[str]:
        """Checks suppressed on 1-based `line`: same-line or preceding-line
        tag (mirrors cmtos-lint's suppression window)."""
        return self.allow_at.get(line, set()) | self.allow_at.get(line - 1, set())

    def match_brace(self, open_off: int) -> int:
        """Offset of the '}' closing the '{' at open_off (or end of file)."""
        d = 0
        for i in range(open_off, len(self.code)):
            if self.code[i] == "{":
                d += 1
            elif self.code[i] == "}":
                d -= 1
                if d == 0:
                    return i
        return len(self.code) - 1

    def next_block(self, start: int) -> tuple[int, int] | None:
        """(open, close) offsets of the next top-level {...} after `start`,
        tracking paren depth so argument lists don't confuse it.  Returns
        None if a ';' at paren depth 0 arrives first (declaration only)."""
        pd = 0
        for i in range(start, len(self.code)):
            ch = self.code[i]
            if ch == "(":
                pd += 1
            elif ch == ")":
                pd = max(0, pd - 1)
            elif ch == "{" and pd == 0:
                return i, self.match_brace(i)
            elif ch == ";" and pd == 0:
                return None
        return None


# ---------------------------------------------------------------------------
# Facts: what the checks consume.  Either engine produces one per file.
# ---------------------------------------------------------------------------


class Capture:
    def __init__(self, text: str):
        self.text = text.strip()
        self.by_ref = self.text.startswith("&")
        body = self.text.lstrip("&").strip()
        # init-capture `name = expr` / plain capture `name`
        if "=" in body:
            name, _, init = body.partition("=")
            self.name = name.strip()
            self.init = init.strip()
        else:
            self.name = body
            self.init = ""


class Callback:
    """A lambda handed to a scheduler/timer call at code offset `offset`."""

    def __init__(self, line: int, offset: int, method: str, captures: list[Capture],
                 body: str):
        self.line = line
        self.offset = offset
        self.method = method
        self.captures = captures
        self.body = body


class ClassInfo:
    def __init__(self, name: str, line: int, open_off: int, close_off: int,
                 annotation: str | None):
        self.name = name
        self.line = line
        self.open_off = open_off
        self.close_off = close_off
        self.annotation = annotation  # "shard_affine" | "control_plane" | None
        self.member_lines: list[tuple[int, str]] = []  # (1-based line, decl text)


class Facts:
    def __init__(self) -> None:
        self.callbacks: list[Callback] = []
        self.view_vars: set[str] = set()       # names typed PayloadView
        self.lease_vars: set[str] = set()      # names typed FrameLease
        self.osdu_vars: set[str] = set()       # names typed Osdu (has .data view)
        self.packet_vars: set[str] = set()     # names typed Packet (has .frame view)
        self.raw_ptr_vars: set[str] = set()    # names declared as entity-ish T*
        self.control_plane_spans: list[tuple[int, int]] = []  # 1-based line spans
        self.classes: list[ClassInfo] = []
        self.freeze_sites: list[tuple[int, str, int]] = []  # (line, var, block end off)
        self.engine = "structural"

    def in_control_plane(self, line: int) -> bool:
        return any(a <= line <= b for a, b in self.control_plane_spans)


# -- structural engine ------------------------------------------------------

SCHED_CALL_RE = re.compile(
    r"(?:(?:\.|->)\s*(after_global|at_global|after|at)"
    r"|\b(defer_global))\s*\(")
PTR_NAME_RE = re.compile(r"^(?:conn(?:ection)?|link|node|host|peer)(?:_?ptr)?_?$")
LIVENESS_HINT_RE = re.compile(
    r"nullptr|alive|down\s*\(|expired|find\s*\(|count\s*\(|contains\s*\(|node_up|is_up")
RAW_PTR_DECL_RE = re.compile(
    r"\b(?:\w+::)*(?:Connection|Node|Link|Host|Llo)\s*\*\s*(\w+)\s*[=;,)]")
VIEW_DECL_RE = re.compile(r"\bPayloadView\s*(?:&&?|\*)?\s+(\w+)\b")
LEASE_DECL_RE = re.compile(r"\bFrameLease\s*(?:&&?|\*)?\s+(\w+)\b")
OSDU_DECL_RE = re.compile(r"\bOsdu\s*(?:&&?|\*)?\s+(\w+)\b")
PACKET_DECL_RE = re.compile(r"\bPacket\s*(?:&&?|\*)?\s+(\w+)\b")
CLASS_RE = re.compile(
    r"\b(class|struct)\s+(CMTOS_SHARD_AFFINE|CMTOS_CONTROL_PLANE)?\s*(\w+)")
ANNOT_FN_RE = re.compile(r"\bCMTOS_CONTROL_PLANE\b")
FREEZE_RE = re.compile(r"std::move\s*\(\s*(\w+)\s*\)\s*\.\s*freeze\s*\(")


def split_top_level(s: str, sep: str = ",") -> list[str]:
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [x for x in (e.strip() for e in out) if x]


def find_lambda(sf: SourceFile, call_open: int) -> tuple[int, int, int, int] | None:
    """Given the offset of the '(' opening a scheduler call's argument list,
    returns (capture_open, capture_close, body_open, body_close) offsets of
    the first lambda among the arguments, or None."""
    code = sf.code
    pd = 0
    i = call_open
    while i < len(code):
        ch = code[i]
        if ch == "(":
            pd += 1
        elif ch == ")":
            pd -= 1
            if pd == 0:
                return None  # call closed without a lambda
        elif ch == "[" and pd >= 1:
            prev = code[:i].rstrip()
            # A lambda-introducer follows '(' or ',' (or assignment in an
            # argument default) — an index expression follows an identifier.
            if prev and prev[-1] in "(,=":
                d = 0
                j = i
                while j < len(code):
                    if code[j] == "[":
                        d += 1
                    elif code[j] == "]":
                        d -= 1
                        if d == 0:
                            break
                    j += 1
                blk = sf.next_block(j + 1)
                if blk is None:
                    return None
                return i, j, blk[0], blk[1]
        i += 1
    return None


def gather_facts_structural(sf: SourceFile) -> Facts:
    facts = Facts()
    code = sf.code

    # Variable/parameter/member types the checks care about.
    for rx, bag in ((RAW_PTR_DECL_RE, facts.raw_ptr_vars),
                    (VIEW_DECL_RE, facts.view_vars),
                    (LEASE_DECL_RE, facts.lease_vars),
                    (OSDU_DECL_RE, facts.osdu_vars),
                    (PACKET_DECL_RE, facts.packet_vars)):
        for m in rx.finditer(code):
            bag.add(m.group(1))

    # Classes, their annotations, and member-declaration lines (the lines at
    # exactly class-body depth — member function bodies sit deeper).
    for m in CLASS_RE.finditer(code):
        blk = sf.next_block(m.end())
        if blk is None:
            continue  # forward declaration
        open_off, close_off = blk
        annotation = None
        if m.group(2) == "CMTOS_SHARD_AFFINE":
            annotation = "shard_affine"
        elif m.group(2) == "CMTOS_CONTROL_PLANE":
            annotation = "control_plane"
        ci = ClassInfo(m.group(3), sf.line_of(m.start()), open_off, close_off, annotation)
        body_depth = sf.depth[open_off] + 1
        line = sf.line_of(open_off)
        end_line = sf.line_of(close_off)
        for ln in range(line + 1, end_line + 1):
            off = sf.line_start[ln - 1]
            if off <= close_off and sf.depth[off] == body_depth:
                text = code[off:sf.line_start[ln] if ln < len(sf.line_start) else len(code)]
                ci.member_lines.append((ln, text))
        facts.classes.append(ci)
        if annotation == "control_plane":
            facts.control_plane_spans.append((ci.line, sf.line_of(close_off)))

    # CMTOS_CONTROL_PLANE on function definitions: the macro not preceded by
    # class/struct, followed by a body.
    for m in ANNOT_FN_RE.finditer(code):
        before = code[:m.start()].rstrip()
        if before.endswith("class") or before.endswith("struct"):
            continue
        blk = sf.next_block(m.end())
        if blk is None:
            continue
        facts.control_plane_spans.append((sf.line_of(m.start()), sf.line_of(blk[1])))

    # Scheduler/timer callbacks with their capture lists and bodies.
    for m in SCHED_CALL_RE.finditer(code):
        lam = find_lambda(sf, m.end() - 1)
        if lam is None:
            continue
        cap_open, cap_close, body_open, body_close = lam
        caps = [Capture(c) for c in split_top_level(code[cap_open + 1 : cap_close])]
        body = code[body_open + 1 : body_close]
        facts.callbacks.append(Callback(sf.line_of(m.start()), m.start(),
                                        m.group(1) or m.group(2), caps, body))

    # FrameLease freeze sites: (line, lease var, end of enclosing block).
    for m in FREEZE_RE.finditer(code):
        d0 = sf.depth[m.start()]
        end = len(code)
        for i in range(m.end(), len(code)):
            if sf.depth[i] < d0:
                end = i
                break
        facts.freeze_sites.append((sf.line_of(m.start()), m.group(1), end))

    return facts


# -- libclang engine --------------------------------------------------------


def libclang_index():
    """Returns a clang.cindex.Index or None when libclang is unavailable."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        return cindex.Index.create()
    except Exception:  # library present but libclang.so missing/mismatched
        return None


def load_compdb(path: Path) -> dict:
    """compile_commands.json as {abs file -> arg list (without compiler/file)}."""
    out: dict[str, list[str]] = {}
    if not path.is_file():
        return out
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return out
    for e in entries:
        args = e.get("arguments")
        if args is None and "command" in e:
            args = e["command"].split()
        if not args:
            continue
        keep = [a for a in args[1:]
                if a.startswith(("-I", "-D", "-std", "-isystem", "-W"))]
        f = str((Path(e.get("directory", ".")) / e["file"]).resolve())
        out[f] = keep
    return out


def default_clang_args() -> list[str]:
    return ["-std=c++20", "-xc++", f"-I{REPO_ROOT / 'src'}"]


def gather_facts_libclang(sf: SourceFile, index, compdb: dict) -> Facts:
    """Facts from the Clang AST.  Structural facts seed the result; the AST
    pass replaces the type sets and annotation spans with semantic ones and
    re-derives lambda captures from real LAMBDA_EXPR cursors.  Any parse
    trouble falls back to the structural facts unchanged."""
    from clang import cindex  # type: ignore

    facts = gather_facts_structural(sf)
    args = compdb.get(str(sf.path.resolve())) or default_clang_args()
    try:
        tu = index.parse(str(sf.path), args=args,
                         options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
    except cindex.TranslationUnitLoadError:
        return facts
    if tu is None:
        return facts

    K = cindex.CursorKind
    view_vars, lease_vars, osdu_vars = set(), set(), set()
    packet_vars, ptr_vars = set(), set()
    cp_spans: list[tuple[int, int]] = []

    def type_name(t) -> str:
        return t.get_canonical().spelling

    def walk(cur) -> None:
        try:
            loc_file = cur.location.file
        except Exception:
            loc_file = None
        # Only classify declarations from this file; includes are context.
        in_file = loc_file is not None and Path(str(loc_file)).resolve() == sf.path.resolve()
        if in_file and cur.kind in (K.VAR_DECL, K.PARM_DECL, K.FIELD_DECL):
            tn = type_name(cur.type)
            name = cur.spelling or ""
            if name:
                if "PayloadView" in tn:
                    view_vars.add(name)
                if "FrameLease" in tn:
                    lease_vars.add(name)
                if re.search(r"\bOsdu\b", tn):
                    osdu_vars.add(name)
                if re.search(r"\bPacket\b", tn):
                    packet_vars.add(name)
                if tn.endswith("*") and re.search(
                        r"(Connection|Node|Link|Host|Llo)\s*\*$", tn):
                    ptr_vars.add(name)
        if in_file and cur.kind == K.ANNOTATE_ATTR and cur.spelling in (
                "cmtos::control_plane",):
            parent = cur.semantic_parent
            target = parent if parent is not None else cur
            ext = target.extent
            if ext and ext.start.line and ext.end.line:
                cp_spans.append((ext.start.line, ext.end.line))
        for child in cur.get_children():
            walk(child)

    try:
        walk(tu.cursor)
    except Exception:
        return facts

    if view_vars or lease_vars or ptr_vars or osdu_vars or packet_vars:
        facts.view_vars |= view_vars
        facts.lease_vars |= lease_vars
        facts.osdu_vars |= osdu_vars
        facts.packet_vars |= packet_vars
        facts.raw_ptr_vars |= ptr_vars
    if cp_spans:
        merged = facts.control_plane_spans + cp_spans
        facts.control_plane_spans = sorted(set(merged))
    facts.engine = "libclang"
    return facts


# ---------------------------------------------------------------------------
# Checks (engine-independent: consume SourceFile + Facts).
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, rel: str, line: int, check: str, message: str):
        self.rel = rel
        self.line = line
        self.check = check
        self.message = message

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.check}] {self.message}"


DECL_KEYWORDS = {"return", "case", "else", "new", "delete", "throw", "goto", "sizeof",
                 "typename", "operator", "co_return", "co_yield"}
ENTITY_TYPE_RE = re.compile(r"(?:^|::)(?:Connection|Node|Link|Host|Llo)$")


def value_typed(code: str, name: str, before: int) -> bool:
    """True when the nearest declaration of `name` before offset `before`
    gives it a plain value type: no pointer or reference declarator, not
    `auto`, not an entity class (e.g. a `net::NodeId node` parameter)."""
    decl = None
    for m in re.finditer(rf"\b([A-Za-z_][\w:]*)\s*([*&]*)\s*\b{re.escape(name)}\s*[,)=;{{]",
                         code[:before]):
        if m.group(1) not in DECL_KEYWORDS:
            decl = m
    return (decl is not None and not decl.group(2) and decl.group(1) != "auto"
            and ENTITY_TYPE_RE.search(decl.group(1)) is None)


def check_callback_liveness(sf: SourceFile, facts: Facts) -> list[Finding]:
    out = []
    for cb in facts.callbacks:
        risky = []
        for cap in cb.captures:
            if cap.name in ("", "=", "&", "this", "*this"):
                continue
            # A capture is a raw entity pointer when its *name* says so (and
            # its declaration does not make it a plain value), its declared
            # *type* says so, or an init-capture aliases one.
            ptrish = ((PTR_NAME_RE.match(cap.name) is not None
                       and (cap.init or not value_typed(sf.code, cap.name, cb.offset)))
                      or cap.name in facts.raw_ptr_vars
                      or (cap.init and any(
                          re.search(rf"\b{re.escape(v)}\b", cap.init)
                          for v in facts.raw_ptr_vars)))
            if ptrish:
                risky.append(cap.name)
        if risky and not LIVENESS_HINT_RE.search(cb.body):
            out.append(Finding(
                sf.rel, cb.line, "callback-liveness",
                f"callback captures raw pointer(s) {', '.join(sorted(set(risky)))} "
                "without a liveness guard; re-validate in the body (or capture "
                "this + an id and resolve at fire time)"))
    return out


VEC_U8_RE = re.compile(r"std::vector<\s*(?:std::)?uint8_t\s*>\s*(\w*)\s*([({])")
ASSIGN_CALL_RE = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*assign\s*\(")
TO_VECTOR_RE = re.compile(r"(?:\.|->)\s*to_vector\s*\(")


def payload_typed_expr(args: str, facts: Facts) -> str | None:
    """Returns the payload-typed source expression inside `args`, if any:
    a known PayloadView variable, or the .data/.frame view member of a known
    Osdu/Packet variable."""
    for name in facts.view_vars:
        if re.search(rf"\b{re.escape(name)}\s*(?:\.|->)\s*(?:begin|end|data|size)\s*\(",
                     args) or re.search(rf"\b{re.escape(name)}\b\s*[,)]", args):
            return name
    for name in facts.osdu_vars:
        if re.search(rf"\b{re.escape(name)}\s*(?:\.|->)\s*data\b", args):
            return f"{name}.data"
    for name in facts.packet_vars:
        if re.search(rf"\b{re.escape(name)}\s*(?:\.|->)\s*frame\b", args):
            return f"{name}.frame"
    return None


def call_args(sf: SourceFile, open_off: int) -> str:
    """Text of a balanced (...) or {...} starting at open_off."""
    code = sf.code
    open_ch = code[open_off]
    close_ch = ")" if open_ch == "(" else "}"
    d = 0
    for i in range(open_off, len(code)):
        if code[i] == open_ch:
            d += 1
        elif code[i] == close_ch:
            d -= 1
            if d == 0:
                return code[open_off + 1 : i]
    return code[open_off + 1 :]


def check_dataplane_payload_copy(sf: SourceFile, facts: Facts) -> list[Finding]:
    if not DATAPLANE_DIR_RE.search(sf.rel):
        return []
    out = []
    code = sf.code
    # Materialising a heap vector from a view is a copy by definition.
    # (to_vector exists for tests and debug dumps, not the media path.)
    for m in TO_VECTOR_RE.finditer(code):
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "dataplane-payload-copy",
            "to_vector() materialises a heap copy of pooled payload bytes; "
            "keep the PayloadView (subview/extend) on the media path"))
    # std::vector<uint8_t> built from a PayloadView-typed source.
    for m in VEC_U8_RE.finditer(code):
        args = call_args(sf, m.end() - 1)
        src = payload_typed_expr(args, facts)
        if src is not None:
            out.append(Finding(
                sf.rel, sf.line_of(m.start()), "dataplane-payload-copy",
                f"std::vector<uint8_t> copy-constructed from PayloadView-typed "
                f"'{src}'; share the pooled frame via PayloadView instead"))
    # container.assign(view.begin(), view.end()) — copying out of a view.
    for m in ASSIGN_CALL_RE.finditer(code):
        args = call_args(sf, m.end() - 1)
        src = payload_typed_expr(args, facts)
        if src is not None:
            out.append(Finding(
                sf.rel, sf.line_of(m.start()), "dataplane-payload-copy",
                f"assign() copies bytes out of PayloadView-typed '{src}'; "
                "share the pooled frame via PayloadView instead"))
    return out


NODE_RESOLVE_RE = re.compile(r"(?:\.|->)\s*node\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)")
SELF_NODE_RE = re.compile(r"\bnode_?\b|\bhost_?\.id\b|node_id\s*\(")
FOREIGN_LAYER_RE = re.compile(
    r"\b(?:src|dst|peer|remote|other|target|tgt)\w*\s*(?:\.|->)\s*(?:entity|llo)\b")
STATIC_MUTABLE_RE = re.compile(
    r"^\s*(?:inline\s+)?static\s+(?!const\b|constexpr\b|void\b)\w")


def check_shard_affinity(sf: SourceFile, facts: Facts) -> list[Finding]:
    out = []
    if NODE_SCOPED_DIR_RE.search(sf.rel):
        code = sf.code
        for m in NODE_RESOLVE_RE.finditer(code):
            line = sf.line_of(m.start())
            if facts.in_control_plane(line):
                continue
            if not SELF_NODE_RE.search(m.group(1)):
                out.append(Finding(
                    sf.rel, line, "shard-affinity",
                    f"resolving foreign node ({m.group(1).strip()}); that node's "
                    "CMTOS_SHARD_AFFINE state belongs to another shard — interact "
                    "through net::Network delivery or a CMTOS_CONTROL_PLANE span"))
        for m in FOREIGN_LAYER_RE.finditer(code):
            line = sf.line_of(m.start())
            if facts.in_control_plane(line):
                continue
            out.append(Finding(
                sf.rel, line, "shard-affinity",
                "dereferencing a foreign host's entity/LLO outside a "
                "CMTOS_CONTROL_PLANE span; interact through net::Network delivery"))
    # Static mutable state in a shard-affine class is shared across shards
    # by construction — exactly what the annotation promises never happens.
    for ci in facts.classes:
        if ci.annotation != "shard_affine":
            continue
        for line, text in ci.member_lines:
            if STATIC_MUTABLE_RE.search(text) and "(" not in text.split("=")[0].split(";")[0]:
                out.append(Finding(
                    sf.rel, line, "shard-affinity",
                    f"static mutable member in CMTOS_SHARD_AFFINE class "
                    f"{ci.name}; shard-affine state cannot be process-global"))
    return out


MEMBER_HANDLE_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:cmtos::)?(PayloadView|FrameLease)\b[^(;]*;")


def check_frame_lifecycle(sf: SourceFile, facts: Facts) -> list[Finding]:
    out = []
    code = sf.code
    # Use-after-freeze: the lease is consumed; any later use before a
    # reassignment operates on a moved-from handle.
    for line, var, block_end in facts.freeze_sites:
        # scan from just after the freeze call to the end of the block
        start = sf.line_start[line - 1]
        m0 = FREEZE_RE.search(code, start)
        if m0 is None:
            continue
        tail = code[m0.end():block_end]
        base = m0.end()
        for um in re.finditer(rf"\b{re.escape(var)}\b", tail):
            after = tail[um.end():].lstrip()
            before = tail[:um.start()].rstrip()
            if after.startswith("="):  # reassignment re-arms the lease
                break
            if before.endswith(("std::move(", "move(")):
                break  # moved away wholesale; a new ownership story begins
            out.append(Finding(
                sf.rel, sf.line_of(base + um.start()), "frame-lifecycle",
                f"'{var}' used after std::move({var}).freeze(); the lease is "
                "consumed — freeze must be the last use (or reassign first)"))
            break
    # Payload handles stored outside the data plane (or in control-plane
    # classes anywhere) pin pooled frames from control-plane lifetimes.
    in_dataplane = bool(DATAPLANE_DIR_RE.search(sf.rel))
    types_home = bool(FRAME_TYPES_HOME_RE.search(sf.rel))
    for ci in facts.classes:
        is_control = ci.annotation == "control_plane"
        if types_home:
            continue
        if in_dataplane and not is_control:
            continue
        for line, text in ci.member_lines:
            mm = MEMBER_HANDLE_RE.search(text)
            if mm:
                where = ("a CMTOS_CONTROL_PLANE class" if is_control
                         else "a class outside src/{transport,media,net}")
                out.append(Finding(
                    sf.rel, line, "frame-lifecycle",
                    f"{mm.group(1)} member in {where} ({ci.name}); control-plane "
                    "types must not store pooled payload handles"))
    return out


OPDU_HANDLER_RE = re.compile(r"\b\w+\s*\(\s*const\s+Opdu&\s*(\w+)\s*\)")
REGULATION_FIELDS = ("target_seq", "max_drop", "interval_id", "interval", "drop_count")
EPOCH_GUARD_RE = re.compile(r"\bepoch\b|\bepoch_fenced\b|\bsession_epoch\b|\bvc_epoch\b")


def check_epoch_fencing(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags OPDU handlers in src/orch/ that apply regulation fields from the
    wire without an epoch comparison earlier in the body."""
    if not re.search(r"(^|/)src/orch/", sf.rel):
        return []
    out = []
    code = sf.code
    for m in OPDU_HANDLER_RE.finditer(code):
        param = m.group(1)
        # Skip to the body's opening brace; a ';' first means this is only a
        # declaration.
        j = m.end()
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] == ";":
            continue
        depth = 0
        end = len(code)
        for k in range(j, len(code)):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    end = k
                    break
        body = code[j:end]
        read = re.search(
            rf"\b{re.escape(param)}\s*(?:\.|->)\s*(?:{'|'.join(REGULATION_FIELDS)})\b",
            body)
        if read is None:
            continue
        if EPOCH_GUARD_RE.search(body, 0, read.start()):
            continue
        out.append(Finding(
            sf.rel, sf.line_of(j + read.start()), "epoch-check",
            f"OPDU handler reads '{param}.{{regulation field}}' without "
            "comparing the OPDU's epoch against the fence first; a superseded "
            "orchestrator's stale targets would apply as current "
            "(epoch_fenced()/session_epoch comparison must come before the read)"))
    return out


DECODE_SITE_RE = re.compile(r"\b(?:decode|decode_packet)\s*\(")
DECODE_ASSIGN_RE = re.compile(
    r"\b(?:auto|std::optional<[^;=]+>)\s+(?:const\s+)?(\w+)\s*=\s*"
    r"[^;=]*?\bdecode(?:_packet)?\s*\(")
LEN_READ_RE = re.compile(
    r"\b(?:const\s+)?(?:auto|(?:std::)?uint(?:16|32|64)_t|(?:std::)?size_t)"
    r"(?:\s+const)?\s+(\w+)\s*=\s*\w+\s*\.\s*u(?:16|32|64)\s*\(\s*\)")


def enclosing_block_end(code: str, off: int) -> int:
    """Offset of the `}` closing the block containing `off` (or EOF)."""
    depth = 0
    for i in range(off, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(code)


def balanced_close(code: str, open_off: int) -> int:
    depth = 0
    for i in range(open_off, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def check_decode_totality(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Decoders are total; their callers must be too (DESIGN.md section 14)."""
    out = []
    code = sf.code

    # (a) Result dereferenced in the same expression: *decode(...),
    # decode(...)->field, decode(...).value().  The optional was never
    # branched on, so an attacker-controlled wire image crashes the caller.
    for m in DECODE_SITE_RE.finditer(code):
        # Walk back over the qualified-name prefix (Foo::Bar::decode).
        i = m.start()
        while i > 0 and (code[i - 1].isalnum() or code[i - 1] in ":_"):
            i -= 1
        j = i - 1
        while j >= 0 and code[j] in " \t\n":
            j -= 1
        prev = code[j] if j >= 0 else ""
        # A declaration/definition has the return type right before the name
        # (`std::optional<X> decode(` / `...> X::decode(`).  `return` is the
        # one keyword that also ends in a word character.
        if prev.isalnum() or prev in ">&":
            w = j
            while w > 0 and (code[w - 1].isalnum() or code[w - 1] == "_"):
                w -= 1
            if code[w:j + 1] not in ("return", "co_return"):
                continue
        open_off = code.index("(", m.start())
        close = balanced_close(code, open_off)
        after = code[close + 1:close + 24]
        deref_after = re.match(r"\s*->|\s*\.\s*value\s*\(", after)
        if prev == "*" or deref_after:
            out.append(Finding(
                sf.rel, sf.line_of(m.start()), "decode-totality",
                "decode result dereferenced without branching on the optional; "
                "decoders are total over arbitrary bytes — an empty result is "
                "reachable from the wire, so check before use"))

    # (b) Result stored, then dereferenced with no branch in between.  The
    # `if (auto x = decode(...))` form *is* the branch and is skipped.
    for m in DECODE_ASSIGN_RE.finditer(code):
        prefix = code[max(0, m.start() - 16):m.start()].rstrip()
        if prefix.endswith("(") and re.search(r"\b(?:if|while)\s*\($", prefix):
            continue
        var = m.group(1)
        open_off = code.index("(", m.end() - 1)
        stmt_end = balanced_close(code, open_off) + 1
        tail = code[stmt_end:enclosing_block_end(code, stmt_end)]
        deref = re.search(
            rf"\b{re.escape(var)}\s*->|\*\s*{re.escape(var)}\b"
            rf"|\b{re.escape(var)}\s*\.\s*value\s*\(", tail)
        if deref is None:
            continue
        guard = re.search(
            rf"!\s*{re.escape(var)}\b"
            rf"|\b{re.escape(var)}\s*(?:\.|->)\s*has_value"
            rf"|\(\s*{re.escape(var)}\s*[\)&|]"
            rf"|\b{re.escape(var)}\s*[=!]=",
            tail[:deref.start()])
        if guard is None:
            out.append(Finding(
                sf.rel, sf.line_of(stmt_end + deref.start()), "decode-totality",
                f"'{var}' holds a decode result and is dereferenced without a "
                f"branch on the optional (declared line "
                f"{sf.line_of(m.start())}); an empty result is reachable from "
                "the wire"))

    # (c) Wire-read length field sizing an allocation unguarded: the codec
    # must range-check it against the bytes actually present first.
    for m in LEN_READ_RE.finditer(code):
        var = m.group(1)
        tail = code[m.end():enclosing_block_end(code, m.end())]
        use = re.search(
            rf"\b(?:resize|reserve)\s*\(\s*[^;)]*\b{re.escape(var)}\b", tail)
        if use is None:
            continue
        guard = re.search(
            rf"\b{re.escape(var)}\b\s*(?:[<>]=?|[=!]=)"
            rf"|(?:[<>]=?|[=!]=)\s*\b{re.escape(var)}\b"
            rf"|min\s*\([^;\n]*\b{re.escape(var)}\b",
            tail[:use.start()])
        if guard is None:
            out.append(Finding(
                sf.rel, sf.line_of(m.end() + use.start()), "decode-totality",
                f"length field '{var}' read from the wire drives "
                f"resize()/reserve() with no range guard (read line "
                f"{sf.line_of(m.start())}); a stomped length must never size "
                "an allocation — compare against the bytes remaining first"))
    return out


HOT_PATH_DIR_RE = re.compile(r"(^|/)src/(transport|orch|net)/")
STD_MAP_MEMBER_RE = re.compile(r"\bstd\s*::\s*(unordered_map|map)\s*<")


def _map_is_return_type(text: str, open_angle: int) -> bool:
    """True when the std::map<...> whose '<' sits at open_angle is the return
    type of a member-function declaration (`std::map<K,V>& name(...)`), not a
    stored member."""
    depth = 0
    i = open_angle
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                break
        i += 1
    rest = text[i + 1:]
    return re.match(r"\s*(?:const\s*)?&?\s*\w+\s*\(", rest) is not None


def check_hot_path_map(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags std::map / std::unordered_map *members* declared in the
    scale-critical layers; per-entity tables there are FlatMap/SlotTable
    (DESIGN.md section 15).  Function locals, parameters and return types
    are fine — the check walks class-body member lines only, and skips
    lines where the map type sits inside a parameter list or heads a
    member-function declaration."""
    if not HOT_PATH_DIR_RE.search(sf.rel):
        return []
    out = []
    for ci in facts.classes:
        for line, text in ci.member_lines:
            m = STD_MAP_MEMBER_RE.search(text)
            if m is None:
                continue
            # A '(' before the match means the map is a parameter type of a
            # member-function declaration, not stored state.
            if "(" in text[:m.start()]:
                continue
            if _map_is_return_type(text, m.end() - 1):
                continue
            out.append(Finding(
                sf.rel, line, "hot-path-map",
                f"std::{m.group(1)} member in {ci.name} "
                "(scale-critical layer); per-entity tables here are flat "
                "(util::FlatMap / util::SlotTable) — node-local allocation, "
                "open addressing, generation-stamped handles.  If this member "
                "is genuinely cold and needs ordered iteration or reference "
                "stability, tag it allow(hot-path-map) with a reason"))
    return out


TIMER_IDIOM_DIR_RE = re.compile(r"(^|/)src/(?!sim/)")
EVENT_HANDLE_RE = re.compile(r"\bEventHandle\b")
MEMBER_FN_RE = re.compile(r"^[\s>]*[*&]*\s*\w+\s*\(")


def check_timer_idiom(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags sim::EventHandle data members in src/ outside src/sim/.  Member
    functions taking or returning a handle are not stored state: the check
    skips a match inside a parameter list or followed by `name(`."""
    if not TIMER_IDIOM_DIR_RE.search(sf.rel):
        return []
    out = []
    for ci in facts.classes:
        for line, text in ci.member_lines:
            m = EVENT_HANDLE_RE.search(text)
            if m is None or "(" in text[:m.start()] or MEMBER_FN_RE.match(text[m.end():]):
                continue
            out.append(Finding(
                sf.rel, line, "timer-idiom",
                f"sim::EventHandle member in {ci.name}: nothing cancels it when "
                "the record goes; hold a sim::Timer in the record whose lifetime "
                "it guards (re-arm, erase and destruction cancel it)"))
    return out


TRANSPORT_DIR_RE = re.compile(r"(^|/)src/transport/")
TEARDOWN_SITE_RE = re.compile(
    r"\b(?:sources_|sinks_)\s*\.\s*erase\s*\(|\bnetwork_?\s*\.\s*release\s*\(")
TEARDOWN_HELPERS = (
    "TransportEntity::detach",
    "TransportEntity::release_reservations",
    "ConnectionManager::abort_connect",
)
# A function definition header ending at a '{': name, parameter list (one
# level of nested parens), trailing qualifiers.  Control statements match
# too and are skipped by name; lambdas (`]` before the parens) never match.
FN_HEADER_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*::\s*~?\w+)*)\s*\((?:[^()]|\([^()]*\))*\)\s*"
    r"(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?$")
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch"}


def enclosing_function(sf: SourceFile, off: int) -> str | None:
    """The name, as written at its definition, of the innermost function
    whose body holds `off` (lambda and control-statement blocks are looked
    through), or None at namespace scope."""
    code = sf.code
    depth = 0
    for i in range(off - 1, -1, -1):
        if code[i] == "}":
            depth += 1
        elif code[i] == "{":
            if depth > 0:
                depth -= 1
                continue
            m = FN_HEADER_RE.search(code, max(0, i - 400), i)
            if m and m.group(1) not in NOT_FUNCTIONS:
                return re.sub(r"\s+", "", m.group(1))
    return None


def check_endpoint_teardown(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags endpoint-map erasures and reservation releases in src/transport/
    outside the teardown, abort and release helpers."""
    if not TRANSPORT_DIR_RE.search(sf.rel):
        return []
    out = []
    for m in TEARDOWN_SITE_RE.finditer(sf.code):
        fn = enclosing_function(sf, m.start())
        if fn in TEARDOWN_HELPERS:
            continue
        site = re.sub(r"\s+", "", m.group(0))
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "endpoint-teardown",
            f"`{site}` in {fn or 'namespace scope'}: endpoints leave through "
            "TransportEntity::detach, pending connects through "
            "ConnectionManager::abort_connect, reservations through "
            "TransportEntity::release_reservations; a teardown written out "
            "by hand is the copy that drifts"))
    return out


HANDSHAKE_SITE_RE = re.compile(r"\bhandshake_delay\s*\(\s*\)|\bkHandshakeRetries\b")
# The name right after its declared type (`int kHandshakeRetries = 3`,
# `Duration TransportEntity::handshake_delay()`): a declaration, not a use.
HANDSHAKE_DECL_RE = re.compile(r"\b(?:int|Duration)\s+(?:\w+\s*::\s*)?$")
HANDSHAKE_HELPERS = (
    "TransportEntity::send_handshake",
    "TransportEntity::arm_handshake",
)


def check_handshake_retransmit(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags handshake_delay() calls and kHandshakeRetries uses in
    src/transport/ outside the one retransmit helper."""
    if not TRANSPORT_DIR_RE.search(sf.rel):
        return []
    out = []
    for m in HANDSHAKE_SITE_RE.finditer(sf.code):
        if HANDSHAKE_DECL_RE.search(sf.code, max(0, m.start() - 80), m.start()):
            continue
        fn = enclosing_function(sf, m.start())
        if fn in HANDSHAKE_HELPERS:
            continue
        site = re.sub(r"\s+", "", m.group(0))
        where = fn or "an initializer outside any function"
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "handshake-retransmit",
            f"`{site}` in {where}: RCR, CR and RN are resent by "
            "TransportEntity::send_handshake from the Handshake record of "
            "transport/handshake.h; a retransmit loop written out by hand is "
            "the copy that drifts"))
    return out


ORCH_DIR_RE = re.compile(r"(^|/)src/orch/")
OPDU_TYPE_STAMP_RE = re.compile(r"\.\s*type\s*=(?!=)\s*OpduType\s*::")
OPDU_BUILDERS = (
    "Opdu::command",
    "Opdu::reply",
    "Llo::estimate_clock_offset",
    "Llo::handle_time_req",
)


def check_opdu_construction(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags OPDU types stamped by hand in src/orch/ outside the two OPDU
    builders and the clock-sync probe."""
    if not ORCH_DIR_RE.search(sf.rel):
        return []
    out = []
    for m in OPDU_TYPE_STAMP_RE.finditer(sf.code):
        fn = enclosing_function(sf, m.start())
        if fn in OPDU_BUILDERS:
            continue
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "opdu-construction",
            f"OPDU type stamped by hand in {fn or 'namespace scope'}: build "
            "orchestrating->endpoint OPDUs with Opdu::command and endpoint "
            "replies and reports with Opdu::reply; an OPDU written out field "
            "by field is the copy that drifts"))
    return out


NET_DIR_RE = re.compile(r"(^|/)src/net/")
SRC_DIR_RE = re.compile(r"(^|/)src/")
_PACKET_T = r"(?:(?:cmtos\s*::\s*)?net\s*::\s*)?Packet\s*>"
DEQUE_PACKET_RE = re.compile(r"\bstd\s*::\s*deque\s*<\s*" + _PACKET_T)
SHARED_PACKETS_RE = re.compile(
    r"\bmake_shared\s*<\s*std\s*::\s*(?:vector|deque)\s*<\s*" + _PACKET_T + r"\s*>")
BYTE_WRITER_RE = re.compile(r"\bByteWriter\b")
DT_HEADER_ENCODER = "DataTpdu::encode_onto"


def check_dataplane_alloc(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags the per-packet allocation shapes the allocation-free data path
    removed: a std::deque of Packets in src/net/, a make_shared'd vector or
    deque of Packets in src/, a ByteWriter in DataTpdu::encode_onto."""
    if not SRC_DIR_RE.search(sf.rel):
        return []
    out = []
    if NET_DIR_RE.search(sf.rel):
        for m in DEQUE_PACKET_RE.finditer(sf.code):
            out.append(Finding(
                sf.rel, sf.line_of(m.start()), "dataplane-alloc",
                "std::deque of Packets in src/net/ allocates a chunk every few "
                "packets as it slides; queue packets in a RingDeque, which "
                "keeps its capacity"))
    for m in SHARED_PACKETS_RE.finditer(sf.code):
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "dataplane-alloc",
            "make_shared of a Packet container is one more allocation per "
            "batch; move the container into the event's capture (it fits the "
            "EventFn inline budget)"))
    for m in BYTE_WRITER_RE.finditer(sf.code):
        if enclosing_function(sf, m.start()) == DT_HEADER_ENCODER:
            out.append(Finding(
                sf.rel, sf.line_of(m.start()), "dataplane-alloc",
                "ByteWriter in DataTpdu::encode_onto appends byte by byte to a "
                "heap vector; write the fixed-size DT header in place into the "
                "packet's inline bytes"))
    return out


WIRE_TABLE_PDUS = ("ControlTpdu", "AckTpdu", "NakTpdu", "FeedbackTpdu", "Opdu", "RpcMsg")
WIRE_TABLE_DIR_RE = re.compile(r"(^|/)src/(transport|orch)/|(^|/)src/platform/rpc\.(h|cpp)$")
BYTE_IO_RE = re.compile(r"\bByte(?:Reader|Writer)\b")
HAND_WRITTEN_CODECS = (
    "DataTpdu::decode_packet",
    "HeartbeatTpdu::encode_into",
    "HeartbeatTpdu::decode_into",
    "peek_vc",
)


def check_wire_table(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags ByteReader/ByteWriter uses that encode or decode a
    table-driven PDU's fields by hand instead of through util/wire_codec.h."""
    if not SRC_DIR_RE.search(sf.rel):
        return []
    pdu_dir = WIRE_TABLE_DIR_RE.search(sf.rel) is not None
    out = []
    for m in BYTE_IO_RE.finditer(sf.code):
        fn = enclosing_function(sf, m.start())
        pdu_member = fn is not None and fn.split("::")[0] in WIRE_TABLE_PDUS
        if not pdu_member and not (pdu_dir and fn not in HAND_WRITTEN_CODECS):
            continue
        out.append(Finding(
            sf.rel, sf.line_of(m.start()), "wire-table",
            f"{m.group(0)} in {fn or 'namespace scope'}: ControlTpdu, AckTpdu, "
            "NakTpdu, FeedbackTpdu, Opdu and RpcMsg are encoded and decoded by "
            "walking their field tables (util/wire_codec.h); a field sequence "
            "written out by hand is a second copy of the table, the one that "
            "drifts"))
    return out


LINK_RE = re.compile(r"target_link_libraries\s*\(\s*cmtos_(\w+)([^)]*)\)")
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"/\n]+)/[^"\n]*"', re.M)
LAYER_DIR_RE = re.compile(r"(?:^|/)src/(\w+)/")
_layer_deps: dict[str, set[str]] | None = None


def layer_deps() -> dict[str, set[str]]:
    """Layer -> the layers its files may include: itself plus every cmtos_*
    library its target links, closed transitively.  Read once from the
    target_link_libraries lines of src/*/CMakeLists.txt (library cmtos_X
    lives in src/X/)."""
    global _layer_deps
    if _layer_deps is None:
        direct: dict[str, set[str]] = {}
        for cml in sorted((REPO_ROOT / "src").glob("*/CMakeLists.txt")):
            for m in LINK_RE.finditer(cml.read_text(encoding="utf-8")):
                direct.setdefault(m.group(1), set()).update(
                    re.findall(r"\bcmtos_(\w+)", m.group(2)))
        _layer_deps = {}
        for layer in direct:
            seen, todo = {layer}, [layer]
            while todo:
                for dep in direct.get(todo.pop(), ()):
                    if dep not in seen:
                        seen.add(dep)
                        todo.append(dep)
            _layer_deps[layer] = seen
    return _layer_deps


def check_layering(sf: SourceFile, facts: Facts) -> list[Finding]:
    """Flags a quoted include of another src/ layer that the including
    layer's library does not link."""
    m = LAYER_DIR_RE.search(sf.rel)
    deps = layer_deps()
    if m is None or m.group(1) not in deps:
        return []
    layer = m.group(1)
    out = []
    for inc in INCLUDE_RE.finditer(sf.text):
        target = inc.group(1)
        if "#" not in sf.code[inc.start():inc.end()]:
            continue  # inside a comment
        if target in deps and target not in deps[layer]:
            out.append(Finding(
                sf.rel, sf.line_of(inc.start()), "layering",
                f"src/{layer}/ includes {target}/, which cmtos_{layer} does not "
                f"link (it links {', '.join(sorted(deps[layer] - {layer})) or 'nothing'}): "
                "layers include only downward"))
    return out


ALL_CHECKS = (
    check_callback_liveness,
    check_dataplane_payload_copy,
    check_shard_affinity,
    check_frame_lifecycle,
    check_epoch_fencing,
    check_decode_totality,
    check_timer_idiom,
    check_hot_path_map,
    check_endpoint_teardown,
    check_handshake_retransmit,
    check_opdu_construction,
    check_dataplane_alloc,
    check_wire_table,
    check_layering,
)


def analyze_file(path: Path, rel: str | None = None, engine: str = "structural",
                 index=None, compdb: dict | None = None) -> list[Finding]:
    rel = rel if rel is not None else path.resolve().relative_to(REPO_ROOT).as_posix()
    sf = SourceFile(path, rel)
    if engine == "libclang" and index is not None:
        facts = gather_facts_libclang(sf, index, compdb or {})
    else:
        facts = gather_facts_structural(sf)
    findings: list[Finding] = []
    for chk in ALL_CHECKS:
        findings.extend(chk(sf, facts))
    return [f for f in findings if f.check not in sf.allowed(f.line)]


# ---------------------------------------------------------------------------
# Selftest: every check must both fire on seeded probes and stay silent on
# the adjacent pass probes (>=2 fail + >=1 pass probe per check; spurious
# findings fail the selftest because expectations are compared exactly).
# ---------------------------------------------------------------------------

CB_PROBE = """\
#include "transport/connection.h"
void f(cmtos::transport::Connection* conn, cmtos::net::Link* wire) {
  sched.after(d, [conn] { conn->send(); });
  retx.after_global(rt, d,
                    [this,
                     wire] { wire->pump(); });
  sched.after(d, [conn] { if (conn != nullptr) conn->send(); });
  sched.after(d, [this, id] { resolve(id); });
  sched.after(d, [&ent] { ent.tick(); });
  sched.after(d, [conn] { conn->send(); });  // cmtos-analyze: allow(callback-liveness)
}
void g(cmtos::net::NodeId node, cmtos::net::Node* host) {
  tick.at(rt, t, [this, node] { on_tick(node); });
  tick.at(rt, t, [host] { host->poll(); });
}
"""
CB_EXPECT = {
    (3, "callback-liveness"),   # classic name-based raw capture
    (4, "callback-liveness"),   # Timer arm, multi-line capture list, typed 'wire'
    (14, "callback-liveness"),  # Timer arm capturing a typed entity pointer
}                               # (line 13: a NodeId value named 'node' passes)

DP_PROBE = """\
#include "util/frame_pool.h"
void g(const cmtos::PayloadView& view, cmtos::transport::Osdu& osdu) {
  auto bytes = view.to_vector();
  std::vector<std::uint8_t> scratch(view.begin(), view.end());
  staging.assign(osdu.data.begin(), osdu.data.end());
  std::vector<std::uint8_t> hdr(header.begin(), header.end());
  auto sub = view.subview(0, 4);
  auto dump = view.to_vector();  // cmtos-analyze: allow(dataplane-payload-copy)
}
"""
DP_EXPECT = {
    (3, "dataplane-payload-copy"),  # to_vector materialisation
    (4, "dataplane-payload-copy"),  # vector built from a *typed* view (receiver
                                    # name carries no payload hint — regex-proof)
    (5, "dataplane-payload-copy"),  # assign() out of an Osdu's view member
}

SH_PROBE = """\
#include "util/thread_annotations.h"
void h() {
  auto& a = network_.node(node_).runtime();
  auto& b = network_.node(spec.sink).entity();
  src_host.entity.t_connect_request(req);
  auto& c = network_.node(peer_id).runtime();  // cmtos-analyze: allow(shard-affinity)
}
CMTOS_CONTROL_PLANE
void sanctioned() {
  auto& d = network_.node(spec.sink).entity();
  peer_host.entity.bind(t, u);
}
class CMTOS_SHARD_AFFINE ProbeEntity {
 public:
  static constexpr int kMax = 4;
  static int live_count;
  int x_ = 0;
};
"""
SH_EXPECT = {
    (4, "shard-affinity"),    # foreign node resolve (spec.sink)
    (5, "shard-affinity"),    # foreign host layer deref
    (16, "shard-affinity"),   # static mutable member in shard-affine class
}

FL_PROBE = """\
#include "util/frame_pool.h"
cmtos::PayloadView p(cmtos::FramePool& pool) {
  cmtos::FrameLease lease = pool.lease(64);
  auto view = std::move(lease).freeze(64);
  lease.data();
  cmtos::FrameLease l2 = pool.lease(32);
  auto v2 = std::move(l2).freeze(32);
  l2 = pool.lease(16);
  auto v3 = std::move(l2).freeze(16);
  return view;
}
"""
FL_EXPECT = {
    (5, "frame-lifecycle"),   # use after freeze
}

FL_MEMBER_PROBE = """\
#include "util/frame_pool.h"
class SessionPlanner {
 public:
  void plan();

 private:
  cmtos::PayloadView stash_;
  cmtos::FrameLease pending_;
  std::vector<std::uint8_t> control_bytes_;
  cmtos::PayloadView scratch_;  // cmtos-analyze: allow(frame-lifecycle)
};
"""
FL_MEMBER_EXPECT = {
    (7, "frame-lifecycle"),   # PayloadView member outside the data plane
    (8, "frame-lifecycle"),   # FrameLease member outside the data plane
}

EP_PROBE = """\
#include "orch/opdu.h"
void RegulationEngine::handle_regulate_sink(const Opdu& o) {
  if (epoch_fenced(o)) return;
  st->target_seq = o.target_seq;
}
void RegulationEngine::handle_regulate_src(const Opdu& o) {
  st->max_drop = o.max_drop;
}
void RegulationEngine::handle_drop(const Opdu& o) {
  conn->drop_at_source(o.drop_count);
}
void RegulationEngine::handle_sess_rel(const Opdu& o) {
  detach_endpoint({o.session, o.vc});
}
void SessionTable::handle_reg_ind(const Opdu& o) {
  if (o.epoch < session_epoch(o.session)) return;
  merge(o.vc, o.interval_id);
}
void RegulationEngine::handle_delayed(const Opdu& o) {
  note(o.interval);  // cmtos-analyze: allow(epoch-check)
}
"""
EP_EXPECT = {
    (7, "epoch-check"),    # regulation field applied with no fence in sight
    (10, "epoch-check"),   # drop budget consumed unfenced
}

DT_PROBE = """\
#include "transport/tpdu.h"
void bad_chain(std::span<const std::uint8_t> w) {
  apply(cmtos::transport::AckTpdu::decode(w)->cumulative);
  auto dt = *cmtos::transport::DataTpdu::decode(w);
}
void bad_var(std::span<const std::uint8_t> w) {
  auto nk = cmtos::transport::NakTpdu::decode(w);
  retransmit(nk->missing);
}
void bad_len(cmtos::ByteReader& r, std::vector<std::uint32_t>& out) {
  const std::uint32_t n = r.u32();
  out.reserve(n);
}
void good(std::span<const std::uint8_t> w, cmtos::ByteReader& r,
          std::vector<std::uint32_t>& out) {
  auto ak = cmtos::transport::AckTpdu::decode(w);
  if (!ak) return;
  apply(ak->cumulative);
  if (auto hb = cmtos::transport::HeartbeatTpdu::decode(w)) note(hb->seq);
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 4) return;
  out.reserve(n);
  auto cr = *cmtos::transport::ControlTpdu::decode(w);  // cmtos-analyze: allow(decode-totality)
}
"""
DT_EXPECT = {
    (3, "decode-totality"),   # same-expression -> chain off the optional
    (4, "decode-totality"),   # *decode(...) immediate dereference
    (8, "decode-totality"),   # stored result deref'd with no branch between
    (12, "decode-totality"),  # wire length sizing a reserve with no guard
    (10, "wire-table"),       # a hand-written reader in src/transport/ ...
    (14, "wire-table"),       # ... outside the DT and heartbeat codecs
}

HM_PROBE = """\
#include <map>
#include "util/slot_table.h"
class VcRouter {
 public:
  void route(const std::map<int, int>& overrides);

 private:
  const std::map<int, long>& snapshot() const;
  std::map<int, long> targets_;
  std::unordered_map<int, long> index_;
  util::FlatMap<int, long> fast_;
  // Ordered iteration feeds the debug dump; never on the data path.
  std::map<int, long> names_;  // cmtos-analyze: allow(hot-path-map)
};
inline void helper() {
  std::map<int, int> scratch;
  (void)scratch;
}
"""
HM_EXPECT = {
    (9, "hot-path-map"),    # std::map member in a scale-critical layer
    (10, "hot-path-map"),   # std::unordered_map member likewise
}

TI_PROBE = """\
#include "sim/node_runtime.h"
class Poller {
 public:
  sim::EventHandle arm(Duration d);
  void rearm(sim::EventHandle h);

 private:
  struct Pending {
    sim::EventHandle timeout;
  };
  sim::EventHandle tick_;
  std::vector<sim::EventHandle> retries_;
  sim::Timer poll_;
};
"""
TI_EXPECT = {
    (9, "timer-idiom"),    # handle stored in a nested record
    (11, "timer-idiom"),   # handle member
    (12, "timer-idiom"),   # container of handles
}

# The primitive's own home: src/sim/ stores raw handles (Timer wraps one).
TI_SIM_PROBE = """\
class Timer {
 private:
  EventHandle h_;
};
"""

ET_PROBE = """\
#include "transport/transport_entity.h"
std::unique_ptr<Connection> TransportEntity::detach(VcId vc) {
  if (auto it = sources_.find(vc); it != sources_.end()) {
    sources_.erase(it);
  } else {
    sinks_.erase(vc);
  }
}
void TransportEntity::release_reservations(const VcReservations& resv) {
  network_.release(resv.forward);
}
void ConnectionManager::on_peer_dead(VcId vc) {
  if (auto it = ent_.sources_.find(vc); it != ent_.sources_.end()) {
    ent_.sources_.erase(it);
  }
  ent_.network_.release(resv);
  ent_.runtime().after_global(0, [this, vc] { ent_.sinks_.erase(vc); });
  network.release(resv);  // cmtos-analyze: allow(endpoint-teardown)
}
void HeartbeatEngine::detach(const Connection& conn) {
  sinks_.erase(conn.id());
}
"""
ET_EXPECT = {
    (14, "endpoint-teardown"),  # hand-written endpoint erase
    (16, "endpoint-teardown"),  # reservation released outside the helpers
    (17, "endpoint-teardown"),  # inside a lambda: the enclosing function counts
    (21, "endpoint-teardown"),  # a `detach` of another class is no helper
}

# Outside src/transport the substrate releases its own reservations.
ET_NET_PROBE = """\
void Network::preempt_for() {
  network_.release(victim);
}
"""

HS_PROBE = """\
#include "transport/transport_entity.h"
inline constexpr int kHandshakeRetries = 3;
struct PendingCc {
  int retries_left = kHandshakeRetries;
};
Duration TransportEntity::handshake_delay() { return 0; }
void ConnectionManager::arm_cr_timer(VcId vc) {
  retx.after_global(rt, ent_.handshake_delay(), [this, vc] {
    if (it->second.retries_left-- > 0) resend(vc);
  });
}
template <class Find, class GiveUp>
void TransportEntity::send_handshake(net::NodeId peer, Find find, GiveUp give_up) {
  find()->retries_left = kHandshakeRetries;
}
template <class Find, class GiveUp>
void TransportEntity::arm_handshake(Handshake& hs, Find find, GiveUp give_up) {
  hs.retransmit.after_global(runtime(), handshake_delay(), [this, find, give_up] {
    arm_handshake(*find(), find, give_up);
  });
}
void RenegotiationEngine::rearm(VcId vc) {
  timer.after_global(rt, ent_.handshake_delay(), [] {});  // cmtos-analyze: allow(handshake-retransmit)
}
"""
HS_EXPECT = {
    (4, "handshake-retransmit"),  # a record defaulting its own retry budget
    (8, "handshake-retransmit"),  # a hand-written retransmit loop's delay draw
}

# Outside src/transport the names are not the transport's handshake.
HS_PASS_PROBE = """\
void Llo::retry() {
  timer.after(rt, handshake_delay(), [] {});
}
"""

OC_PROBE = """\
#include "orch/opdu.h"
Opdu Opdu::command(OpduType type, OrchSessionId session, VcId vc, NodeId orch, std::uint32_t e) {
  Opdu o;
  o.type = OpduType::kSessReq;
  return o;
}
void SessionTable::release(OrchSessionId s) {
  Opdu o;
  o.type = OpduType::kSessRel;
  if (o.type == OpduType::kSessRel) send(o);
}
void RegulationEngine::handle_prime(const Opdu& o) {
  auto report = [&] { Opdu p; p .type =
      OpduType::kPrimed; };
  Opdu ack = Opdu::reply(OpduType::kPrimeAck, o.session, o.vc, node_);
}
void Llo::handle_time_req(const Opdu& o) {
  Opdu resp;
  resp.type = OpduType::kTimeResp;
  Opdu nack;
  nack.type = OpduType::kEpochNack;  // cmtos-analyze: allow(opdu-construction)
}
"""
OC_EXPECT = {
    (9, "opdu-construction"),   # an OPDU built field by field
    (13, "opdu-construction"),  # inside a lambda: the enclosing function counts
}

# Outside src/orch the same assignment is a test or bench building a probe.
OC_PASS_PROBE = """\
void build_probe() {
  Opdu o;
  o.type = OpduType::kRegInd;
}
"""

DA_PROBE = """\
#include "net/packet.h"
struct Bands {
  std::array<std::deque<Packet>, 2> queues;
  std::deque<cmtos::net::Packet> spill;
  RingDeque<Packet> ring;
  std::deque<Osdu> delivery;
};
void Link::propagate_batch(std::vector<Packet>&& batch) {
  auto shared = std::make_shared<std::vector<net::Packet>>(std::move(batch));
  auto one = std::make_shared<Packet>(std::move(batch.front()));
  std::deque<Packet> spare;  // cmtos-analyze: allow(dataplane-alloc)
}
"""
DA_EXPECT = {
    (3, "dataplane-alloc"),   # a link band that allocates as it slides
    (4, "dataplane-alloc"),   # qualified element type
    (9, "dataplane-alloc"),   # a batch boxed for its delivery event
}

DA_TRANSPORT_PROBE = """\
void DataTpdu::encode_onto(net::Packet& pkt) const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(16);
}
std::vector<std::uint8_t> AckTpdu::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  return out;
}
void TransportEntity::send_burst(std::vector<net::Packet>&& burst) {
  auto boxed = std::make_shared<std::deque<Packet>>();
  std::deque<Packet> staged;
}
"""
DA_TRANSPORT_EXPECT = {
    (3, "dataplane-alloc"),   # the DT header built through a ByteWriter
    (3, "wire-table"),        # ... which no hand-written codec may hold either
    (8, "wire-table"),        # a table-driven PDU encoded by hand
    (12, "dataplane-alloc"),  # make_shared of a packet deque outside src/net
}

WT_PROBE = """\
#include "util/byte_io.h"
void write_address(ByteWriter& w, const net::NetAddress& a) {
  w.u32(a.node);
}
std::optional<Opdu> Opdu::decode(std::span<const std::uint8_t> in, WireFault* fault) {
  ByteReader r(in);
  return std::nullopt;
}
bool HeartbeatTpdu::decode_into(std::span<const std::uint8_t> in, HeartbeatTpdu& t,
                                WireFault* fault) {
  return wire::decode_checked(in, fault, [&t](ByteReader& r) { return WireFault::kNone; });
}
std::optional<VcId> peek_vc(std::span<const std::uint8_t> in) {
  ByteReader r(in.subspan(1));
  return r.u64();
}
void FeedbackTpdu::dump(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);  // cmtos-analyze: allow(wire-table)
}
"""
WT_EXPECT = {
    (2, "wire-table"),  # a nested struct's fields written by a helper
    (6, "wire-table"),  # a table-driven PDU decoded field by field
}

# Outside the PDU layers a ByteWriter is an application payload codec; a
# table-driven PDU's member is still flagged wherever it is defined.
WT_PASS_PROBE = """\
std::vector<std::uint8_t> encode_offer(const Offer& o) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  return out;
}
std::vector<std::uint8_t> RpcMsg::encode() const {
  ByteWriter w(out);
}
"""
WT_PASS_EXPECT = {
    (7, "wire-table"),  # an RpcMsg encoder outside the engine
}

LY_PROBE = """\
#include <map>
#include "net/packet.h"
#include "orch/hlo_agent.h"
#include "util/time.h"
#include "media/content.h"
// #include "platform/host.h"
#include "fixtures.h"
#include "platform/host.h"  // cmtos-analyze: allow(layering)
"""
LY_EXPECT = {
    (3, "layering"),  # transport includes orch: an upward edge
    (5, "layering"),  # media is above transport too
}

# orch links transport, so the same include one layer up is downward.
LY_PASS_PROBE = """\
#include "orch/llo.h"
#include "transport/transport_entity.h"
#include "net/network.h"
"""

PROBES = (
    # (relative path the dir-scoped checks see, source, expected findings)
    ("src/transport/probe_callbacks.cpp", CB_PROBE, CB_EXPECT),
    ("src/net/probe_hotmap.h", HM_PROBE, HM_EXPECT),
    ("src/net/probe_dataplane.cpp", DP_PROBE, DP_EXPECT),
    ("src/orch/probe_shard.cpp", SH_PROBE, SH_EXPECT),
    ("src/media/probe_freeze.cpp", FL_PROBE, FL_EXPECT),
    ("src/platform/probe_members.h", FL_MEMBER_PROBE, FL_MEMBER_EXPECT),
    ("src/orch/probe_epoch.cpp", EP_PROBE, EP_EXPECT),
    ("src/transport/probe_decode.cpp", DT_PROBE, DT_EXPECT),
    ("src/platform/probe_timers.h", TI_PROBE, TI_EXPECT),
    ("src/sim/probe_timer.h", TI_SIM_PROBE, set()),
    ("src/transport/probe_teardown.cpp", ET_PROBE, ET_EXPECT),
    ("src/net/probe_release.cpp", ET_NET_PROBE, set()),
    ("src/transport/probe_handshake.h", HS_PROBE, HS_EXPECT),
    ("src/orch/probe_handshake.cpp", HS_PASS_PROBE, set()),
    ("src/orch/probe_opdu.cpp", OC_PROBE, OC_EXPECT),
    ("src/transport/probe_opdu.cpp", OC_PASS_PROBE, set()),
    ("src/net/probe_alloc.cpp", DA_PROBE, DA_EXPECT),
    ("src/transport/probe_alloc.cpp", DA_TRANSPORT_PROBE, DA_TRANSPORT_EXPECT),
    ("src/orch/probe_wire.cpp", WT_PROBE, WT_EXPECT),
    ("src/platform/probe_wire.cpp", WT_PASS_PROBE, WT_PASS_EXPECT),
    ("src/transport/probe_layering.h", LY_PROBE, LY_EXPECT),
    ("src/orch/probe_layering.h", LY_PASS_PROBE, set()),
)


def selftest(engines: list[str], index, compdb: dict) -> int:
    import tempfile

    ok = True
    with tempfile.TemporaryDirectory(dir=REPO_ROOT) as tmp:
        for rel, source, expect in PROBES:
            probe = Path(tmp) / rel
            probe.parent.mkdir(parents=True, exist_ok=True)
            probe.write_text(source, encoding="utf-8")
        for engine in engines:
            for rel, source, expect in PROBES:
                probe = Path(tmp) / rel
                got = {(f.line, f.check)
                       for f in analyze_file(probe, rel=rel, engine=engine,
                                             index=index, compdb=compdb)}
                if got != expect:
                    print(f"cmtos-analyze selftest FAILED [{engine}] {rel}:\n"
                          f"  missing:  {sorted(expect - got)}\n"
                          f"  spurious: {sorted(got - expect)}", file=sys.stderr)
                    ok = False
            if ok:
                print(f"cmtos-analyze selftest passed [{engine}]", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


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


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="cmtos_analyze.py",
        description="AST-aware ownership/affinity checks (see module docstring)")
    ap.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    ap.add_argument("--engine", choices=["auto", "structural", "libclang"],
                    default="auto")
    ap.add_argument("--compdb", type=Path, default=DEFAULT_COMPDB,
                    help="compile_commands.json (default: build/)")
    ap.add_argument("--selftest", action="store_true",
                    help="verify every check fires on probes and honours allow()")
    ap.add_argument("--list-checks", action="store_true")
    opts = ap.parse_args(argv)

    if opts.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    index = None
    engine = opts.engine
    if engine in ("auto", "libclang"):
        index = libclang_index()
        if index is None:
            if engine == "libclang":
                print("cmtos-analyze: --engine libclang requested but clang.cindex/"
                      "libclang is unavailable", file=sys.stderr)
                return 2
            engine = "structural"
        else:
            engine = "libclang"
    compdb = load_compdb(opts.compdb)
    if engine == "libclang" and not compdb:
        print(f"cmtos-analyze: note: no compile_commands.json at {opts.compdb}; "
              "using default clang args (configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)

    if opts.selftest:
        engines = ["structural"] + (["libclang"] if index is not None else [])
        return selftest(engines, index, compdb)

    findings: list[Finding] = []
    files = iter_files(opts.paths)
    for f in files:
        findings.extend(analyze_file(f, engine=engine, index=index, compdb=compdb))
    for finding in findings:
        print(finding)
    print(f"cmtos-analyze [{engine}]: {len(files)} files, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
