#!/usr/bin/env python3
"""ssdse_semantic: flow-sensitive checks for the ssdse simulator.

Where scripts/lint/ssdse_lint.py pattern-matches single lines, this
analyzer reasons about *flow*: what a bound value reaches, what a loop
body feeds, what a guarded block may execute. Three rule classes, each
guarding an invariant the strong-type layer (src/util/types.hpp,
DESIGN.md §16) cannot express:

  latency-drop     A local `Micros` bound from a call and never read
                   again is simulated time that fell on the floor: the
                   type system proves the unit, not that the cost was
                   *charged*. Every bound latency must reach a `+=`
                   merge, a histogram/telemetry sink, a return — or be
                   suppressed with a justification.
  unordered-merge  Iterating an unordered_{map,set} is only benign when
                   the consumer is order-insensitive. A loop body that
                   feeds a fingerprint, hash, or merged report turns
                   libstdc++ bucket order into observable output — a
                   determinism bug the generic unordered-iter lint rule
                   cannot distinguish from a harmless sum.
  rng-in-guard     Blocks guarded by `!ReplicationConfig::active()` (or
                   a zero-fault/zero-rate comparison) promise the
                   pass-through determinism contract: policy-off runs
                   reproduce the seed bit-for-bit, so no Rng stream may
                   advance inside them. Any reachable `*.next_*()` draw
                   in such a block breaks replay.

Front-ends
----------
The precise front-end drives `clang++ -Xclang -ast-dump=json` over the
translation units listed in a CMake-exported compile_commands.json and
walks the AST (declaration ids make use-def exact). When no clang is on
PATH, or no translation unit yields an AST, `--frontend clang` exits 2
(the AST front-end did not run, so nothing was checked), while the
default `auto` mode falls back to a comment/string-aware textual
front-end that brace-scopes the same three rules. Both front-ends
report identically shaped findings, so suppressions work regardless of
which one ran.

A violating line can be allowed with an inline annotation on the same
line or the line above — the justification text is mandatory:

    // ssdse-semantic: allow(<rule>) <why this flow is safe>

Run with --self-test to verify every rule class fires on a seeded
violation (what the `ssdse_semantic_selftest` CTest runs). Exit status:
0 clean, 1 violations found, 2 usage/internal error or `--frontend
clang` without a working AST front-end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".cc", ".cxx"}

ALLOW_RE = re.compile(r"//\s*ssdse-semantic:\s*allow\(([a-z-]+)\)\s*(.*)")

RULES = ("latency-drop", "unordered-merge", "rng-in-guard")


# --- code model -------------------------------------------------------------

def blank_noncode(text: str) -> str:
    """Replace comment bodies and string-literal contents with spaces,
    preserving length and newlines, so regex and brace scans only ever
    see code. Handles //, /* */, "..." and '...' well enough for this
    codebase (no raw strings in src/)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or
                                     text[i - 1] == "_"):
            # Digit separator (10'000, 0x9e37'79b9ull), not a character
            # literal: preceded by an alphanumeric.
            i += 1
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    """1-based line number of offset `pos`."""
    return text.count("\n", 0, pos) + 1


def matching_brace(code: str, open_pos: int) -> int:
    """Offset of the `}` matching the `{` at open_pos, or len(code)."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def statement_after(code: str, pos: int) -> str:
    """The statement controlled by a for/if header ending at `pos`: the
    brace-matched block when one opens next, else up to the `;`."""
    i = pos
    while i < len(code) and code[i].isspace():
        i += 1
    if i < len(code) and code[i] == "{":
        return code[i:matching_brace(code, i) + 1]
    semi = code.find(";", i)
    return code[i:semi + 1] if semi >= 0 else code[i:]


def enclosing_scope_end(code: str, pos: int) -> int:
    """Offset where the innermost scope containing `pos` closes (depth
    drops below the depth at `pos`), or len(code)."""
    depth = 0
    for i in range(pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(code)


# --- rule: latency-drop (textual) -------------------------------------------

# A local Micros bound from a *call* (member, free, or chained field off
# a call result). Accumulator seeds (`Micros t = micros(0);`) are used
# later by construction and handled by the same liveness scan. Members
# (`name_`) and parameters are out of scope: their uses span TUs.
LATENCY_DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\n\s*)(?:const\s+)?(?:ssdse::)?Micros\s+"
    r"([a-z][A-Za-z0-9]*)\s*=\s*[\w.\->:\[\]]+\s*\(", re.MULTILINE)


def check_latency_drop(path: Path, text: str, code: str, report) -> None:
    for m in LATENCY_DECL_RE.finditer(code):
        name = m.group(1)
        decl_end = code.index("(", m.end() - 1)
        scope_end = enclosing_scope_end(code, decl_end)
        rest = code[decl_end:scope_end]
        if re.search(rf"\b{re.escape(name)}\b", rest):
            continue
        report(path, line_of(code, m.start(1)), "latency-drop",
               f"latency '{name}' is bound and never read — the cost it "
               "carries reaches no += merge, histogram, or return; charge "
               "it or delete the binding")


# --- rule: unordered-merge (textual) ----------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(\w+)\s*\)")

# Order-sensitive sinks: anything that folds iteration order into a
# fingerprint, hash, or merged/reported aggregate.
SINK_RE = re.compile(
    r"fingerprint|hash_combine|std::hash|\.histogram\s*\(|\.observe\s*\(|"
    r"\.counter\s*\(|\.gauge\s*\(|snapshot|report|merge")


def check_unordered_merge(path: Path, text: str, code: str, report) -> None:
    declared: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        declared.add(m.group(1))
    if not declared:
        return
    for m in RANGE_FOR_RE.finditer(code):
        if m.group(1) not in declared:
            continue
        body = statement_after(code, m.end())
        sink = SINK_RE.search(body)
        if sink:
            report(path, line_of(code, m.start()), "unordered-merge",
                   f"iteration over unordered container '{m.group(1)}' "
                   f"feeds an order-sensitive sink ('{sink.group(0)}') — "
                   "bucket order becomes observable output; iterate a "
                   "sorted view")


# --- rule: rng-in-guard (textual) -------------------------------------------

# Guards that promise the pass-through / zero-fault determinism
# contract: negated active(), active() == false, or a zero comparison on
# a fault/rate/spike knob.
GUARD_RE = re.compile(
    r"if\s*\(\s*(?:!\s*[\w.\->]*\bactive\s*\(\s*\)"
    r"|[\w.\->]*\bactive\s*\(\s*\)\s*==\s*false"
    r"|[\w.\->]*(?:fault|rate|spike)[\w.\->]*\s*==\s*0(?:\.0f?)?)\s*\)")

RNG_DRAW_RE = re.compile(r"\b[\w]*rng[\w]*(?:\.|->)next_\w+\s*\(|"
                         r"\b[\w]*rng[\w]*(?:\.|->)chance\s*\(")


def check_rng_in_guard(path: Path, text: str, code: str, report) -> None:
    for m in GUARD_RE.finditer(code):
        block = statement_after(code, m.end())
        base = code.index(block[0], m.end()) if block else m.end()
        draw = RNG_DRAW_RE.search(block)
        if draw:
            report(path, line_of(code, base + draw.start()), "rng-in-guard",
                   "Rng draw inside a policy-off / zero-fault guarded "
                   "block — the pass-through determinism contract says "
                   "this stream must not advance here")


# --- clang AST front-end ----------------------------------------------------

def find_clang() -> str | None:
    for c in ("clang++", "clang++-19", "clang++-18", "clang++-17",
              "clang++-16", "clang++-15", "clang++-14"):
        if shutil.which(c):
            return c
    return None


def tu_flags(entry: dict) -> list[str]:
    """Include/define/std flags from one compile_commands entry."""
    args = entry.get("arguments")
    if not args:
        args = entry.get("command", "").split()
    keep: list[str] = []
    take_next = False
    for a in args[1:]:
        if take_next:
            keep.append(a)
            take_next = False
        elif a in ("-I", "-isystem", "-D"):
            keep.append(a)
            take_next = True
        elif a.startswith(("-I", "-D", "-std=", "-isystem")):
            keep.append(a)
    return keep


def ast_latency_drop(path: Path, ast: dict, report) -> None:
    """Exact use-def over the AST: a VarDecl of type Micros whose id is
    never referenced by any DeclRefExpr is a dropped latency."""
    decls: dict[str, tuple[str, int]] = {}
    used: set[str] = set()
    line_ctx = [0]  # clang omits repeated line numbers; carry forward

    def walk(node) -> None:
        if isinstance(node, list):
            for item in node:
                walk(item)
            return
        if not isinstance(node, dict):
            return
        loc = node.get("loc")
        if isinstance(loc, dict) and "line" in loc:
            line_ctx[0] = loc["line"]
        kind = node.get("kind")
        if kind == "VarDecl" and node.get("init"):
            qt = node.get("type", {}).get("qualType", "")
            if re.fullmatch(r"(const )?(ssdse::)?Micros", qt):
                decls[node["id"]] = (node.get("name", "?"), line_ctx[0])
        elif kind == "DeclRefExpr":
            ref = node.get("referencedDecl", {})
            if isinstance(ref, dict) and "id" in ref:
                used.add(ref["id"])
        for child in node.get("inner", []):
            walk(child)

    walk(ast)
    for decl_id, (name, line) in decls.items():
        if decl_id not in used:
            report(path, line, "latency-drop",
                   f"latency '{name}' is bound and never read (AST "
                   "use-def) — charge it or delete the binding")


def run_clang_frontend(root: Path, build: Path, clang: str,
                       files: dict[Path, str], report) -> bool:
    """Rule latency-drop via clang AST over compile_commands.json
    entries for files under src/. Returns False if the database is
    unusable (caller falls back to textual)."""
    db_path = build / "compile_commands.json"
    if not db_path.is_file():
        return False
    try:
        db = json.loads(db_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return False
    ran_any = False
    for entry in db:
        src = Path(entry["file"])
        if not src.is_absolute():
            src = Path(entry.get("directory", ".")) / src
        src = src.resolve()
        if src not in files:
            continue
        cmd = [clang, "-x", "c++", "-fsyntax-only", "-Xclang",
               "-ast-dump=json", *tu_flags(entry), str(src)]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=300, cwd=entry.get("directory"))
        except (OSError, subprocess.TimeoutExpired):
            continue
        if not out.stdout.lstrip().startswith("{"):
            continue
        try:
            ast = json.loads(out.stdout)
        except json.JSONDecodeError:
            continue
        ast_latency_drop(src, ast, report)
        ran_any = True
    return ran_any


# --- driver -----------------------------------------------------------------

class Analyzer:
    def __init__(self, root: Path, build: Path | None, frontend: str):
        self.root = root
        self.build = build
        self.frontend = frontend
        self.violations: list[tuple[Path, int, str, str]] = []
        self.bad_allows: list[tuple[Path, int, str]] = []
        self.frontend_used = "text"

    def collect(self) -> dict[Path, str]:
        files: dict[Path, str] = {}
        tree = self.root / "src"
        if not tree.is_dir():
            return files
        for p in sorted(tree.rglob("*")):
            if p.suffix in CPP_SUFFIXES:
                files[p.resolve()] = p.read_text(encoding="utf-8")
        return files

    def allowed(self, text: str, row: int, rule: str) -> bool:
        lines = text.splitlines()
        for candidate in (row - 1, row - 2):
            if 0 <= candidate < len(lines):
                m = ALLOW_RE.search(lines[candidate])
                if m and m.group(1) == rule:
                    return True
        return False

    def run(self) -> int:
        files = self.collect()

        def report(path: Path, row: int, rule: str, msg: str) -> None:
            if self.allowed(files[path], row, rule):
                return
            self.violations.append((path, row, rule, msg))

        clang = find_clang() if self.frontend in ("auto", "clang") else None
        if self.frontend == "clang" and clang is None:
            print("ssdse_semantic: --frontend clang: no clang++ on PATH "
                  "for AST dumps", file=sys.stderr)
            return 2

        ast_ok = False
        if clang is not None and self.build is not None:
            ast_ok = run_clang_frontend(self.root, self.build, clang,
                                        files, report)
            if ast_ok:
                self.frontend_used = "clang+text"
        if self.frontend == "clang" and not ast_ok:
            print("ssdse_semantic: --frontend clang: no AST from the "
                  "compile_commands.json under "
                  f"{self.build or '<no build dir>'}", file=sys.stderr)
            return 2

        for path, text in sorted(files.items()):
            code = blank_noncode(text)
            if not ast_ok:
                check_latency_drop(path, text, code, report)
            check_unordered_merge(path, text, code, report)
            check_rng_in_guard(path, text, code, report)
            for i, line in enumerate(text.splitlines()):
                m = ALLOW_RE.search(line)
                if m and not m.group(2).strip():
                    self.bad_allows.append((path, i + 1, m.group(1)))

        for path, row, rule, msg in self.violations:
            rel = path.relative_to(self.root.resolve())
            print(f"{rel}:{row}: [{rule}] {msg}")
        for path, row, rule in self.bad_allows:
            rel = path.relative_to(self.root.resolve())
            print(f"{rel}:{row}: [allow-without-reason] allow({rule}) "
                  "needs a justification after the closing parenthesis")
        total = len(self.violations) + len(self.bad_allows)
        if total:
            print(f"ssdse_semantic: {total} violation(s) "
                  f"[frontend: {self.frontend_used}]")
            return 1
        print(f"ssdse_semantic: clean [frontend: {self.frontend_used}]")
        return 0


# --- self-test --------------------------------------------------------------

SEEDED = {
    "latency-drop": """
#include "types.hpp"
ssdse::Micros fetch();
double serve() {
  ssdse::Micros t = fetch();
  return 1.0;
}
""",
    "unordered-merge": """
#include <cstdint>
#include <unordered_map>
std::uint64_t fingerprint(std::uint64_t h, int v);
std::uint64_t digest() {
  std::unordered_map<int, int> hits;
  std::uint64_t h = 0;
  for (const auto& [k, v] : hits) h = fingerprint(h, v);
  return h;
}
""",
    "rng-in-guard": """
struct Cfg { bool active() const; };
struct Rng { double next_double(); };
double serve(const Cfg& rep, Rng& rng) {
  if (!rep.active()) {
    return rng.next_double();
  }
  return 0.0;
}
""",
}

CLEAN = """
#include "types.hpp"
ssdse::Micros fetch();
struct Hist { void observe(ssdse::Micros t); };
ssdse::Micros serve(Hist& h) {
  ssdse::Micros total{};
  const ssdse::Micros t = fetch();
  total += t;
  h.observe(total);
  return total;
}
"""

ANNOTATED = """
#include "types.hpp"
ssdse::Micros fetch();
double serve() {
  // ssdse-semantic: allow(latency-drop) probe; callee charges the cost
  ssdse::Micros t = fetch();
  return 1.0;
}
"""

TYPES_STUB = """
#pragma once
namespace ssdse {
class Micros {
 public:
  Micros() = default;
  Micros& operator+=(Micros) { return *this; }
};
}  // namespace ssdse
"""


def self_test() -> int:
    failures = []

    def run_tree(spec: dict[str, str]) -> list[tuple[str, str]]:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, content in spec.items():
                dest = root / name
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(content, encoding="utf-8")
            analyzer = Analyzer(root, None, "text")
            with contextlib.redirect_stdout(io.StringIO()):
                analyzer.run()
            return [(v[2], str(v[0].name)) for v in analyzer.violations]

    for rule, content in SEEDED.items():
        found = run_tree({"src/seeded.cpp": content,
                          "src/types.hpp": TYPES_STUB})
        if not any(r == rule for r, _ in found):
            failures.append(f"rule '{rule}' did not fire on seeded "
                            f"violation (got {found})")

    clean_found = run_tree({"src/clean.cpp": CLEAN,
                            "src/types.hpp": TYPES_STUB})
    if clean_found:
        failures.append(f"clean tree reported violations: {clean_found}")

    annotated_found = run_tree({"src/annotated.cpp": ANNOTATED,
                                "src/types.hpp": TYPES_STUB})
    if annotated_found:
        failures.append(
            f"annotated allow was not honoured: {annotated_found}")

    # When a clang is available, the AST front-end must agree with the
    # textual one on the latency-drop seed (exact use-def).
    clang = find_clang()
    if clang is not None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            src = root / "src"
            src.mkdir(parents=True)
            (src / "types.hpp").write_text(TYPES_STUB, encoding="utf-8")
            (src / "seeded.cpp").write_text(SEEDED["latency-drop"],
                                            encoding="utf-8")
            build = root / "build"
            build.mkdir()
            (build / "compile_commands.json").write_text(json.dumps([{
                "directory": str(src),
                "file": str(src / "seeded.cpp"),
                "arguments": [clang, "-std=c++20", "-c",
                              str(src / "seeded.cpp")],
            }]), encoding="utf-8")
            analyzer = Analyzer(root, build, "clang")
            with contextlib.redirect_stdout(io.StringIO()):
                analyzer.run()
            found = [(v[2], str(v[0].name)) for v in analyzer.violations]
            if not any(r == "latency-drop" for r, _ in found):
                failures.append("clang AST front-end did not fire "
                                f"latency-drop (got {found})")

    # `--frontend clang` must fail, not pass, when no AST front-end ran
    # (here: no compile database).
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        src.mkdir()
        (src / "clean.cpp").write_text(CLEAN, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = Analyzer(Path(tmp), None, "clang").run()
        if code != 2:
            failures.append("--frontend clang without an AST exited "
                            f"{code}, expected 2")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    suffix = "text+clang front-ends" if clang else \
        "text front-end (no clang on PATH)"
    print(f"self-test OK: {len(SEEDED)} rule classes fire, clean tree "
          f"passes, allow annotations honoured [{suffix}]")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).
                    resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("--build", type=Path, default=None,
                    help="build dir holding compile_commands.json")
    ap.add_argument("--frontend", choices=("auto", "clang", "text"),
                    default="auto",
                    help="auto: clang AST when available, else textual; "
                         "clang: AST or exit 2; text: textual only")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule class fires on a seeded "
                         "violation")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.root / "src").is_dir():
        print(f"ssdse_semantic: no src/ under {args.root}",
              file=sys.stderr)
        return 2
    build = args.build
    if build is None and (args.root / "build").is_dir():
        build = args.root / "build"
    return Analyzer(args.root, build, args.frontend).run()


if __name__ == "__main__":
    sys.exit(main())
