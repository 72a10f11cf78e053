#!/usr/bin/env python3
"""ssdse_lint: repo-specific static checks for the ssdse simulator.

The simulator's headline guarantee is determinism: identical configs
replay bit-identically, across fault rates, tracing modes, and warm
restarts (DESIGN.md §11). This checker machine-enforces the invariants
that guarantee rests on, none of which a generic linter knows about:

  nondeterminism   src/ must not touch wall-clock time or ambient
                   randomness (std::rand, random_device, chrono clocks,
                   time(), argless Rng/engine seeding). All randomness
                   flows through explicitly seeded ssdse::Rng instances.
  unordered-iter   Iterating an unordered_{map,set} yields a
                   platform/libstdc++-dependent order; any such loop
                   that feeds results, fingerprints, or reports must be
                   provably order-insensitive and annotated.
  metric-name      Telemetry metrics use hierarchical dotted lowercase
                   names ("cache.l1.result.hits"); registration call
                   sites are checked against that convention.
  metric-dup       The same metric name registered at two different
                   sites silently double-reports after a merge; exact
                   duplicates across src/ are flagged.
  header-pragma    Every header uses #pragma once.
  header-using     No `using namespace` in headers.

A violating line can be allowed with an inline annotation on the same
line or the line above:

    // ssdse-lint: allow(<rule>) <why this is safe>

The justification text is mandatory: an allow without a reason is
itself a violation. An allow that no longer suppresses anything — the
code it excused was fixed or deleted, the comment survived — is also a
violation (`allow-stale`): stale suppressions are how real violations
sneak back in unreviewed. Run with --self-test to verify every rule
fires on a seeded violation (this is what the `ssdse_lint_selftest`
CTest runs).

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".cc", ".cxx"}
HDR_SUFFIXES = {".hpp", ".h", ".hh"}

ALLOW_RE = re.compile(r"//\s*ssdse-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# --- rule: nondeterminism ---------------------------------------------------

NONDET_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "chrono system_clock"),
    (re.compile(r"\bsteady_clock\b"), "chrono steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "chrono high_resolution_clock"),
    (re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\bstd::mt19937(?:_64)?\s+\w+\s*[;{(]\s*[)}]?\s*;?\s*$"),
     "default-seeded std engine"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    # ssdse::Rng has a default seed; local `Rng r;` silently reuses it.
    # Members are initialised from config seeds in ctor init lists and
    # follow the `name_` convention, so they are excluded.
    (re.compile(r"\bRng\s+[a-z][a-z0-9]*\s*;"), "argless Rng seeding"),
    (re.compile(r"\bRng\s*(?:\(\s*\)|\{\s*\})"), "argless Rng construction"),
]


def check_nondeterminism(path: Path, lines: list[str], report) -> None:
    for i, line in enumerate(lines):
        code = strip_comment(line)
        for pat, what in NONDET_PATTERNS:
            if pat.search(code):
                report(path, i + 1, "nondeterminism",
                       f"{what} in simulation code (all randomness and time "
                       "must come from seeded Rng / simulated Micros)")


# --- rule: unordered-iter ---------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(\w+)\s*\)")


def check_unordered_iter(path: Path, lines: list[str], report) -> None:
    declared: set[str] = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(strip_comment(line)):
            declared.add(m.group(1))
    if not declared:
        return
    for i, line in enumerate(lines):
        m = RANGE_FOR_RE.search(strip_comment(line))
        if m and m.group(1) in declared:
            report(path, i + 1, "unordered-iter",
                   f"iteration over unordered container '{m.group(1)}' — "
                   "order is implementation-defined; prove the consumer is "
                   "order-insensitive and annotate, or iterate a sorted view")


# --- rules: metric-name / metric-dup ----------------------------------------

REGISTER_RE = re.compile(
    r"\.(counter|counter_fn|gauge|gauge_value|histogram)\s*\(")
FULL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
SUFFIX_NAME_RE = re.compile(r"^(\.[a-z0-9_]+)+$")
# A literal piece of a concatenated name ("trace." + to_string(stage) +
# ".us"): dotted lowercase segments, optionally open at either end where
# the runtime parts splice in.
FRAGMENT_RE = re.compile(r"^\.?[a-z0-9_]+(\.[a-z0-9_]+)*\.?$")


def first_arg_literals(lines: list[str], row: int, col: int) -> list[str]:
    """String literals inside the first argument of the call starting at
    (row, col) — col pointing at the opening parenthesis."""
    text = "\n".join(lines[row:row + 4])  # registrations never span more
    depth = 0
    i = text.index("(", col)
    arg = []
    while i < len(text):
        c = text[i]
        if c == '"':
            j = i + 1
            while j < len(text) and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            arg.append(text[i:j + 1])
            i = j + 1
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            break
        i += 1
    return [a.strip('"') for a in arg]


def check_metrics(files: dict[Path, list[str]], report) -> None:
    registered: dict[str, tuple[Path, int]] = {}
    for path, lines in sorted(files.items()):
        if path.suffix not in CPP_SUFFIXES:
            continue
        for i, line in enumerate(lines):
            code = strip_comment(line)
            for m in REGISTER_RE.finditer(code):
                lits = first_arg_literals(lines, i, m.end() - 1)
                if not lits:
                    continue  # computed name; convention checked at its parts
                name = lits[0]
                if len(lits) > 1:
                    # Concatenated name: each literal fragment must keep the
                    # dotted lowercase shape; dedup can't see runtime parts.
                    for frag in lits:
                        if not FRAGMENT_RE.match(frag):
                            report(path, i + 1, "metric-name",
                                   f'metric fragment "{frag}" violates the '
                                   "dotted lowercase convention")
                    continue
                pattern = SUFFIX_NAME_RE if name.startswith(".") else \
                    FULL_NAME_RE
                if not pattern.match(name):
                    report(path, i + 1, "metric-name",
                           f'metric "{name}" violates the dotted lowercase '
                           "convention (e.g. cache.l1.result.hits)")
                if not name.startswith("."):
                    prev = registered.get(name)
                    if prev is not None and prev[0:2] != (path, i + 1):
                        report(path, i + 1, "metric-dup",
                               f'metric "{name}" already registered at '
                               f"{prev[0]}:{prev[1]} — merged snapshots "
                               "would double-report it")
                    else:
                        registered[name] = (path, i + 1)


# --- rules: header hygiene --------------------------------------------------

def check_headers(path: Path, lines: list[str], report) -> None:
    if path.suffix not in HDR_SUFFIXES:
        return
    if not any(line.strip() == "#pragma once" for line in lines):
        report(path, 1, "header-pragma", "header lacks #pragma once")
    for i, line in enumerate(lines):
        if re.search(r"\busing\s+namespace\b", strip_comment(line)):
            report(path, i + 1, "header-using",
                   "`using namespace` in a header leaks into every includer")


# --- driver -----------------------------------------------------------------

def strip_comment(line: str) -> str:
    """Drop // comments (string-literal-aware enough for this codebase)."""
    out = []
    in_str = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == '"' and (i == 0 or line[i - 1] != "\\"):
            in_str = not in_str
        if not in_str and c == "/" and i + 1 < len(line) and \
                line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[tuple[Path, int, str, str]] = []
        self.bad_allows: list[tuple[Path, int, str]] = []
        # (path, 0-based row) of every allow annotation that suppressed
        # at least one violation this run — the rest are stale.
        self.used_allows: set[tuple[Path, int]] = set()

    def collect_tree(self, subdir: str) -> dict[Path, list[str]]:
        files: dict[Path, list[str]] = {}
        tree = self.root / subdir
        if not tree.is_dir():
            return files
        for p in sorted(tree.rglob("*")):
            if p.suffix in CPP_SUFFIXES | HDR_SUFFIXES:
                files[p] = p.read_text(encoding="utf-8").splitlines()
        return files

    def allowed(self, path: Path, lines: list[str], row: int,
                rule: str) -> bool:
        """Annotation on the violating line or the line above it."""
        for candidate in (row - 1, row - 2):
            if 0 <= candidate < len(lines):
                m = ALLOW_RE.search(lines[candidate])
                if m and m.group(1) == rule:
                    self.used_allows.add((path, candidate))
                    return True
        return False

    def run(self) -> int:
        src_files = self.collect_tree("src")
        # bench/ binaries measure real wall time by design, so only the
        # nondeterminism rule applies there — and every wall-clock read
        # must carry a justified allow naming what it measures. Results
        # and fingerprints must never depend on it.
        bench_files = self.collect_tree("bench")
        files = {**src_files, **bench_files}

        def report(path: Path, row: int, rule: str, msg: str) -> None:
            if self.allowed(path, files[path], row, rule):
                return
            self.violations.append((path, row, rule, msg))

        # Every allow annotation in the scanned trees: (path, 0-based
        # row, rule, justification). Needed up front so staleness can be
        # judged after all rules have run.
        allow_sites: list[tuple[Path, int, str, str]] = []
        for path, lines in sorted(files.items()):
            check_nondeterminism(path, lines, report)
            for i, line in enumerate(lines):
                m = ALLOW_RE.search(line)
                if m is None:
                    continue
                allow_sites.append((path, i, m.group(1),
                                    m.group(2).strip()))
                # Allow annotations must carry a justification.
                if not m.group(2).strip():
                    self.bad_allows.append((path, i + 1, m.group(1)))
        for path, lines in sorted(src_files.items()):
            check_unordered_iter(path, lines, report)
            check_headers(path, lines, report)
        check_metrics(src_files, report)

        # Staleness: an allow that suppressed nothing this run excuses
        # code that no longer exists — it must be deleted, or a future
        # violation on that line would be waved through unreviewed.
        # Reason-less allows are already flagged above; one error per
        # annotation is enough.
        for path, row0, rule, reason in allow_sites:
            if reason and (path, row0) not in self.used_allows:
                self.violations.append(
                    (path, row0 + 1, "allow-stale",
                     f"allow({rule}) no longer suppresses anything — the "
                     "code it excused changed; delete the annotation"))

        for path, row, rule, msg in self.violations:
            rel = path.relative_to(self.root)
            print(f"{rel}:{row}: [{rule}] {msg}")
        for path, row, rule in self.bad_allows:
            rel = path.relative_to(self.root)
            print(f"{rel}:{row}: [allow-without-reason] allow({rule}) "
                  "needs a justification after the closing parenthesis")
        total = len(self.violations) + len(self.bad_allows)
        if total:
            print(f"ssdse_lint: {total} violation(s)")
            return 1
        print("ssdse_lint: clean")
        return 0


# --- self-test --------------------------------------------------------------

SEEDED = {
    "nondeterminism": """
#pragma once
#include <chrono>
inline double now_us() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
    "unordered-iter": """
#pragma once
#include <unordered_map>
inline int sum() {
  std::unordered_map<int, int> hits;
  int s = 0;
  for (const auto& [k, v] : hits) s += v;
  return s;
}
""",
    "metric-name": """
void reg(Registry& r, const unsigned long* p) {
  r.counter("CacheHits", p);
  r.counter_fn("cluster.Replica.dispatches", [] { return 0UL; });
}
""",
    "metric-dup": """
void reg(Registry& r, const unsigned long* p) {
  r.counter("cache.l1.hits", p);
  r.counter("cache.l1.hits", p);
}
""",
    "header-pragma": """
inline int no_guard() { return 1; }
""",
    "header-using": """
#pragma once
using namespace std;
""",
    # A justified allow whose excused code is gone: the annotation
    # suppresses nothing and must itself be flagged.
    "allow-stale": """
#pragma once
// ssdse-lint: allow(nondeterminism) the clock read this excused is gone
inline int f() { return 0; }
""",
}

CLEAN = """
#pragma once
#include "src/util/rng.hpp"
inline double draw(ssdse::Rng& rng) { return rng.next_double(); }
"""

# The broker's registration idiom for replication telemetry
# (cluster.broker.* plain counters, cluster.replica.* aggregated via
# counter_fn) must pass the metric-name convention unannotated.
CLEAN_METRICS = """
void reg(Registry& r, const unsigned long* p) {
  r.counter("cluster.broker.retries", p);
  r.counter_fn("cluster.replica.dispatches", [] { return 0UL; });
}
"""

ANNOTATED = """
#pragma once
#include <unordered_map>
inline int sum() {
  std::unordered_map<int, int> hits;
  int s = 0;
  // ssdse-lint: allow(unordered-iter) plain sum, order-insensitive
  for (const auto& [k, v] : hits) s += v;
  return s;
}
"""

BENCH_ANNOTATED = """
#include <chrono>
int main() {
  // ssdse-lint: allow(nondeterminism) wall-clock throughput only
  using Clock = std::chrono::steady_clock;
  return Clock::now().time_since_epoch().count() == 0 ? 1 : 0;
}
"""


def self_test() -> int:
    failures = []

    def run_tree(spec: dict[str, str]) -> list[tuple[str, str]]:
        """spec maps root-relative paths (src/... or bench/...) to
        contents; returns (rule, filename) per violation."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, content in spec.items():
                dest = root / name
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(content, encoding="utf-8")
            linter = Linter(root)
            # Mute the detailed report while probing.
            with contextlib.redirect_stdout(io.StringIO()):
                linter.run()
            return [(v[2], str(v[0].name)) for v in linter.violations]

    for rule, content in SEEDED.items():
        suffix = ".cpp" if rule.startswith("metric") else ".hpp"
        found = run_tree({f"src/seeded{suffix}": content})
        if not any(r == rule for r, _ in found):
            failures.append(f"rule '{rule}' did not fire on seeded violation "
                            f"(got {found})")

    # bench/ is covered by the nondeterminism rule only: an unjustified
    # wall-clock read fires; the src-only hygiene rules (header-pragma,
    # metric-name, ...) stay silent there.
    bench_found = run_tree({"bench/seeded.cpp": SEEDED["nondeterminism"]})
    if not any(r == "nondeterminism" for r, _ in bench_found):
        failures.append("nondeterminism did not fire in bench/ "
                        f"(got {bench_found})")
    bench_scoped = run_tree({"bench/hygiene.hpp": SEEDED["header-using"],
                             "bench/metric.cpp": SEEDED["metric-name"]})
    if bench_scoped:
        failures.append("src-only rules leaked into bench/ "
                        f"({bench_scoped})")
    bench_annotated = run_tree({"bench/timed.cpp": BENCH_ANNOTATED})
    if bench_annotated:
        failures.append("justified bench wall-clock allow was not "
                        f"honoured: {bench_annotated}")

    clean_found = run_tree({"src/clean.hpp": CLEAN,
                            "src/clean_metrics.cpp": CLEAN_METRICS})
    if clean_found:
        failures.append(f"clean tree reported violations: {clean_found}")

    annotated_found = run_tree({"src/annotated.hpp": ANNOTATED})
    if annotated_found:
        failures.append(
            f"annotated allow was not honoured: {annotated_found}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print(f"self-test OK: {len(SEEDED)} rule classes fire, clean tree "
          "passes, allow annotations honoured")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).
                    resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on a seeded violation")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.root / "src").is_dir():
        print(f"ssdse_lint: no src/ under {args.root}", file=sys.stderr)
        return 2
    return Linter(args.root).run()


if __name__ == "__main__":
    sys.exit(main())
