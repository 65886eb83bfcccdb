#!/usr/bin/env python3
"""Repo-invariant linter for noisim (ctest label: lint).

Enforces the invariants the compiler cannot: the determinism contract
(bit-identical results at any thread/shard/cache/kernel-tier configuration)
and the concurrency conventions that back the thread-safety annotations.

Rules (each proven live by a negative fixture under tests/lint_fixtures/,
exercised by --self-test):

  ffp-contract      every TU that includes kernels_simd_body.inc must be
                    listed in CMake with -ffp-contract=off in its
                    COMPILE_OPTIONS -- otherwise the optimizer fuses the
                    mul/add intrinsics into FMA and breaks bit-identity
                    with the scalar kernels.
  no-fma            no fma()/std::fma/_mm*_fmadd* anywhere in first-party
                    C++ -- fused rounding differs from mul-then-add.
                    Marker: // lint: allow-fma(<reason>)
  unordered-fold    no range-for over a container declared unordered_*:
                    hash-order iteration makes any fold/merge over it
                    nondeterministic. Sort first, or mark an order-
                    insensitive walk with
                    // lint: unordered-iter-ok(<reason>)
  env-getenv        getenv() only inside support/env.cpp -- every other
                    site goes through support::env_get / env_positive_int
                    so validation grammar and error wording stay in one
                    place. Marker: // lint: allow-getenv(<reason>)
  claim-loop-polls  every worker claim loop (next*.fetch_add / next_item++
                    style dispensers) must poll a RunControl in the same
                    loop (or enclosing function) -- a claim loop without a
                    poll point cannot honor cancellation or deadlines.
  mutex-guards      every data member of a mutex-owning class must be
                    GUARDED_BY(...), const, atomic, a Mutex/CondVar, or
                    carry // lint: not-guarded(<reason>) -- the audit
                    behind the Clang thread-safety annotations, enforced
                    even on GCC-only checkouts.
  plan-compile-sites
                    under src/core/, ContractionPlan::compile( appears
                    only in core/plan_cache.cpp, the plan table's compile
                    site -- every other consumer gets its plan from the
                    table (or PlanCache::compile_plan), so no one
                    recompiles a topology another template already shares.
  no-native-arch    no -march=native, -mtune=native or -mfma in any CMake
                    file (CMakeLists.txt, *.cmake): they enable FMA on the
                    whole build, and GCC's vectorizer contracts complex
                    multiply-adds into vfmadd even under -ffp-contract=off,
                    so results stop being bit-identical across hosts and
                    with the scalar sim/tensor kernels. ISA tiers are
                    opted into per source file (-mavx2 / -mavx512f), never
                    globally.
  thread-spawn-sites
                    under src/, std::thread / std::jthread and std::async
                    appear only in sim/parallel.cpp (run_phases, the
                    library's thread pool) and core/approx.cpp (the XEB
                    sweep queue) -- every other parallel pass runs on
                    run_phases, so cancellation, fault sites and the abort
                    gate stay in one place. std::this_thread and
                    std::thread::hardware_concurrency / ::id do not count.

Exit status: 0 = clean, 1 = findings (or a dead rule in --self-test).
"""

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".inc"}
SCAN_DIRS = ("src", "tests", "bench", "examples")
# Directories whose CMake files (only) are scanned as well.
CMAKE_ONLY_DIRS = ("perfbench",)
FIXTURE_DIR_NAME = "lint_fixtures"

RULES = (
    "ffp-contract",
    "no-fma",
    "unordered-fold",
    "env-getenv",
    "claim-loop-polls",
    "mutex-guards",
    "plan-compile-sites",
    "no-native-arch",
    "thread-spawn-sites",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank out comments, string and char literals (preserving layout), so
    rule regexes never match documentation or message text. Markers are
    collected from the raw text separately."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def marker_lines(raw_text, marker):
    """1-based line numbers carrying `// lint: <marker>(...)` (or the # CMake
    form)."""
    lines = set()
    pattern = re.compile(r"(?://|#)\s*lint:\s*" + re.escape(marker) + r"\(")
    for idx, line in enumerate(raw_text.splitlines(), start=1):
        if pattern.search(line):
            lines.add(idx)
    return lines


def has_marker(markers, line):
    """A marker covers its own line or the line directly above the match."""
    return line in markers or (line - 1) in markers


def brace_scopes(code):
    """All (open_pos, close_pos) brace pairs, via a simple matcher over
    comment/string-stripped code."""
    scopes = []
    stack = []
    for pos, ch in enumerate(code):
        if ch == "{":
            stack.append(pos)
        elif ch == "}" and stack:
            scopes.append((stack.pop(), pos))
    return scopes


def scope_kind(code, open_pos):
    """Classify the construct owning the brace at open_pos:
    'loop', 'skip' (if/switch/catch/try/do/else or unknown), 'boundary'
    (class/struct/namespace/enum/union), or 'function'."""
    header = code[max(0, open_pos - 300):open_pos].rstrip()
    if re.search(r"\b(?:class|struct|namespace|union|enum)\s+[\w:]*\s*(?:final\s*)?(?::[^;{}]*)?$",
                 header):
        return "boundary"
    if re.search(r"\b(?:else|try|do)\s*$", header):
        return "skip"
    if header.endswith(")"):
        # Walk back over the parenthesized tail to the introducing token.
        depth = 0
        k = len(header) - 1
        while k >= 0:
            if header[k] == ")":
                depth += 1
            elif header[k] == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        word = re.search(r"(\w+)\s*$", header[:k])
        token = word.group(1) if word else ""
        if token in ("while", "for"):
            return "loop"
        if token in ("if", "switch", "catch"):
            return "skip"
        return "function"  # fn decl, lambda intro, or annotation macro tail
    return "skip"


# --- rules -------------------------------------------------------------------

def check_ffp_contract(root, cxx_files, cmake_texts):
    """cmake_texts: list of (path, raw_text)."""
    findings = []
    for path, text in cxx_files:
        # Raw text, not strip_code: the include path IS a string literal.
        m = re.search(r'^\s*#\s*include\s+"[^"]*kernels_simd_body\.inc"',
                      text, re.MULTILINE)
        if not m:
            continue
        base = path.name
        covered = False
        mentioned = False
        for cmake_path, cmake in cmake_texts:
            for block in re.finditer(r"set_source_files_properties\s*\(", cmake):
                # Match the property call's closing paren.
                depth, k = 0, block.end() - 1
                while k < len(cmake):
                    if cmake[k] == "(":
                        depth += 1
                    elif cmake[k] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                call = cmake[block.start():k + 1]
                if base in call:
                    mentioned = True
                    if "-ffp-contract=off" in call:
                        covered = True
        if not covered:
            why = ("is listed in set_source_files_properties without -ffp-contract=off"
                   if mentioned else
                   "has no set_source_files_properties entry in any CMakeLists.txt")
            findings.append(Finding(
                path, line_of(text, m.start()), "ffp-contract",
                f"{base} includes kernels_simd_body.inc but {why}; the optimizer "
                "may fuse mul/add into FMA and break scalar/SIMD bit-identity"))
    return findings


FMA_RE = re.compile(r"\bstd\s*::\s*fmaf?\b|(?<![\w.])fmaf?\s*\(|_mm\d*_f(?:n?madd|n?msub)_\w+")


def check_no_fma(cxx_files):
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        markers = marker_lines(text, "allow-fma")
        for m in FMA_RE.finditer(code):
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "no-fma",
                f"fused multiply-add '{m.group(0).strip()}' rounds once where the "
                "deterministic kernels round twice; use mul-then-add "
                "(// lint: allow-fma(<reason>) to override)"))
    return findings


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")


def unordered_names(code):
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Skip to the matching '>' of the template argument list.
        depth, k = 0, m.end() - 1
        while k < len(code):
            if code[k] == "<":
                depth += 1
            elif code[k] == ">":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        tail = code[k + 1:k + 200]
        name = re.match(r"\s*[&*]?\s*(\w+)", tail)
        if name:
            names.add(name.group(1))
    return names


def check_unordered_fold(cxx_files):
    by_stem = {}
    for path, text in cxx_files:
        by_stem.setdefault(path.stem, []).append((path, text))
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        # Names declared unordered here or in same-stem companions (the
        # foo.cpp / foo.hpp pairing catches members used in the TU).
        names = unordered_names(code)
        for other_path, other_text in by_stem.get(path.stem, []):
            if other_path != path:
                names |= unordered_names(strip_code(other_text))
        if not names:
            continue
        markers = marker_lines(text, "unordered-iter-ok")
        for m in re.finditer(r"for\s*\([^;()]*?:\s*(\w+)\s*\)", code):
            if m.group(1) not in names:
                continue
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "unordered-fold",
                f"range-for over unordered container '{m.group(1)}' visits "
                "elements in hash order; any fold over it is nondeterministic "
                "-- sort first, or mark an order-insensitive walk with "
                "// lint: unordered-iter-ok(<reason>)"))
    return findings


GETENV_RE = re.compile(r"\bgetenv\s*\(")


def check_env_getenv(cxx_files):
    findings = []
    for path, text in cxx_files:
        if path.parts[-2:] == ("support", "env.cpp"):
            continue  # the single sanctioned call site
        code = strip_code(text)
        markers = marker_lines(text, "allow-getenv")
        for m in GETENV_RE.finditer(code):
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "env-getenv",
                "naked getenv(); go through support::env_get / "
                "support::env_positive_int so the strict-validation grammar "
                "and error wording stay centralized "
                "(// lint: allow-getenv(<reason>) to override)"))
    return findings


CLAIM_RE = re.compile(
    r"\bnext_?(?:item|task|work|chunk|range)\w*\s*(?:\+\+|\.fetch_add\s*\()"
    r"|\bnext\s*\.\s*fetch_add\s*\(")


def check_claim_loop_polls(cxx_files):
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        scopes = brace_scopes(code)
        for m in CLAIM_RE.finditer(code):
            enclosing = sorted((o, c) for o, c in scopes if o < m.start() < c)
            enclosing.reverse()  # innermost first
            verdict = None
            for open_pos, close_pos in enclosing:
                kind = scope_kind(code, open_pos)
                if kind == "skip":
                    continue
                if kind == "boundary":
                    verdict = False
                    break
                verdict = "poll" in code[open_pos:close_pos]
                break
            if verdict:
                continue
            findings.append(Finding(
                path, line_of(code, m.start()), "claim-loop-polls",
                f"work-claim '{m.group(0).strip()}' has no RunControl poll in "
                "its claim loop; a dispenser that never polls cannot honor "
                "cancellation or deadlines"))
    return findings


MUTEX_MEMBER_RE = re.compile(r"\b(?:support\s*::\s*Mutex|std\s*::\s*(?:shared_|recursive_)?mutex)\b")
MEMBER_OK_RE = re.compile(
    r"GUARDED_BY\s*\(|PT_GUARDED_BY\s*\(|\bconst\b|\batomic\b|\bCondVar\b|"
    r"\bMutex\b|\bmutex\b|\bstatic\b|\busing\b|\btypedef\b|\bfriend\b")


def check_mutex_guards(cxx_files):
    findings = []
    for path, text in cxx_files:
        if path.parts[-2:] == ("support", "mutex.hpp"):
            continue  # the capability wrappers themselves
        code = strip_code(text)
        if not MUTEX_MEMBER_RE.search(code):
            continue
        markers = marker_lines(text, "not-guarded")
        for open_pos, close_pos in brace_scopes(code):
            if scope_kind(code, open_pos) != "boundary":
                continue
            header = code[max(0, open_pos - 300):open_pos]
            if not re.search(r"\b(?:class|struct)\s+[\w:]*\s*(?:final\s*)?(?::[^;{}]*)?$",
                             header.rstrip()):
                continue
            body = code[open_pos + 1:close_pos]
            # Blank nested braces (method bodies, nested types, braced
            # initializers) so only direct member declarations remain.
            flat = []
            depth = 0
            for ch in body:
                if ch == "{":
                    depth += 1
                    flat.append(" ")
                elif ch == "}":
                    depth -= 1
                    flat.append(" ")
                else:
                    flat.append(ch if (depth == 0 or ch == "\n") else " ")
            flat = "".join(flat)
            if not MUTEX_MEMBER_RE.search(flat):
                continue  # the mutex lives in a nested type, not this one
            offset = 0
            for stmt in flat.split(";"):
                stmt_pos = open_pos + 1 + offset
                offset += len(stmt) + 1
                decl = stmt.strip()
                if not decl or MEMBER_OK_RE.search(decl):
                    continue
                # Drop access specifiers and skip nested type declarations
                # (they get their own audit as separate scopes).
                decl = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", decl)
                if re.match(r"^(?:class|struct|enum|union)\b", decl):
                    continue
                # A data member: `Type name;`, `Type name = ...;`, or an
                # array -- anything with top-level parens is a function.
                dm = re.match(
                    r"^(?:mutable\s+)?[A-Za-z_][\w:<>,*&\s]*[\s&*>]"
                    r"(\w+)(?:\s*\[[^\]]*\])?\s*(?:=[^;]*)?$", decl)
                if not dm or "(" in decl:
                    continue
                ln = line_of(code, stmt_pos + stmt.find(stmt.strip()[0]) if stmt.strip() else stmt_pos)
                if has_marker(markers, ln):
                    continue
                findings.append(Finding(
                    path, ln, "mutex-guards",
                    f"member '{dm.group(1)}' of a mutex-owning class is neither "
                    "GUARDED_BY(...) nor const/atomic; annotate it, or mark a "
                    "deliberately unguarded member with "
                    "// lint: not-guarded(<reason>)"))
    return findings


# --- driver ------------------------------------------------------------------

def collect(root, fixture_mode):
    cxx_files = []
    cmake_texts = []
    if fixture_mode:
        walk_roots = [root]
    else:
        walk_roots = [root / d for d in SCAN_DIRS if (root / d).is_dir()]
        top = root / "CMakeLists.txt"
        if top.is_file():
            cmake_texts.append((top, top.read_text(encoding="utf-8", errors="replace")))
    for wr in walk_roots:
        for path in sorted(wr.rglob("*")):
            if not path.is_file():
                continue
            if not fixture_mode and FIXTURE_DIR_NAME in path.parts:
                continue
            if path.suffix in CXX_SUFFIXES:
                cxx_files.append((path, path.read_text(encoding="utf-8", errors="replace")))
            elif is_cmake(path):
                cmake_texts.append((path, path.read_text(encoding="utf-8", errors="replace")))
    if not fixture_mode:
        for d in CMAKE_ONLY_DIRS:
            for path in sorted((root / d).rglob("*")) if (root / d).is_dir() else []:
                if path.is_file() and is_cmake(path):
                    cmake_texts.append(
                        (path, path.read_text(encoding="utf-8", errors="replace")))
    return cxx_files, cmake_texts


def is_cmake(path):
    return path.name == "CMakeLists.txt" or path.suffix == ".cmake"


PLAN_COMPILE_RE = re.compile(r"\bContractionPlan\s*::\s*compile\s*\(")


def check_plan_compile_sites(cxx_files):
    findings = []
    for path, text in cxx_files:
        if path.parent.name != "core" or path.name == "plan_cache.cpp":
            continue  # outside src/core/, or the sanctioned plan-table site
        code = strip_code(text)
        for m in PLAN_COMPILE_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "plan-compile-sites",
                "ContractionPlan::compile outside the plan table; get the plan "
                "from core::PlanCache (amplitude_template) or compile through "
                "PlanCache::compile_plan so same-topology templates share it"))
    return findings


NATIVE_ARCH_RE = re.compile(r"-m(?:arch|tune)=native\b|-mfma\b")


def strip_cmake_comments(text):
    """Blank `# ...` comments (outside double-quoted strings), keeping lines."""
    out = []
    for line in text.splitlines():
        quoted = False
        for idx, ch in enumerate(line):
            if ch == '"':
                quoted = not quoted
            elif ch == "#" and not quoted:
                line = line[:idx]
                break
        out.append(line)
    return "\n".join(out)


def check_no_native_arch(cmake_texts):
    findings = []
    for path, text in cmake_texts:
        code = strip_cmake_comments(text)
        for m in NATIVE_ARCH_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "no-native-arch",
                f"'{m.group(0)}' enables FMA for the whole build; GCC's vectorizer "
                "then contracts complex multiply-adds into vfmadd even under "
                "-ffp-contract=off, breaking bit-identity across hosts and with "
                "the scalar kernels -- opt a single TU into an ISA tier instead"))
    return findings


THREAD_SPAWN_RE = re.compile(r"\bstd\s*::\s*(?:j?thread\b(?!\s*::)|async\b)")
THREAD_SPAWN_SITES = {("src", "sim", "parallel.cpp"), ("src", "core", "approx.cpp")}


def check_thread_spawn_sites(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        rel = path.relative_to(root).parts
        if rel[:1] != ("src",) or rel in THREAD_SPAWN_SITES:
            continue
        code = strip_code(text)
        for m in THREAD_SPAWN_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "thread-spawn-sites",
                f"'{m.group(0)}' outside sim/parallel.cpp and core/approx.cpp; run "
                "the pass on sim::run_phases so cancellation, fault sites and "
                "the abort gate stay in one pool"))
    return findings


def run_rules(root, cxx_files, cmake_texts):
    findings = []
    findings += check_ffp_contract(root, cxx_files, cmake_texts)
    findings += check_no_fma(cxx_files)
    findings += check_unordered_fold(cxx_files)
    findings += check_env_getenv(cxx_files)
    findings += check_claim_loop_polls(cxx_files)
    findings += check_mutex_guards(cxx_files)
    findings += check_plan_compile_sites(cxx_files)
    findings += check_no_native_arch(cmake_texts)
    findings += check_thread_spawn_sites(root, cxx_files)
    return findings


def self_test(repo_root):
    """Prove every rule LIVE: scan tests/lint_fixtures/ as if it were a repo
    and require each fixture's `lint-fixture: expect(<rule>)` markers to be
    reported exactly -- a rule whose fixture stops firing is a dead rule."""
    fixture_root = repo_root / "tests" / FIXTURE_DIR_NAME
    if not fixture_root.is_dir():
        print(f"lint_invariants --self-test: missing {fixture_root}", file=sys.stderr)
        return 1
    cxx_files, cmake_texts = collect(fixture_root, fixture_mode=True)
    expected = {}  # path -> set of rules
    expect_re = re.compile(r"lint-fixture:\s*expect\((\S+?)\)")
    for path, text in cxx_files + cmake_texts:
        for m in expect_re.finditer(text):
            expected.setdefault(path, set()).add(m.group(1))
    findings = run_rules(fixture_root, cxx_files, cmake_texts)
    got = {}
    for f in findings:
        got.setdefault(f.path, set()).add(f.rule)

    failures = []
    for path, rules in sorted(expected.items()):
        missing = rules - got.get(path, set())
        for rule in sorted(missing):
            failures.append(f"{path}: rule '{rule}' did NOT fire on its fixture (dead rule?)")
    for path, rules in sorted(got.items()):
        surplus = rules - expected.get(path, set())
        for rule in sorted(surplus):
            failures.append(f"{path}: rule '{rule}' fired but the fixture does not expect it")
    covered = set().union(*expected.values()) if expected else set()
    for rule in RULES:
        if rule not in covered:
            failures.append(f"no fixture exercises rule '{rule}'")

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        print(f"lint_invariants --self-test: FAILED ({len(failures)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"lint_invariants --self-test: all {len(RULES)} rules fire on their fixtures")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: the checkout containing this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules against tests/lint_fixtures/ and require "
                         "every rule to fire where its fixture expects it")
    args = ap.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    cxx_files, cmake_texts = collect(root, fixture_mode=False)
    findings = run_rules(root, cxx_files, cmake_texts)
    for f in findings:
        try:
            f.path = f.path.relative_to(root)
        except ValueError:
            pass
        print(f, file=sys.stderr)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(cxx_files)} C++ files, "
          f"{len(cmake_texts)} CMake files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
