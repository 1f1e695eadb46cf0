#!/usr/bin/env python3
"""Determinism linter for the t2vec tree.

The repo's core contract is that parallel, fused, batched, and served paths
are bit-identical to their serial references (DESIGN.md §5). Runtime tests
enforce that contract per call site; this linter enforces it structurally,
at review time, by banning the source patterns that historically break it:

  raw-sort        std::sort / std::stable_sort / std::partial_sort /
                  std::partial_sort_copy / std::nth_element anywhere except
                  common/sort.h and common/order.h. Unpinned sorts place
                  comparator-equivalent elements in an implementation-defined
                  order, so anything downstream of the permutation (batch
                  composition, kNN tie order) silently varies per toolchain.
                  Use DeterministicSort / TotalOrderPartialSort /
                  TotalOrderNthElement from common/sort.h.
  raw-rng         rand()/srand(), std::random_device, the <random> engines
                  (mt19937, minstd_rand, default_random_engine, ...) and
                  drand48 outside common/rng.*. All stochastic code must draw
                  from an explicitly seeded t2vec::Rng so runs reproduce.
  wall-clock      std::chrono::system_clock, std::chrono::high_resolution_clock
                  (may alias system_clock), time(nullptr/0/NULL), clock(),
                  gettimeofday. Wall-clock reads in numeric code paths make
                  output depend on when it ran; timing code uses the monotonic
                  steady_clock (common/stopwatch.h), which is allowed.
  unordered-iter  Range-for or .begin()/.end() iteration over a variable
                  declared as std::unordered_map / std::unordered_set in the
                  same file. Unordered iteration order is implementation- and
                  run-dependent; when it feeds serialized or returned data the
                  output is nondeterministic. Iterate a sorted copy, or
                  suppress with a reason when order provably cannot reach any
                  output (e.g. the results are re-sorted downstream).
  raw-index-ctor  Direct construction of a concrete retrieval index
                  (VectorIndex, LshIndex, IvfIndex) outside the core index
                  sources. Serving and tooling paths must build indexes via
                  core::CreateIndex(IndexConfig, dim) so the backend stays a
                  config decision (and snapshot restore keeps working);
                  evaluation code that genuinely needs the exact scan (e.g.
                  VectorIndex::RankOf ground truth) suppresses with a
                  reason.
  raw-ofstream    std::ofstream / std::fstream / std::fopen, and the raw
                  POSIX file-mapping/write path (::open, ::write, ::fsync,
                  ::fdatasync, ::rename, ::ftruncate, ::mmap, ::munmap),
                  outside common/fs.* and common/serialize.h. Direct writes
                  bypass the durability layer (DESIGN.md §7): no atomic
                  tmp-file + rename publication, no CRC32C trailer, so a
                  crash mid-write leaves a truncated artifact at the final
                  path; ad-hoc mappings bypass MmapFile's lifetime and
                  CRC-verification rules. Binary artifacts go through
                  BinaryWriter; text artifacts render into a std::string and
                  publish via WriteFileAtomic; logs append through
                  AppendOnlyFile (reads: BinaryReader / ReadFileToString /
                  MmapFile). Only global-namespace ::calls match, so socket
                  I/O (::send, ::recv, ::close) and qualified names
                  (std::remove, stream.write(...)) never fire. fopen is
                  banned in both directions — string literals are blanked
                  before matching, so the linter cannot tell "r" from "w";
                  suppress a genuine read-only use with an allow comment.
  raw-intrinsics  x86 SIMD intrinsics (<immintrin.h> and friends, _mm*()
                  calls, __m128/__m256/__m512 vector types) anywhere except
                  src/nn/kernels_avx2.cc. Hand-vectorized code scattered
                  through the tree cannot be audited for bit-identity with
                  its scalar twin; every SIMD path must live behind the
                  nn/kernels.h dispatch table, where simd_kernels_test
                  memcmp-compares the tiers and T2VEC_SIMD selects them.
  raw-mutex       std::mutex / std::shared_mutex / std::condition_variable
                  (and the recursive/timed/_any variants), plus lock_guard /
                  unique_lock / shared_lock / scoped_lock, anywhere except
                  common/sync.*. Raw primitives are invisible to the Clang
                  Thread Safety Analysis gate (-DT2VEC_THREAD_SAFETY=ON,
                  DESIGN.md §5.4): only the annotated t2vec::sync wrappers
                  let a Clang build prove at compile time that guarded
                  state is touched with the right lock held.
  raw-thread-count
                  std::thread::hardware_concurrency(), get_nprocs() /
                  get_nprocs_conf() and sysconf(_SC_NPROCESSORS_*) anywhere
                  except common/thread_pool.cc. The default thread count is
                  resolved once there, at first use; a probe costs
                  microseconds, which hot paths that look the count up per
                  GEMM cannot afford. Read it through GetNumThreads().
  bad-allow       A lint:allow comment with an unknown rule id or no reason.

Escape hatch — on the flagged line or the line directly above it:

    // lint:allow(raw-sort) keys are unique, any sort yields the same bytes

The rule id must be one of the rules above and the reason must be non-empty;
`lint:allow(a,b) reason` suppresses several rules at once.

Usage:
    tools/lint_determinism.py [--json FILE] [--quiet] [paths...]

With no paths, scans src/, bench/, and tools/ under the repo root (the
parent of this script's directory). Exits 1 if any violation is found and
0 otherwise; --json writes a machine-readable report either way.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

# Each rule: id -> (description, [compiled patterns], {exempt relpaths}).
# Patterns are matched against comment-stripped source lines.


def _c(*patterns):
    return [re.compile(p) for p in patterns]


RULES = {
    "raw-sort": {
        "description": (
            "raw std::sort/std::stable_sort/std::partial_sort/"
            "std::partial_sort_copy/std::nth_element outside common/sort.h "
            "and common/order.h; use DeterministicSort/TotalOrderPartialSort/"
            "TotalOrderNthElement"
        ),
        "patterns": _c(
            r"\bstd\s*::\s*(?:stable_sort|partial_sort_copy|partial_sort|"
            r"nth_element|sort)\s*\("
        ),
        "exempt": {"src/common/sort.h", "src/common/order.h"},
    },
    "raw-rng": {
        "description": (
            "raw C/std RNG (rand, srand, std::random_device, <random> "
            "engines, drand48) outside common/rng.*; use a seeded t2vec::Rng"
        ),
        "patterns": _c(
            r"\brand\s*\(\s*\)",
            r"\bsrand\s*\(",
            r"\bstd\s*::\s*random_device\b",
            r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
            r"default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b)\b",
            r"\b[dlm]rand48\s*\(",
        ),
        "exempt": {"src/common/rng.h", "src/common/rng.cc"},
    },
    "wall-clock": {
        "description": (
            "wall-clock read (system_clock, high_resolution_clock, "
            "time(nullptr), clock(), gettimeofday); numeric paths must not "
            "depend on when they run — use steady_clock for timing"
        ),
        "patterns": _c(
            r"\bstd\s*::\s*chrono\s*::\s*system_clock\b",
            r"\bstd\s*::\s*chrono\s*::\s*high_resolution_clock\b",
            r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)",
            r"(?<![\w:])clock\s*\(\s*\)",
            r"\bgettimeofday\s*\(",
        ),
        "exempt": set(),
    },
    "unordered-iter": {
        "description": (
            "iteration over a std::unordered_map/std::unordered_set; "
            "iteration order is implementation-defined and must not feed "
            "serialized or returned data — iterate a sorted copy instead"
        ),
        # Handled structurally (declaration tracking), no flat patterns.
        "patterns": [],
        "exempt": set(),
    },
    "raw-index-ctor": {
        "description": (
            "direct construction of a concrete retrieval index "
            "(VectorIndex, LshIndex, IvfIndex) outside the core index "
            "sources; build through core::CreateIndex(IndexConfig, dim) so "
            "the backend stays a config decision"
        ),
        # The class name followed by an optional variable name and a ctor
        # argument list: `VectorIndex index{...}`, `LshIndex lsh(...)`,
        # `new IvfIndex(...)`. Qualified member uses (`VectorIndex::RankOf`)
        # never match — `::` follows the name instead of `(`/`{`.
        "patterns": _c(
            r"\b(?:VectorIndex|LshIndex|IvfIndex)\b\s*(?:\w+\s*)?[({]",
        ),
        # The classes' own declarations/definitions and the factory.
        "exempt": {
            "src/core/vec_index.h",
            "src/core/vec_index.cc",
            "src/core/ivf_index.h",
            "src/core/ivf_index.cc",
            "src/core/ann_index.h",
            "src/core/ann_index.cc",
        },
    },
    "raw-ofstream": {
        "description": (
            "direct std::ofstream/std::fstream/fopen or raw POSIX "
            "file-mapping/write path (::open/::write/::fsync/::fdatasync/"
            "::rename/::ftruncate/::mmap/::munmap) outside common/fs.* and "
            "common/serialize.h bypasses atomic publication, CRC framing, "
            "and MmapFile lifetime rules; use BinaryWriter, WriteFileAtomic, "
            "AppendOnlyFile, or MmapFile (common/fs.h)"
        ),
        "patterns": _c(
            r"\bstd\s*::\s*ofstream\b",
            r"\bstd\s*::\s*fstream\b",
            r"\bfopen\s*\(",
            # Global-namespace POSIX file-write/mapping calls only:
            # `(?<![\w:])::` rejects qualified names (std::remove,
            # ofstream::write) and the bare-call / member-call forms, so
            # socket I/O (::send, ::recv, ::close) and buffer.write(...)
            # never fire.
            r"(?<![\w:])::\s*(?:open|write|fsync|fdatasync|rename|"
            r"ftruncate|mmap|munmap)\s*\(",
        ),
        "exempt": {
            "src/common/fs.h",
            "src/common/fs.cc",
            "src/common/serialize.h",
        },
    },
    "raw-intrinsics": {
        "description": (
            "raw x86 SIMD intrinsics (<immintrin.h>, _mm*() calls, "
            "__m128/__m256/__m512 types) outside src/nn/kernels_avx2.cc; "
            "vector code must sit behind the nn/kernels.h dispatch table "
            "so it keeps a memcmp-verified scalar twin"
        ),
        "patterns": _c(
            r"#\s*include\s*<\s*(?:immintrin|x86intrin|xmmintrin|emmintrin|"
            r"pmmintrin|tmmintrin|smmintrin|nmmintrin|wmmintrin|"
            r"avxintrin|avx2intrin|avx512\w*intrin|fmaintrin)\.h\s*>",
            r"\b_mm(?:256|512)?_\w+\s*\(",
            r"\b__m(?:128|256|512)[di]?\b",
        ),
        "exempt": {"src/nn/kernels_avx2.cc"},
    },
    "raw-mutex": {
        "description": (
            "raw std::mutex/shared_mutex/condition_variable or "
            "lock_guard/unique_lock/shared_lock/scoped_lock outside "
            "common/sync.*; use the annotated t2vec::sync::Mutex, "
            "MutexLock, ReaderMutexLock, and CondVar so the Clang Thread "
            "Safety Analysis gate sees every acquire and guarded access"
        ),
        "patterns": _c(
            r"\bstd\s*::\s*(?:(?:recursive_|shared_)?(?:timed_)?mutex|"
            r"condition_variable(?:_any)?|lock_guard|unique_lock|"
            r"shared_lock|scoped_lock)\b"
        ),
        "exempt": {"src/common/sync.h", "src/common/sync.cc"},
    },
    "raw-thread-count": {
        "description": (
            "raw CPU-count probe (hardware_concurrency, get_nprocs, "
            "sysconf(_SC_NPROCESSORS_*)) outside common/thread_pool.cc; the "
            "default thread count is resolved once there — read it through "
            "GetNumThreads()"
        ),
        "patterns": _c(
            r"\bhardware_concurrency\s*\(",
            r"\bget_nprocs(?:_conf)?\s*\(",
            r"\bsysconf\s*\(\s*_SC_NPROCESSORS\w*",
        ),
        "exempt": {"src/common/thread_pool.cc"},
    },
    "bad-allow": {
        "description": (
            "malformed lint:allow comment (unknown rule id or missing reason)"
        ),
        "patterns": [],
        "exempt": set(),
    },
}

SOURCE_EXTENSIONS = {".cc", ".cpp", ".cxx", ".h", ".hpp", ".inl"}

ALLOW_RE = re.compile(r"lint:allow\(([^)]*)\)\s*:?\s*(.*)")

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set)\s*<.*>\s*[&*]?\s*(\w+)\s*(?:;|=|\{|\))"
)

# ---------------------------------------------------------------------------
# Comment stripping (preserves line structure so line numbers survive)
# ---------------------------------------------------------------------------


_RAW_STRING_PREFIX_RE = re.compile(r"(?:u8|[uUL])?R\Z")


def _raw_string_end(text, i):
    """For a `"` at index i opening a raw string literal (R"delim(...)delim"),
    returns the index one past the closing quote; None when the `"` is not a
    raw-string opener. Raw strings have no escapes and may contain `"`, so
    the generic str state cannot parse them — naive quote-pairing would flip
    code and string data for the rest of the file."""
    m = _RAW_STRING_PREFIX_RE.search(text, max(0, i - 3), i)
    if not m:
        return None
    start = m.start()
    if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
        return None  # Identifier ending in R, not an encoding prefix.
    paren = text.find("(", i + 1)
    if paren == -1:
        return None
    delim = text[i + 1:paren]
    # The standard caps the delimiter at 16 chars and bans whitespace,
    # parens, and backslash; anything else means this is not a raw string.
    if len(delim) > 16 or any(ch in ' \t\n\\)"' for ch in delim):
        return None
    terminator = ")" + delim + '"'
    end = text.find(terminator, paren + 1)
    return len(text) if end == -1 else end + len(terminator)


def strip_comments(text):
    """Blanks out //-comments, /*...*/ blocks, and string/char literals
    (including raw string literals, which may contain unescaped quotes)."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                raw_end = _raw_string_end(text, i)
                if raw_end is not None:
                    for k in range(i, raw_end):
                        out.append("\n" if text[k] == "\n" else " ")
                    i = raw_end
                    continue
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            elif c == "\n":  # Unterminated; recover.
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            elif c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Per-file scan
# ---------------------------------------------------------------------------


def parse_allows(raw_lines):
    """Returns ({line_no: set(rule_ids)}, [bad_allow_violations])."""
    allows = {}
    bad = []
    for no, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
        reason = m.group(2).strip()
        unknown = sorted(i for i in ids if i not in RULES or i == "bad-allow")
        if not ids or unknown:
            bad.append((no, line.strip(),
                        "unknown rule id(s): " + (", ".join(unknown) or "<none>")))
            continue
        if not reason:
            bad.append((no, line.strip(), "missing reason"))
            continue
        allows[no] = ids
    return allows, bad


def unordered_iteration_patterns(stripped_lines):
    """Finds unordered container names declared in the file and returns
    compiled patterns that match range-for or begin()-iteration over them."""
    names = set()
    for line in stripped_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            names.add(m.group(1))
    patterns = []
    for name in sorted(names):
        patterns.append(re.compile(
            r"for\s*\(.*:\s*(?:\w+(?:\.|->))*" + re.escape(name) + r"\s*\)"))
        # Only begin(): a lone `.end()` is the idiomatic find()-miss check,
        # not iteration.
        patterns.append(re.compile(
            re.escape(name) + r"\s*\.\s*c?r?begin\s*\(\s*\)"))
    return patterns


def scan_file(path, relpath):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    raw_lines = raw.split("\n")
    stripped_lines = strip_comments(raw).split("\n")

    allows, bad_allows = parse_allows(raw_lines)
    violations = []
    for no, line, why in bad_allows:
        violations.append({
            "file": relpath, "line": no, "rule": "bad-allow",
            "snippet": line, "message": why,
        })

    def allowed(rule, no):
        for cand in (no, no - 1):
            if rule in allows.get(cand, set()):
                return True
        return False

    def check(rule, pattern, no, line):
        if relpath in RULES[rule]["exempt"]:
            return
        if not pattern.search(line):
            return
        if allowed(rule, no):
            return
        violations.append({
            "file": relpath, "line": no, "rule": rule,
            "snippet": raw_lines[no - 1].strip(),
            "message": RULES[rule]["description"],
        })

    flat = [(rule, p) for rule, spec in RULES.items()
            for p in spec["patterns"]]
    iter_patterns = unordered_iteration_patterns(stripped_lines)

    for no, line in enumerate(stripped_lines, start=1):
        for rule, pattern in flat:
            check(rule, pattern, no, line)
        for pattern in iter_patterns:
            check("unordered-iter", pattern, no, line)
    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if os.path.splitext(name)[1] in SOURCE_EXTENSIONS:
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             "(default: src/ bench/ tools/ under repo root)")
    parser.add_argument("--json", metavar="FILE",
                        help="write a machine-readable report to FILE "
                             "('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable listing")
    args = parser.parse_args(argv)

    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.paths:
        roots = [os.path.abspath(p) for p in args.paths]
    else:
        roots = [os.path.join(repo_root, d) for d in ("src", "bench", "tools")]

    files = collect_files(roots)
    all_violations = []
    for path in files:
        rel = os.path.relpath(path, repo_root)
        if rel.startswith(".."):
            rel = path  # Outside the repo (e.g. fixture dirs in tests).
        all_violations.extend(scan_file(path, rel))

    all_violations.sort(key=lambda v: (v["file"], v["line"], v["rule"]))

    if not args.quiet:
        for v in all_violations:
            print(f"{v['file']}:{v['line']}: [{v['rule']}] {v['message']}")
            print(f"    {v['snippet']}")
        print(f"lint_determinism: {len(files)} files scanned, "
              f"{len(all_violations)} violation(s)")

    if args.json:
        report = {
            "files_scanned": len(files),
            "rules": {rid: spec["description"]
                      for rid, spec in RULES.items()},
            "violations": all_violations,
        }
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(payload + "\n")

    return 1 if all_violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
