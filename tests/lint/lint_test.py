#!/usr/bin/env python3
"""Fixture tests for tools/lint_determinism.py.

Runs the linter over tests/lint/fixtures/ and asserts the exact rule ids
that fire per file: one violation-fixture per rule, a clean file, and an
allow-suppressed file. Registered with ctest as `lint_test`.
"""

import collections
import json
import os
import subprocess
import sys

TESTS_LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TESTS_LINT_DIR))
LINTER = os.path.join(REPO_ROOT, "tools", "lint_determinism.py")
FIXTURES = os.path.join(TESTS_LINT_DIR, "fixtures")

# file basename -> {rule: expected_count}
EXPECTED = {
    "violation_raw_sort.cc": {"raw-sort": 4},
    "violation_raw_rng.cc": {"raw-rng": 5},
    "violation_wall_clock.cc": {"wall-clock": 4},
    "violation_unordered_iter.cc": {"unordered-iter": 2},
    "violation_raw_index_ctor.cc": {"raw-index-ctor": 3},
    "violation_raw_ofstream.cc": {"raw-ofstream": 10},
    "violation_raw_intrinsics.cc": {"raw-intrinsics": 7},
    "violation_raw_mutex.cc": {"raw-mutex": 11},
    "violation_raw_thread_count.cc": {"raw-thread-count": 4},
    # Raw string literals are string data: the banned names inside the
    # quoted literals stay quiet, the real sort after one still fires.
    "violation_raw_string.cc": {"raw-sort": 1},
    # Malformed suppressions fire bad-allow AND leave the underlying
    # violations unsuppressed.
    "violation_bad_allow.cc": {"bad-allow": 2, "raw-sort": 2},
    "clean.cc": {},
    "allowed.cc": {},
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")
    else:
        print(f"ok:   {message}")


def run_linter(paths):
    proc = subprocess.run(
        [sys.executable, LINTER, "--quiet", "--json", "-"] + paths,
        capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"linter produced unparseable JSON (rc={proc.returncode})")
    return proc.returncode, report


def main():
    rc, report = run_linter([FIXTURES])

    by_file = collections.defaultdict(collections.Counter)
    for v in report["violations"]:
        by_file[os.path.basename(v["file"])][v["rule"]] += 1

    for name, expected in sorted(EXPECTED.items()):
        got = dict(by_file.get(name, collections.Counter()))
        check(got == expected,
              f"{name}: expected {expected or 'no violations'}, got "
              f"{got or 'no violations'}")

    unexpected = set(by_file) - set(EXPECTED)
    check(not unexpected, f"no violations outside known fixtures: "
                          f"{sorted(unexpected) or 'none'}")
    check(rc == 1, f"exit code 1 when violations exist (got {rc})")
    check(report["files_scanned"] == len(EXPECTED),
          f"scanned exactly the {len(EXPECTED)} fixture files "
          f"(got {report['files_scanned']})")

    # Every rule advertised by the linter has a firing fixture, so a new
    # rule cannot land untested.
    fired = {rule for counts in EXPECTED.values() for rule in counts}
    check(fired == set(report["rules"]),
          f"every rule has a fixture: rules={sorted(report['rules'])} "
          f"fired={sorted(fired)}")

    # Clean + suppressed files alone -> zero violations, exit 0.
    rc_clean, report_clean = run_linter(
        [os.path.join(FIXTURES, "clean.cc"),
         os.path.join(FIXTURES, "allowed.cc")])
    check(rc_clean == 0 and not report_clean["violations"],
          f"clean + allowed scan exits 0 with no violations "
          f"(rc={rc_clean}, n={len(report_clean['violations'])})")

    # The real tree must be lint-clean: the gate this test protects.
    rc_tree, report_tree = run_linter([])
    check(rc_tree == 0 and not report_tree["violations"],
          f"src/ bench/ tools/ are lint-clean (rc={rc_tree}, "
          f"violations={[(v['file'], v['line'], v['rule']) for v in report_tree['violations']][:10]})")

    if failures:
        print(f"\n{len(failures)} assertion(s) failed")
        return 1
    print("\nall lint fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
