"""Acceptance suite: runs every verification criterion and reports line by line.

Each criterion is exact (no tolerances); a test fails if any of its checks
fail.  Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines, or `delannoy verify all` for the same checks from the CLI.
"""

import functools
import hashlib
import random

import pytest

from delannoy import category, euler, kring, verify
from delannoy.cli import main
from delannoy.errors import InvariantError
from delannoy.verify import DETAIL_LIMIT, SUITE_NAMES, VerificationReport, run_suite

# sha256 of the stdout of a passing `delannoy verify all` (seed 0): one PASS line per check
PINNED_VERIFY_SHA256 = "d1c27585d599e7780b377ff366212868e2690d650bae470e4e1cf55b54127121"


@functools.lru_cache(maxsize=None)
def _report(suite):
    return run_suite(suite, seed=0)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_criterion(suite):
    report = _report(suite)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.suite} ({len(report.checks)} checks)")
    failing = [c for c in report.checks if not c.passed]
    for check in failing:
        print(f"  FAIL {check.name} {check.detail}")
    assert not failing, f"{suite}: {[c.name for c in failing]}"


def test_pinned_verify_all_stdout(capsys, monkeypatch):
    # printed by `delannoy verify all` from the reports the criteria above ran, not from a second run
    def run_all(seed):
        assert seed == 0
        return [_report(suite) for suite in SUITE_NAMES]

    monkeypatch.setattr(verify, "run_all", run_all)
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_SHA256


def test_expect_names_the_first_counterexample():
    report = VerificationReport("squares")
    seen = []

    def cases():
        for i in range(5):
            seen.append(i)
            yield (i, "squared"), i * i, i

    report.expect("fixed points of squaring", cases())
    report.expect("no cases", [])
    report.expect("long values", [("x", "a" * 1000, "b")])
    assert seen == [0, 1, 2]  # no case is computed past the first counterexample
    assert [(c.name, c.passed) for c in report.checks] == [
        ("fixed points of squaring", False), ("no cases", True), ("long values", False),
    ]
    assert report.checks[0].detail == "at (2, 'squared'): got 4, want 2"
    assert report.checks[1].detail == ""
    long = report.checks[2].detail
    assert len(long) == DETAIL_LIMIT and long.startswith("at x: got 'aaa") and long.endswith("...")


def test_a_failing_check_leaves_the_random_draws_alone(monkeypatch):
    passing = random.Random(0)
    report = VerificationReport("06-euler-calculus")
    verify.suite_euler_calculus(report, passing)
    assert report.passed
    monkeypatch.setattr(euler, "integrate_fully", lambda f, order=None: 10**9)
    failing = random.Random(0)
    report = VerificationReport("06-euler-calculus")
    verify.suite_euler_calculus(report, failing)
    first_random = "iterated pushforward is order independent (100 random)"
    assert [c.name for c in report.checks if not c.passed] == [first_random]
    assert "got 1000000000" in report.checks[3].detail
    assert failing.getstate() == passing.getstate()


def _raising(original, fails):
    def wrapper(*args):
        if fails(*args):
            raise InvariantError("forced")
        return original(*args)

    return wrapper


@pytest.mark.parametrize("suite, module, name, fails, failing", [
    ("03", category, "trace", lambda f: f.out_arity == 2, [
        "trace pairing has Gram determinant (-1)^(n+m) at n, m <= 3, (3, 4), (4, 3)",
        "trace pairing is (-1)^len(p) at p transposed, else 0, same arities",
    ]),
    ("06", euler, "interval_indicator", lambda intervals: True,
     ["half-open interval integrates to 0"]),
    ("08", verify, "matrix_rank", lambda matrix: True,
     ["primitives are exactly the span of b+1 and w+1"]),
    ("11", kring, "schur_apply", lambda parts, x: True, [
        "column pair and row pair on a single letter",
        "counit of a Schur value matches the polynomial at -1, |partition| <= 4",
    ]),
], ids=["03", "06", "08", "11"])
def test_an_engine_error_fails_only_the_checks_that_read_it(
        capsys, monkeypatch, suite, module, name, fails, failing):
    # the suite's cases are computed inside its checks: every check still runs
    names = [c.name for c in _report(SUITE_NAMES[int(suite) - 1]).checks]
    monkeypatch.setattr(module, name, _raising(getattr(module, name), fails))
    assert main(["verify", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    printed = [line.split(" :: ", 1) for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert [n for _, n in printed] == names
    assert [n for status, n in printed if status.startswith("FAIL")] == failing
    details = [line for line in lines if line.startswith("     ")]
    assert len(details) == len(failing)
    assert all(": raised InvariantError: forced" in line for line in details)
